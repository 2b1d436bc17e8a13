//! Figure 10: VoIP relay selection. The figure is
//! `inano_bench::figures::fig10_voip`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig10_voip");
}
