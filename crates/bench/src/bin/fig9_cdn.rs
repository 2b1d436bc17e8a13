//! Figure 9: peer-to-peer CDN replica selection. The figure is
//! `inano_bench::figures::fig9_cdn`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig9_cdn");
}
