//! Figure 4: similarity of PoP-level paths across consecutive days. The figure is
//! `inano_bench::figures::fig4_path_stationarity`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig4_path_stationarity");
}
