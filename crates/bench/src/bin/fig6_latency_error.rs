//! Figure 6: RTT estimation error, iNano vs Vivaldi vs path composition. The figure is
//! `inano_bench::figures::fig6_latency_error`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig6_latency_error");
}
