//! Figure 11: routing around failures with ranked detours. The figure is
//! `inano_bench::figures::fig11_detour`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig11_detour");
}
