//! §6.2.2: stationarity of packet loss. The figure is
//! `inano_bench::figures::loss_stationarity`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("loss_stationarity");
}
