//! §6.1.2: atlas growth as end-host vantage points are added. The figure is
//! `inano_bench::figures::scale_vps`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("scale_vps");
}
