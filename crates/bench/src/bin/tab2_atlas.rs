//! Table 2: size of iNano's atlas and its daily delta. The figure is
//! `inano_bench::figures::tab2_atlas`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("tab2_atlas");
}
