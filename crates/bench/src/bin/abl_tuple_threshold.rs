//! Ablation: the tuple degree threshold and the preference dominance factor. The figure is
//! `inano_bench::figures::abl_tuple_threshold`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("abl_tuple_threshold");
}
