//! Figure 7: overlap of the predicted and actual 10 closest destinations. The figure is
//! `inano_bench::figures::fig7_rank_closest`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig7_rank_closest");
}
