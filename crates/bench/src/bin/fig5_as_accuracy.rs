//! Figure 5: AS-path prediction accuracy, GRAPH to iNano and the baselines. The figure is
//! `inano_bench::figures::fig5_as_accuracy`.

fn main() {
    inano_bench::refuse_args();
    inano_bench::figures::print("fig5_as_accuracy");
}
