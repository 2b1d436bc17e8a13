//! Regenerate every table and figure in one process
//! (`inano_bench::figures::run_all`). A figure that panics is named in
//! the final `FAILED` line, after the others have run, and the exit
//! status is then 1.

fn main() {
    inano_bench::refuse_args();
    let failed = inano_bench::figures::run_all();
    if failed.is_empty() {
        println!(
            "\nall {} experiments completed",
            inano_bench::figures::ALL.len()
        );
    } else {
        println!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}
