//! Regenerate every table and figure in sequence by invoking the sibling
//! experiment binaries; their text tables land on this process's stdout.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "tab2_atlas",
    "scale_vps",
    "fig4_path_stationarity",
    "loss_stationarity",
    "fig5_as_accuracy",
    "fig6_latency_error",
    "fig7_rank_closest",
    "fig8_loss_error",
    "fig9_cdn",
    "fig10_voip",
    "fig11_detour",
    "abl_tuple_threshold",
];

fn main() {
    inano_bench::refuse_args();
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("binary directory");

    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n######## {exp} ########");
        match Command::new(dir.join(exp)).status() {
            Ok(st) if st.success() => {}
            Ok(st) => {
                eprintln!("{exp} exited with {st}");
                failed.push(*exp);
            }
            Err(e) => {
                eprintln!("could not run {exp}: {e}");
                failed.push(*exp);
            }
        }
    }
    if failed.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}
