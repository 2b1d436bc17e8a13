//! # inano-bench
//!
//! The experiment harness: scenario construction (synthetic Internet →
//! measurement campaign → atlas), validation-set machinery, and output
//! formatting shared by the per-figure binaries in `src/bin/`.
//!
//! Each paper table/figure has a binary: `tab2_atlas`, `fig4_path_stationarity`,
//! `fig5_as_accuracy`, `fig6_latency_error`, `fig7_rank_closest`,
//! `fig8_loss_error`, `fig9_cdn`, `fig10_voip`, `fig11_detour`,
//! `scale_vps`, `loss_stationarity`, and `run_all` to regenerate
//! everything. Each prints its table as text to stdout and its progress
//! to stderr, and takes no arguments.

pub mod eval;
pub mod report;
pub mod scenario;

pub use eval::{validation_set, ValidationPath};
pub use scenario::{Scenario, ScenarioConfig};

/// Exit with status 2, naming the first command-line argument, if there
/// is one: the figure bins take none, so a flag from an old script
/// fails here instead of being silently ignored. Called first in every
/// bin's `main`.
pub fn refuse_args() {
    if let Some(arg) = std::env::args_os().nth(1) {
        eprintln!("unexpected argument {arg:?}: this binary takes no arguments");
        std::process::exit(2);
    }
}
