//! # inano-bench
//!
//! The experiment harness: scenario construction (synthetic Internet →
//! measurement campaign → atlas), validation-set machinery, and the
//! paper's tables and figures.
//!
//! Each table or figure is a function in [`figures`] that returns its
//! text table, computed from one built world ([`eval::Eval`]): the
//! oracle, validation set, predictor, path composition and Vivaldi it
//! derives are built once per world, on first use. Each has a binary of
//! the same name in `src/bin/` that builds the experiment world and
//! prints the table: `tab2_atlas`, `fig4_path_stationarity`,
//! `fig5_as_accuracy`, `fig6_latency_error`, `fig7_rank_closest`,
//! `fig8_loss_error`, `fig9_cdn`, `fig10_voip`, `fig11_detour`,
//! `scale_vps`, `loss_stationarity` and `abl_tuple_threshold`.
//! `run_all` runs every figure in one process, on one world (plus
//! `scale_vps`'s own). Tables go to stdout and progress to stderr; no
//! binary takes arguments.

pub mod eval;
pub mod figures;
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
