//! Every figure on a `test`-scale world: each runs and returns its table
//! under its `==` header, and a figure prints the same table on an
//! `Eval` other figures have used (as in `run_all`) as on a fresh one.

use inano_bench::eval::Eval;
use inano_bench::figures::ALL;
use inano_bench::{Scenario, ScenarioConfig};

#[test]
fn every_figure_returns_its_table() {
    let sc = Scenario::build(ScenarioConfig::test(42));
    for (name, figure) in ALL {
        let text = figure(&Eval::new(&sc));
        let header = text.lines().next().unwrap_or_default();
        assert!(
            header.starts_with("== ") && header.ends_with(" =="),
            "{name} returned no header:\n{text}"
        );
        assert!(text.lines().count() > 2, "{name} returned no rows:\n{text}");
    }
}

#[test]
fn sharing_an_eval_changes_no_figure() {
    let sc = Scenario::build(ScenarioConfig::test(42));
    // `run_all` runs every figure but `scale_vps` on one `Eval`, in order.
    let figures = ALL.iter().filter(|(name, _)| *name != "scale_vps");
    let shared = Eval::new(&sc);
    let together: Vec<String> = figures.clone().map(|(_, f)| f(&shared)).collect();
    for ((name, figure), together) in figures.zip(together) {
        assert_eq!(together, figure(&Eval::new(&sc)), "{name}");
    }
}
