//! §6.1.2: does iNano's atlas stay tractable as end-host vantage points
//! are added?
//!
//! Paper: 845 DIMES agents added ~16K links and ~14K 3-tuples to a
//! 309K-link / 1.05M-tuple PlanetLab atlas; linear extrapolation to all
//! 100K edge prefixes gives ~2.2M links (8x) and 2.7M tuples (2.6x) —
//! an estimated +18MB atlas / +5MB daily update: still tractable.

use inano_bench::{refuse_args, Scenario, ScenarioConfig};
use inano_measure::{build_atlas, AtlasConfig};

struct Row {
    agents: usize,
    links: usize,
    tuples: usize,
    bytes: usize,
}

fn main() {
    refuse_args();
    let mut cfg = ScenarioConfig::experiment(42);
    cfg.n_agents = 160; // a larger agent pool to sweep over
    let sc = Scenario::build(cfg);
    eprintln!("scenario: {}", sc.summary());

    // Re-build the atlas with increasing numbers of agents contributing
    // FROM_SRC traceroutes (truncating the same measurement day keeps
    // everything else equal).
    let mut rows: Vec<Row> = Vec::new();
    for take in [0usize, 20, 40, 80, 160] {
        let mut day = sc.day0.clone();
        let cutoff: std::collections::HashSet<_> =
            sc.vps.agents.iter().take(take).copied().collect();
        day.agent_traceroutes.retain(|tr| cutoff.contains(&tr.src));
        let atlas = build_atlas(&sc.net, &sc.clustering, &day, &AtlasConfig::default());
        let (bytes, _) = inano_atlas::codec::encode(&atlas);
        rows.push(Row {
            agents: take,
            links: atlas.links.len(),
            tuples: atlas.tuples.len(),
            bytes: bytes.len(),
        });
    }

    let base = &rows[0];
    let last = rows.last().unwrap();
    let link_growth_per_agent = (last.links - base.links) as f64 / last.agents.max(1) as f64;
    let tuple_growth_per_agent = (last.tuples - base.tuples) as f64 / last.agents.max(1) as f64;
    // Extrapolate to an agent in every edge prefix.
    let n_prefixes = sc.net.edge_prefixes().count();
    let extrapolated_links = base.links as f64 + link_growth_per_agent * n_prefixes as f64;
    let extrapolated_tuples = base.tuples as f64 + tuple_growth_per_agent * n_prefixes as f64;

    let mut text = String::from("== §6.1.2: atlas growth with end-host vantage points ==\n");
    text.push_str(&format!(
        "{:>8} {:>10} {:>10} {:>12}\n",
        "agents", "links", "tuples", "atlas bytes"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:>8} {:>10} {:>10} {:>12}\n",
            r.agents, r.links, r.tuples, r.bytes
        ));
    }
    text.push_str(&format!(
        "\nlinear extrapolation to one agent in each of {n_prefixes} edge prefixes:\n\
         links: {:.0} ({:.1}x the VP-only atlas; paper: ~8x)\n\
         tuples: {:.0} ({:.1}x; paper: ~2.6x)\n",
        extrapolated_links,
        extrapolated_links / base.links as f64,
        extrapolated_tuples,
        extrapolated_tuples / base.tuples as f64,
    ));
    println!("{text}");
}
