//! The paper's tables and figures, each a function of one built world
//! that returns the text table its bin prints. A bin builds the world its
//! figure runs on and prints one table ([`print()`]); the `run_all` bin
//! runs every figure in one process ([`run_all()`]), sharing one [`Eval`].

use crate::eval::{
    atlas_coverage_gap, inano_as_path, score_as_paths, train_vivaldi, validation_set, AsPathScore,
    Eval, ValidationPath,
};
use crate::report::{cdf_rows, pct};
use crate::{Scenario, ScenarioConfig};
use inano_apps::cdn::{CdnExperiment, ReplicaStrategy};
use inano_apps::detour::rank_detours;
use inano_apps::voip::{call_quality, pick_relay, RelayStrategy};
use inano_atlas::{atlas_stats, delta_stats, stats::render_table, AtlasDelta};
use inano_core::{PathPredictor, PredictorConfig};
use inano_measure::lossprobe::measure_path_loss;
use inano_measure::{build_atlas, AtlasConfig};
use inano_model::path::path_similarity;
use inano_model::rng::rng_for;
use inano_model::stats::{Ecdf, Histogram};
use inano_model::{ClusterPath, HostId, PrefixId};
use inano_paths::{Composer, PathAtlas, RouteScope};
use inano_routing::{FailureScenario, RoutingOracle};
use inano_topology::loss::LossProcess;
use inano_topology::Tier;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A figure: the text table its bin prints, computed from one world.
pub type Figure = fn(&Eval) -> String;

/// Every figure, by the name of its bin, in `run_all`'s order.
pub const ALL: [(&str, Figure); 12] = [
    ("tab2_atlas", tab2_atlas),
    ("scale_vps", scale_vps),
    ("fig4_path_stationarity", fig4_path_stationarity),
    ("loss_stationarity", loss_stationarity),
    ("fig5_as_accuracy", fig5_as_accuracy),
    ("fig6_latency_error", fig6_latency_error),
    ("fig7_rank_closest", fig7_rank_closest),
    ("fig8_loss_error", fig8_loss_error),
    ("fig9_cdn", fig9_cdn),
    ("fig10_voip", fig10_voip),
    ("fig11_detour", fig11_detour),
    ("abl_tuple_threshold", abl_tuple_threshold),
];

/// Build the world the named figure runs on and name it on stderr: the
/// experiment world at seed 42, except that `scale_vps` sweeps a larger
/// agent pool (160) over its own.
fn world(name: &str) -> Scenario {
    let mut cfg = ScenarioConfig::experiment(42);
    if name == "scale_vps" {
        cfg.n_agents = 160;
    }
    let sc = Scenario::build(cfg);
    eprintln!("scenario: {}", sc.summary());
    sc
}

/// A figure bin's `main`: build the named figure's world and print its
/// table.
pub fn print(name: &str) {
    let (_, figure) = ALL.iter().find(|(n, _)| *n == name).expect("a figure");
    println!("{}", figure(&Eval::new(&world(name))));
}

/// `run_all`: print every figure's table, in order, each under a
/// `########` line. Every figure but `scale_vps` runs on one shared
/// experiment world, built by the first figure that needs it, so that a
/// world that fails to build fails each figure in turn. A figure that
/// panics prints no table; the others still run. Returns the names of
/// the figures that panicked.
pub fn run_all() -> Vec<&'static str> {
    let shared = OnceCell::new();
    let ev = OnceCell::new();
    let mut failed = Vec::new();
    for (name, figure) in ALL {
        println!("\n######## {name} ########");
        let run = || match name {
            "scale_vps" => figure(&Eval::new(&world(name))),
            _ => figure(ev.get_or_init(|| Eval::new(shared.get_or_init(|| world(name))))),
        };
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(text) => println!("{text}"),
            Err(_) => {
                eprintln!("{name} panicked");
                failed.push(name);
            }
        }
    }
    failed
}

/// Table 2: size of iNano's atlas — entries and encoded bytes per
/// dataset, plus the delta to the next day's atlas.
///
/// Paper (absolute numbers at their 140K-prefix scale): 309K links /
/// 1.99MB, 47K loss / 0.21MB, 140K prefix→cluster / 0.76MB, 287K
/// prefix→AS / 1.67MB, 28K degrees / 0.09MB, 1.05M tuples / 1.23MB, 9K
/// prefs / 0.03MB, 33K providers / 0.63MB; total 6.61MB, delta 1.34MB.
/// Our topology is smaller, so the *ratios* are the comparison target.
pub fn tab2_atlas(ev: &Eval) -> String {
    let sc = ev.sc;
    // Next day's atlas for the delta column.
    let delta = AtlasDelta::between(&sc.atlas, &ev.day1().1);

    let mut stats = atlas_stats(&sc.atlas);
    delta_stats(&mut stats, &delta);

    let mut text = String::from("== Table 2: size of iNano's atlas ==\n");
    text.push_str(&render_table(&stats));

    let (full_bytes, _) = inano_atlas::codec::encode(&sc.atlas);
    let (delta_bytes, _) = delta.encode();
    text.push_str(&format!(
        "\nfull atlas: {:.2} KB; daily delta: {:.2} KB ({:.0}% of full; paper: ~20%)\n",
        full_bytes.len() as f64 / 1e3,
        delta_bytes.len() as f64 / 1e3,
        100.0 * delta_bytes.len() as f64 / full_bytes.len() as f64,
    ));

    // The headline comparison: link atlas vs iPlane-style path atlas.
    let (path_entries, path_bytes) = ev.path_atlas().storage_size();
    text.push_str(&format!(
        "iPlane-style path atlas from the same measurements: {} hop entries, {:.2} KB \
         ({:.1}x the link atlas; paper: ~2-3 orders of magnitude at full scale)\n",
        path_entries,
        path_bytes as f64 / 1e3,
        path_bytes as f64 / full_bytes.len() as f64,
    ));
    text
}

/// §6.1.2: does iNano's atlas stay tractable as end-host vantage points
/// are added?
///
/// Paper: 845 DIMES agents added ~16K links and ~14K 3-tuples to a
/// 309K-link / 1.05M-tuple PlanetLab atlas; linear extrapolation to all
/// 100K edge prefixes gives ~2.2M links (8x) and 2.7M tuples (2.6x) —
/// an estimated +18MB atlas / +5MB daily update: still tractable.
pub fn scale_vps(ev: &Eval) -> String {
    struct Row {
        agents: usize,
        links: usize,
        tuples: usize,
        bytes: usize,
    }
    let sc = ev.sc;
    // Re-build the atlas with increasing numbers of agents contributing
    // FROM_SRC traceroutes (truncating the same measurement day keeps
    // everything else equal).
    let mut rows: Vec<Row> = Vec::new();
    for take in [0usize, 20, 40, 80, 160] {
        let mut day = sc.day0.clone();
        let cutoff: HashSet<_> = sc.vps.agents.iter().take(take).copied().collect();
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
    text
}

/// Figure 4: similarity of PoP-level paths across consecutive days.
///
/// Paper: comparing each (vantage point, destination) path on day d with
/// the same path on day d+1, 91% of paths have similarity ≥ 0.75, 68%
/// ≥ 0.9, and 50% are identical (similarity = |∩| / |∪| over the sets of
/// clusters, 0.05-wide bins).
pub fn fig4_path_stationarity(ev: &Eval) -> String {
    let sc = ev.sc;
    let pa1 = PathAtlas::build(&sc.net, &sc.clustering, &ev.day1().0);

    // Match (src host, dst prefix) pairs present on both days.
    let mut day1_paths: HashMap<(HostId, PrefixId), &Vec<_>> = HashMap::new();
    for p in &pa1.paths {
        day1_paths.insert((p.src, p.dst_prefix), &p.clusters);
    }

    let mut hist = Histogram::new(0.0, 1.0, 20);
    let mut ge075 = 0u64;
    let mut ge09 = 0u64;
    let mut ident = 0u64;
    let mut pairs = 0u64;
    for p in &ev.path_atlas().paths {
        let Some(other) = day1_paths.get(&(p.src, p.dst_prefix)) else {
            continue;
        };
        let a = ClusterPath::new(p.clusters.clone());
        let b = ClusterPath::new((*other).clone());
        let s = path_similarity(&a, &b);
        hist.add(s);
        pairs += 1;
        if s >= 0.75 {
            ge075 += 1;
        }
        if s >= 0.9 {
            ge09 += 1;
        }
        if (s - 1.0).abs() < 1e-12 {
            ident += 1;
        }
    }

    let frac = |n: u64| n as f64 / pairs.max(1) as f64;

    let mut text = String::from("== Figure 4: PoP-level path similarity across days ==\n");
    text.push_str(&format!("paths compared: {pairs}\n"));
    text.push_str(&format!(
        "similarity >= 0.75: {:.1}%   (paper: 91%)\n",
        frac(ge075) * 100.0
    ));
    text.push_str(&format!(
        "similarity >= 0.90: {:.1}%   (paper: 68%)\n",
        frac(ge09) * 100.0
    ));
    text.push_str(&format!(
        "identical:          {:.1}%   (paper: 50%)\n",
        frac(ident) * 100.0
    ));
    text.push_str("\nhistogram (bin lower edge, fraction):\n");
    for (edge, f) in &hist.fractions() {
        if *f > 0.0005 {
            text.push_str(&format!("  {edge:.2}  {:.3}\n", f));
        }
    }
    text
}

/// §6.2.2: stationarity of packet loss. Paper: probing paths from 201
/// nodes to 5000 prefixes with 100 ICMP probes, 66% of lossy paths were
/// still lossy 6 hours later; 53% after 12 hours; steady at 53% after
/// 24 hours.
pub fn loss_stationarity(ev: &Eval) -> String {
    let sc = ev.sc;
    let mut rng = rng_for(sc.cfg.seed, "loss-stationarity");

    // Simulate 5 six-hour epochs of the loss process (0h..24h).
    let process = LossProcess::simulate(&sc.net, 5);

    // Probe pairs: VPs to random prefixes.
    let probers: Vec<HostId> = sc.vps.infra.clone();
    let mut dests: Vec<PrefixId> = sc.net.edge_prefixes().map(|p| p.id).collect();
    dests.shuffle(&mut rng);
    dests.truncate(60);

    // Measure at epoch 0; re-measure at 6h (epoch 1), 12h (2), 24h (4).
    let mut lossy_at_t0: Vec<(HostId, PrefixId)> = Vec::new();
    {
        let mut net0 = sc.net.clone();
        process.apply_epoch(&mut net0, 0);
        let oracle = RoutingOracle::new(&net0, sc.churn.day_state(0));
        for &src in &probers {
            for &d in &dests {
                if let Some(l) = measure_path_loss(&oracle, src, d, 100, &mut rng) {
                    if l.is_lossy() {
                        lossy_at_t0.push((src, d));
                    }
                }
            }
        }
    }
    eprintln!("lossy paths at t0: {}", lossy_at_t0.len());

    let mut text = String::from("== §6.2.2: loss stationarity ==\n");
    text.push_str(&format!("lossy paths at t0: {}\n\n", lossy_at_t0.len()));
    text.push_str(&format!(
        "{:>7} {:>14} {:>10}\n",
        "hours", "still lossy", "paper"
    ));
    for (hours, epoch, paper) in [(6u32, 1usize, "66%"), (12, 2, "53%"), (24, 4, "53%")] {
        let mut net = sc.net.clone();
        process.apply_epoch(&mut net, epoch);
        let oracle = RoutingOracle::new(&net, sc.churn.day_state(0));
        let mut still = 0usize;
        for &(src, d) in &lossy_at_t0 {
            if let Some(l) = measure_path_loss(&oracle, src, d, 100, &mut rng) {
                if l.is_lossy() {
                    still += 1;
                }
            }
        }
        let frac = still as f64 / lossy_at_t0.len().max(1) as f64;
        text.push_str(&format!(
            "{hours:>7} {:>13.1}% {:>10}\n",
            frac * 100.0,
            paper
        ));
    }
    text
}

/// Figure 5: AS-path prediction accuracy as each iNano component is
/// added to GRAPH, vs RouteScope and iPlane-style path composition.
///
/// Paper numbers (for shape comparison): RouteScope < GRAPH (31%) →
/// +asym → +tuples → +prefs → +providers (70%) ≈ path composition (70%)
/// < improved composition (81%); iNano also beats the baselines on AS
/// path *length* accuracy. §6.3.1 additionally reports that 7% of
/// validation paths have a link missing from the atlas.
pub fn fig5_as_accuracy(ev: &Eval) -> String {
    let (sc, paths) = (ev.sc, ev.paths());
    let mut rows: Vec<(&str, AsPathScore)> = Vec::new();

    let routescope = RouteScope::new(&sc.atlas);
    let mut rng = rng_for(sc.cfg.seed, "routescope");
    let score = score_as_paths(paths, |p| {
        let src_as = sc.net.host(p.src_host).asn;
        routescope.predict(src_as, sc.net.prefix(p.dst_prefix).origin, &mut rng)
    });
    rows.push(("RouteScope", score));

    for (name, cfg) in PredictorConfig::ladder() {
        let predictor = PathPredictor::new(Arc::clone(ev.atlas()), cfg);
        rows.push((
            name,
            score_as_paths(paths, |p| inano_as_path(&predictor, p)),
        ));
    }

    let comp = ev.composer();
    let score = score_as_paths(paths, |p| {
        let c = comp.forward(p.src_prefix, p.dst_prefix).ok()?;
        Some(comp.as_path_of(&c, p.dst_prefix))
    });
    rows.push(("path composition", score));
    let score = score_as_paths(paths, |p| {
        let c = comp.improved_forward(p.src_prefix, p.dst_prefix).ok()?;
        Some(comp.as_path_of(&c, p.dst_prefix))
    });
    rows.push(("improved composition", score));

    let mut text = String::from("== Figure 5: AS path prediction accuracy ==\n");
    text.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "model", "exact path", "exact length", "predicted"
    ));
    for (model, r) in &rows {
        text.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>9}/{}\n",
            model,
            pct(r.exact),
            pct(r.length),
            r.predicted,
            paths.len()
        ));
    }
    text.push_str(&format!(
        "\natlas coverage gap (paths with a missing link): {} (paper: 7%)\n",
        pct(atlas_coverage_gap(sc, paths))
    ));
    text
}

/// An estimate of one property of a validation pair, if the method has
/// one.
type Estimate<'e> = Box<dyn Fn(&ValidationPath) -> Option<f64> + 'e>;

/// The RTT estimators Figures 6 and 7 compare, in their print order.
fn rtt_estimators<'e>(ev: &'e Eval, comp: &'e Composer) -> [(&'static str, Estimate<'e>); 3] {
    [
        ("iNano", Box::new(|p| Some(ev.inano(p)?.rtt.ms()))),
        ("Vivaldi", Box::new(|p| ev.vivaldi_rtt(p))),
        (
            "path composition",
            Box::new(|p| Some(comp.rtt(p.src_prefix, p.dst_prefix).ok()?.ms())),
        ),
    ]
}

/// Absolute errors of `estimate` against `truth` over the validation
/// pairs it estimates.
fn errors(ev: &Eval, truth: fn(&ValidationPath) -> f64, estimate: Estimate) -> Ecdf {
    let paths = ev.paths().iter();
    Ecdf::new(
        paths
            .filter_map(|p| Some((estimate(p)? - truth(p)).abs()))
            .collect(),
    )
}

/// Figure 6: accuracy of latency (RTT) estimates to arbitrary
/// destinations — iNano vs Vivaldi vs iPlane path composition.
///
/// Paper: median error 6ms (composition) < 11ms (iNano) < 20ms
/// (Vivaldi); the order *reverses* in the tail, where Vivaldi's bounded
/// coordinates beat both structural estimators whose mispredictions can
/// be arbitrarily wrong.
pub fn fig6_latency_error(ev: &Eval) -> String {
    let comp = ev.composer();
    let mut text = String::from("== Figure 6: RTT estimation error (ms) ==\n");
    let (mut medians, mut p90) = (String::new(), String::new());
    for (name, estimate) in rtt_estimators(ev, &comp) {
        let e = errors(ev, |p| p.true_rtt.ms(), estimate);
        if e.is_empty() {
            text.push_str(&format!("{name}: no samples\n"));
            continue;
        }
        text.push_str(&cdf_rows(name, &e));
        medians.push_str(&format!("  {name:<18} {:.1} ms\n", e.median()));
        p90.push_str(&format!("  {name:<18} {:.1} ms\n", e.quantile(0.9)));
    }
    text.push_str("\nmedians (paper: composition 6ms < iNano 11ms < Vivaldi 20ms):\n");
    text.push_str(&medians);
    text.push_str("p90 (paper: order reverses in the tail):\n");
    text.push_str(&p90);
    text
}

/// Figure 7: predicting the 10 closest destinations (by actual RTT) out
/// of each source's 100 validation destinations. The metric is the size
/// of the intersection between the predicted and actual top-10 sets.
/// Paper: iNano ≈ path composition ≫ Vivaldi.
pub fn fig7_rank_closest(ev: &Eval) -> String {
    const TOP_N: usize = 10;
    /// The destinations of the `TOP_N` lowest scores (ties keep order).
    fn top<'p>(scored: impl Iterator<Item = (&'p ValidationPath, f64)>) -> HashSet<PrefixId> {
        let mut v: Vec<_> = scored.collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.iter().take(TOP_N).map(|(p, _)| p.dst_prefix).collect()
    }

    let mut by_src: HashMap<HostId, Vec<&ValidationPath>> = HashMap::new();
    for p in ev.paths() {
        by_src.entry(p.src_host).or_default().push(p);
    }
    // Each source with enough candidates for a meaningful top-10, and
    // its actual top 10.
    let sources: Vec<_> = by_src
        .values()
        .filter(|ps| ps.len() >= TOP_N * 2)
        .map(|ps| (ps, top(ps.iter().map(|p| (*p, p.true_rtt.ms())))))
        .collect();

    let comp = ev.composer();
    let mut text =
        String::from("== Figure 7: overlap of predicted vs actual 10 closest (of ~100) ==\n");
    for (name, estimate) in rtt_estimators(ev, &comp) {
        let overlaps = sources.iter().map(|(ps, actual)| {
            let predicted = top(ps.iter().filter_map(|p| Some((*p, estimate(p)?))));
            predicted.intersection(actual).count() as f64
        });
        let e = Ecdf::new(overlaps.collect());
        if e.is_empty() {
            continue;
        }
        text.push_str(&format!(
            "{name:<18} mean {:.2} / 10, median {:.0}, p10 {:.0}\n",
            e.mean(),
            e.median(),
            e.quantile(0.1)
        ));
    }
    text.push_str("(paper: iNano ≈ path-based ≫ Vivaldi)\n");
    text
}

/// Figure 8: accuracy of loss-rate estimates to arbitrary destinations —
/// iNano vs path composition (coordinate systems can't predict loss at
/// all, §6.3.2). Paper: iNano approximates the path-based estimates with
/// a much smaller atlas; both within 10% absolute error for >80% of
/// paths.
pub fn fig8_loss_error(ev: &Eval) -> String {
    let comp = ev.composer();
    let series: [(&str, Estimate); 2] = [
        ("iNano", Box::new(|p| Some(ev.inano(p)?.loss.rate()))),
        (
            "path composition",
            Box::new(|p| Some(comp.loss(p.src_prefix, p.dst_prefix).ok()?.rate())),
        ),
    ];
    let mut text = String::from("== Figure 8: loss-rate estimation error (absolute) ==\n");
    for (name, estimate) in series {
        let e = errors(ev, |p| p.true_loss.rate(), estimate);
        if e.is_empty() {
            continue;
        }
        text.push_str(&cdf_rows(name, &e));
        let w = e.fraction_at_most(0.10);
        text.push_str(&format!(
            "{name}: error <= 0.10 for {:.1}% of paths (paper: >80%)\n",
            w * 100.0
        ));
    }
    text
}

/// Figure 9: peer-to-peer CDN replica selection, 30KB and 1.5MB files.
///
/// Paper setup: 199 clients, 5 random replicas each, strategies
/// {measured latency, Vivaldi, OASIS, iNano, random} vs the optimal
/// choice. Headline: iNano is near-optimal at the median for both sizes;
/// for 1.5MB its loss-awareness beats even measured latencies; Vivaldi
/// and OASIS trail.
pub fn fig9_cdn(ev: &Eval) -> String {
    let sc = ev.sc;
    let mut rng = rng_for(sc.cfg.seed, "fig9");

    // Clients: end-host agents (their links are in FROM_SRC). Replicas:
    // hosts in transit-tier prefixes (well-connected, Akamai-like).
    let clients: Vec<HostId> = sc.vps.agents.iter().take(100).copied().collect();
    let mut replicas: Vec<HostId> = sc
        .net
        .hosts
        .iter()
        .filter(|h| {
            matches!(sc.net.as_info(h.asn).tier, Tier::Tier2 | Tier::Tier3)
                && !clients.contains(&h.id)
        })
        .map(|h| h.id)
        .collect();
    replicas.shuffle(&mut rng);
    replicas.truncate(60);
    eprintln!("{} clients, {} replicas", clients.len(), replicas.len());

    // Candidate sets: 5 random replicas per client (as in the paper).
    let candidate_sets: Vec<Vec<HostId>> = clients
        .iter()
        .map(|_| {
            let mut r = replicas.clone();
            r.shuffle(&mut rng);
            r.truncate(5);
            r
        })
        .collect();

    // Vivaldi over clients + replicas.
    let mut population: Vec<HostId> = clients.iter().chain(replicas.iter()).copied().collect();
    population.sort();
    population.dedup();
    let (vivaldi, vidx) = train_vivaldi(sc, ev.oracle(), &population, 80);

    let mut text = String::from("== Figure 9: CDN replica selection ==\n");
    for (label, bytes) in [("(a) 30KB", 30_000.0), ("(b) 1.5MB", 1_500_000.0)] {
        let exp = CdnExperiment {
            oracle: ev.oracle(),
            predictor: ev.predictor(),
            vivaldi: &vivaldi,
            vivaldi_index: &vidx,
            file_bytes: bytes,
        };
        text.push_str(&format!("\n-- {label} --\n"));
        text.push_str(&format!(
            "{:<12} {:>12} {:>12}\n",
            "strategy", "median (s)", "p90 (s)"
        ));
        for strategy in ReplicaStrategy::all() {
            let mut times = Vec::new();
            for (ci, &client) in clients.iter().enumerate() {
                let cands = &candidate_sets[ci];
                let Some(r) = exp.pick(strategy, client, cands, &mut rng) else {
                    continue;
                };
                if let Some(t) = exp.download_time(client, r) {
                    times.push(t);
                }
            }
            if times.is_empty() {
                continue;
            }
            let e = Ecdf::new(times);
            text.push_str(&format!(
                "{:<12} {:>12.3} {:>12.3}\n",
                strategy.name(),
                e.median(),
                e.quantile(0.9)
            ));
        }
    }
    text.push_str(
        "\n(paper: iNano near-optimal medians; for 1.5MB, loss-aware iNano beats measured \
         latency; Vivaldi/OASIS trail)\n",
    );
    text
}

/// Figure 10: VoIP relay selection. Paper setup: 119 hosts, 1200 random
/// (src, dst) pairs, every other host a candidate relay; iNano picks the
/// 10 lowest-predicted-loss relays then the lowest-latency among them.
/// Headline: paths via iNano-chosen relays see far less loss than
/// closest-to-src / closest-to-dst / random.
pub fn fig10_voip(ev: &Eval) -> String {
    let (oracle, predictor) = (ev.oracle(), ev.predictor());
    let mut rng = rng_for(ev.sc.cfg.seed, "fig10");

    // 119 end-hosts as in the paper (agents: they have FROM_SRC links).
    let hosts: Vec<HostId> = ev.sc.vps.agents.iter().take(119).copied().collect();
    let n_calls = 400; // paper used 1200 over 119 hosts; scaled down

    let mut pairs = Vec::with_capacity(n_calls);
    while pairs.len() < n_calls {
        let a = hosts[rng.gen_range(0..hosts.len())];
        let b = hosts[rng.gen_range(0..hosts.len())];
        if a != b {
            pairs.push((a, b));
        }
    }

    let mut text = String::from("== Figure 10: VoIP relay selection ==\n");
    text.push_str(&format!(
        "{:<16} {:>12} {:>10} {:>10} {:>9}\n",
        "strategy", "median loss", "p90 loss", "% lossy", "mean MOS"
    ));
    for strategy in RelayStrategy::all() {
        let mut losses = Vec::new();
        let mut moss = Vec::new();
        for &(src, dst) in &pairs {
            // Candidate relays: all hosts except the endpoints (paper);
            // sample 40 for speed.
            let mut cands: Vec<HostId> = hosts
                .iter()
                .copied()
                .filter(|&h| h != src && h != dst)
                .collect();
            cands.shuffle(&mut rng);
            cands.truncate(40);
            let Some(relay) = pick_relay(strategy, oracle, predictor, src, dst, &cands, &mut rng)
            else {
                continue;
            };
            if let Some(call) = call_quality(oracle, src, relay, dst) {
                losses.push(call.loss.rate());
                moss.push(call.mos);
            }
        }
        if losses.is_empty() {
            continue;
        }
        let e = Ecdf::new(losses);
        let mos_mean = moss.iter().sum::<f64>() / moss.len() as f64;
        text.push_str(&format!(
            "{:<16} {:>11.2}% {:>9.2}% {:>9.1}% {:>9.2}\n",
            strategy.name(),
            e.median() * 100.0,
            e.quantile(0.9) * 100.0,
            e.fraction_at_least(0.001) * 100.0,
            mos_mean
        ));
    }
    text.push_str("\n(paper: relays chosen by iNano see significantly less packet loss)\n");
    text
}

/// Figure 11: routing around failures with iNano-ranked detours vs
/// random detours (SOSR \[20\]).
///
/// Paper setup: failure episodes where ≥10% of sources simultaneously
/// cannot reach a destination but ≥10% can; a source recovers if one of
/// its first N detours has working src→detour and detour→dst paths.
/// Headline: for the same N, iNano-ranked detours roughly halve the
/// unreachable fraction (5 detours: 2% vs 4%).
pub fn fig11_detour(ev: &Eval) -> String {
    const MAX_DETOURS: usize = 8;
    let sc = ev.sc;
    let mut rng = rng_for(sc.cfg.seed, "fig11");

    // 35 sources (paper) among the agents; detour candidates are the
    // other sources.
    let sources: Vec<HostId> = sc.vps.agents.iter().take(35).copied().collect();
    let src_prefix: Vec<PrefixId> = sources.iter().map(|&h| sc.net.host(h).prefix).collect();

    // Build failure episodes: take a destination, fail a transit PoP on
    // the true path from a random source; keep episodes that split the
    // source population 10/90.
    let all_dests: Vec<PrefixId> = sc.net.edge_prefixes().map(|p| p.id).collect();
    let mut episodes = 0usize;
    let mut victim_cases = 0usize;
    // fail_counts[strategy][n-1] = victims still unreachable with n detours.
    let mut fail_inano = [0usize; MAX_DETOURS];
    let mut fail_random = [0usize; MAX_DETOURS];
    // Count a victim as failed for every detour budget below the rank
    // of its first working detour.
    let tally = |fails: &mut [usize; MAX_DETOURS], recovered_at: Option<usize>| {
        for (n, f) in fails.iter_mut().enumerate() {
            if recovered_at.is_none_or(|k| k > n) {
                *f += 1;
            }
        }
    };

    let mut attempts = 0;
    while episodes < 60 && attempts < 1200 {
        attempts += 1;
        let dst = all_dests[rng.gen_range(0..all_dests.len())];
        let probe_src = sources[rng.gen_range(0..sources.len())];
        let Some(path) = ev.oracle().host_to_prefix(probe_src, dst) else {
            continue;
        };
        let Some(scenario) = FailureScenario::transit_outage_on_path(&sc.net, &path.pops, &mut rng)
        else {
            continue;
        };
        let broken = RoutingOracle::with_failures(&sc.net, sc.churn.day_state(0), &scenario);
        let reachable: Vec<bool> = sources
            .iter()
            .map(|&s| broken.host_to_prefix(s, dst).is_some())
            .collect();
        let n_fail = reachable.iter().filter(|r| !**r).count();
        let n_ok = reachable.len() - n_fail;
        // Paper's episode filter: at least 10% fail AND at least 10% work.
        if n_fail * 10 < sources.len() || n_ok * 10 < sources.len() {
            continue;
        }
        episodes += 1;

        for (i, &src) in sources.iter().enumerate() {
            if reachable[i] {
                continue;
            }
            victim_cases += 1;
            // A detour through `relay` in `relay_pfx` works if both legs do.
            let works = |relay: HostId, relay_pfx: PrefixId| {
                broken.host_to_prefix(src, relay_pfx).is_some()
                    && broken.host_to_prefix(relay, dst).is_some()
            };
            // Candidate detours: the other sources.
            let candidates: Vec<PrefixId> = src_prefix
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &p)| p)
                .collect();
            let mut detour_hosts: Vec<HostId> = sources
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &h)| h)
                .collect();

            // iNano ranking (predictions are failure-unaware: the atlas
            // predates the outage, exactly as deployed).
            let ranked = rank_detours(ev.predictor(), src_prefix[i], dst, &candidates, MAX_DETOURS);
            let recovered_at = ranked.iter().position(|&d| {
                let pos = src_prefix.iter().position(|&p| p == d);
                pos.is_some_and(|pos| works(sources[pos], d))
            });
            tally(&mut fail_inano, recovered_at);

            // Random ranking.
            detour_hosts.shuffle(&mut rng);
            let recovered_at = detour_hosts
                .iter()
                .take(MAX_DETOURS)
                .position(|&relay| works(relay, sc.net.host(relay).prefix));
            tally(&mut fail_random, recovered_at);
        }
    }

    let mut text = String::from("== Figure 11: routing around failures ==\n");
    text.push_str(&format!(
        "episodes: {episodes}, unreachable (source, dst) cases: {victim_cases}\n\n"
    ));
    text.push_str(&format!(
        "{:>9} {:>18} {:>18}\n",
        "#detours", "iNano unreachable", "random unreachable"
    ));
    for n in 1..=MAX_DETOURS {
        let fi = fail_inano[n - 1] as f64 / victim_cases.max(1) as f64;
        let fr = fail_random[n - 1] as f64 / victim_cases.max(1) as f64;
        text.push_str(&format!(
            "{n:>9} {:>17.1}% {:>17.1}%\n",
            fi * 100.0,
            fr * 100.0
        ));
    }
    text.push_str("\n(paper: iNano halves the unreachable fraction; 5 detours: 2% vs 4%)\n");
    text
}

/// Ablation: the two magic numbers in iNano's empirical checks.
///
/// * the 3-tuple check's middle-AS degree threshold (5 in §4.3.2 — edge
///   ASes are exempt because "visibility into ASes at the edge is
///   limited");
/// * the preference dominance factor (3× in §4.3.3 — below it, a
///   preference pair is considered "wavering" load-balance noise and
///   dropped).
///
/// Sweeps both and reports exact-AS-path accuracy and the dataset sizes
/// they induce, justifying the defaults.
pub fn abl_tuple_threshold(ev: &Eval) -> String {
    let sc = ev.sc;
    let paths = validation_set(sc, ev.oracle(), 20, 60);
    eprintln!("validation set: {} paths", paths.len());

    let mut text = String::from("== Ablation: tuple degree threshold & preference dominance ==\n");

    // --- sweep the tuple degree threshold (atlas fixed) ---
    text.push_str("\ntuple_min_degree sweep (default 5; large = check no one):\n");
    for thr in [2u32, 5, 10, 25, 1000] {
        let mut cfg = PredictorConfig::full();
        cfg.tuple_min_degree = thr;
        let p = PathPredictor::new(Arc::clone(ev.atlas()), cfg);
        let acc = score_as_paths(&paths, |v| inano_as_path(&p, v)).exact;
        text.push_str(&format!("  threshold {thr:>5}: exact {}\n", pct(acc)));
    }

    // --- sweep the preference dominance factor (atlas rebuilt) ---
    text.push_str("\npref_dominance sweep (default 3x; low values admit wavering pairs):\n");
    for dom in [1.5f64, 3.0, 5.0, 10.0] {
        let acfg = AtlasConfig {
            pref_dominance: dom,
        };
        let atlas_d = Arc::new(build_atlas(&sc.net, &sc.clustering, &sc.day0, &acfg));
        let n_prefs = atlas_d.prefs.len();
        let p = PathPredictor::new(atlas_d, PredictorConfig::full());
        let acc = score_as_paths(&paths, |v| inano_as_path(&p, v)).exact;
        text.push_str(&format!(
            "  dominance {dom:>4}x: exact {} ({n_prefs} preferences kept)\n",
            pct(acc)
        ));
    }

    text.push_str(
        "\n(expected: accuracy peaks near the paper's defaults — checking low-degree \
         edges over-filters, admitting 1x preferences imports load-balancer noise)\n",
    );
    text
}
