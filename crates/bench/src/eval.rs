//! Validation-set machinery (§6.3): held-out source/destination pairs
//! with their ground-truth paths and measured properties, and [`Eval`],
//! what the figures derive from one built world.
//!
//! Validation sources are end-host agents: their daily traceroutes are in
//! the atlas's `FROM_SRC` plane (as §6.3 does with "100 other randomly
//! chosen traceroutes from this source"), but the validation destinations
//! are disjoint from the destinations those atlas traceroutes probed, and
//! the `TO_DST` plane never saw these sources at all.

use crate::scenario::Scenario;
use inano_atlas::Atlas;
use inano_coords::VivaldiSystem;
use inano_core::{PathPredictor, PredictedPath, PredictorConfig};
use inano_measure::MeasurementDay;
use inano_model::rng::rng_for;
use inano_model::{AsPath, ClusterId, HostId, LatencyMs, LossRate, PrefixId};
use inano_paths::{Composer, PathAtlas};
use inano_routing::RoutingOracle;
use rand::seq::SliceRandom;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One validation pair with its ground truth.
#[derive(Clone, Debug)]
pub struct ValidationPath {
    pub src_host: HostId,
    pub src_prefix: PrefixId,
    pub dst_prefix: PrefixId,
    /// Ground-truth forward AS path.
    pub true_as_path: AsPath,
    /// Ground-truth forward cluster path (through the same clustering the
    /// predictor uses).
    pub true_clusters: Vec<ClusterId>,
    /// Ground-truth RTT (fwd + reverse).
    pub true_rtt: LatencyMs,
    /// Ground-truth round-trip loss.
    pub true_loss: LossRate,
}

/// Build the validation set: `n_sources` agent hosts × up to `per_source`
/// destination prefixes each (excluding destinations the agent already
/// probed for the atlas, unreachable destinations, and AS-loop paths, as
/// §6.3 discards them).
pub fn validation_set(
    sc: &Scenario,
    oracle: &RoutingOracle<'_>,
    n_sources: usize,
    per_source: usize,
) -> Vec<ValidationPath> {
    let net = &sc.net;
    let mut rng = rng_for(sc.cfg.seed, "validation-set");

    // Destinations each agent probed for the atlas (excluded from eval).
    let mut probed: HashSet<(HostId, PrefixId)> = HashSet::new();
    for tr in &sc.day0.agent_traceroutes {
        probed.insert((tr.src, tr.dst_prefix));
    }

    let mut sources: Vec<HostId> = sc.vps.agents.clone();
    sources.shuffle(&mut rng);
    sources.truncate(n_sources);

    let all_dests: Vec<PrefixId> = net.edge_prefixes().map(|p| p.id).collect();
    let mut out = Vec::new();
    for &src in &sources {
        let src_prefix = net.host(src).prefix;
        let mut dests = all_dests.clone();
        dests.shuffle(&mut rng);
        let mut taken = 0;
        for &d in &dests {
            if taken >= per_source {
                break;
            }
            if d == src_prefix || probed.contains(&(src, d)) {
                continue;
            }
            let Some(fwd) = oracle.host_to_prefix(src, d) else {
                continue; // unreachable: discarded like the paper does
            };
            if fwd.as_path.has_loop() {
                continue;
            }
            let dst_pop = *fwd.pops.last().unwrap();
            let Some(rev) = oracle.path_to_prefix(dst_pop, src_prefix) else {
                continue;
            };
            out.push(ValidationPath {
                src_host: src,
                src_prefix,
                dst_prefix: d,
                true_as_path: fwd.as_path.clone(),
                true_clusters: sc.clustering.pops_to_clusters(&fwd.pops),
                true_rtt: fwd.latency + rev.latency,
                true_loss: fwd.loss.compose(rev.loss),
            });
            taken += 1;
        }
    }
    out
}

/// Train a Vivaldi system over a host population using simulated pings
/// against the oracle. Returns the system plus the HostId → node-index
/// mapping.
pub fn train_vivaldi(
    sc: &Scenario,
    oracle: &RoutingOracle<'_>,
    hosts: &[HostId],
    rounds: usize,
) -> (VivaldiSystem, HashMap<HostId, usize>) {
    use inano_measure::ping::ping;
    use inano_measure::traceroute::ProbeNoise;
    let index: HashMap<HostId, usize> = hosts.iter().enumerate().map(|(i, &h)| (h, i)).collect();
    let cfg = inano_coords::VivaldiConfig {
        rounds,
        seed: sc.cfg.seed,
        ..inano_coords::VivaldiConfig::default()
    };
    let noise = ProbeNoise::default();
    let sys = VivaldiSystem::run(hosts.len(), &cfg, |i, j, rng| {
        ping(oracle, hosts[i], hosts[j], &noise, rng).map(|l| l.ms())
    });
    (sys, index)
}

/// Fraction of validation paths for which at least one ground-truth
/// inter-cluster link is missing from the atlas (§6.3.1 measured 7%,
/// bounding achievable accuracy).
pub fn atlas_coverage_gap(sc: &Scenario, paths: &[ValidationPath]) -> f64 {
    if paths.is_empty() {
        return 0.0;
    }
    let missing = paths
        .iter()
        .filter(|p| {
            p.true_clusters
                .windows(2)
                .any(|w| !sc.atlas.links.contains_key(&(w[0], w[1])))
        })
        .count();
    missing as f64 / paths.len() as f64
}

/// How often one AS-path predictor is right over a validation set
/// (Figure 5's columns). Both shares are of every path, predicted or not.
pub struct AsPathScore {
    /// Share of paths whose predicted AS path is the true one.
    pub exact: f64,
    /// Share of paths whose predicted AS path has the true length.
    pub length: f64,
    /// Paths the predictor gave any AS path for.
    pub predicted: usize,
}

/// Score `predict` (called once per path, in order) against each path's
/// true AS path.
pub fn score_as_paths(
    paths: &[ValidationPath],
    mut predict: impl FnMut(&ValidationPath) -> Option<AsPath>,
) -> AsPathScore {
    let (mut exact, mut length, mut predicted) = (0usize, 0usize, 0usize);
    for p in paths {
        let Some(as_path) = predict(p) else {
            continue;
        };
        predicted += 1;
        exact += usize::from(as_path == p.true_as_path);
        length += usize::from(as_path.len() == p.true_as_path.len());
    }
    let n = paths.len() as f64;
    AsPathScore {
        exact: exact as f64 / n,
        length: length as f64 / n,
        predicted,
    }
}

/// iNano's forward AS path for a validation pair.
pub fn inano_as_path(predictor: &PathPredictor, p: &ValidationPath) -> Option<AsPath> {
    let fwd = predictor.predict_forward(p.src_prefix, p.dst_prefix).ok()?;
    Some(predictor.as_path_of(&fwd, p.dst_prefix))
}

/// One built world and what the figures derive from it: the day-0
/// oracle, the (37, 100) validation set, the full-model predictor, the
/// day-0 path atlas behind path composition, day 1's measurements, and
/// Vivaldi over the validation endpoints. Each part is built on first
/// use, so a figure pays only for what it reads, and figures that share
/// an `Eval` build each part once. None of them keeps state an answer
/// depends on, so a figure prints the same table whichever figures ran
/// on the `Eval` before it (`tests/figures.rs` checks that).
pub struct Eval<'a> {
    pub sc: &'a Scenario,
    oracle: OnceCell<RoutingOracle<'a>>,
    atlas: OnceCell<Arc<Atlas>>,
    paths: OnceCell<Vec<ValidationPath>>,
    predictor: OnceCell<PathPredictor>,
    path_atlas: OnceCell<PathAtlas>,
    day1: OnceCell<(MeasurementDay, Atlas)>,
    vivaldi: OnceCell<Vivaldi>,
}

/// Vivaldi trained over every validation endpoint: each source host and
/// the first host of each destination prefix.
struct Vivaldi {
    sys: VivaldiSystem,
    index: HashMap<HostId, usize>,
    host_of: HashMap<PrefixId, HostId>,
}

impl<'a> Eval<'a> {
    pub fn new(sc: &'a Scenario) -> Self {
        Eval {
            sc,
            oracle: OnceCell::new(),
            atlas: OnceCell::new(),
            paths: OnceCell::new(),
            predictor: OnceCell::new(),
            path_atlas: OnceCell::new(),
            day1: OnceCell::new(),
            vivaldi: OnceCell::new(),
        }
    }

    /// Ground truth on day 0, the day the atlas measures.
    pub fn oracle(&self) -> &RoutingOracle<'a> {
        self.oracle.get_or_init(|| self.sc.oracle(0))
    }

    /// The day-0 atlas, shared by every predictor built over it.
    pub fn atlas(&self) -> &Arc<Atlas> {
        self.atlas.get_or_init(|| Arc::new(self.sc.atlas.clone()))
    }

    /// 37 sources × up to 100 destinations each.
    pub fn paths(&self) -> &[ValidationPath] {
        self.paths.get_or_init(|| {
            let paths = validation_set(self.sc, self.oracle(), 37, 100);
            eprintln!("validation set: {} paths", paths.len());
            paths
        })
    }

    /// iNano with every component on (`PredictorConfig::full`).
    pub fn predictor(&self) -> &PathPredictor {
        self.predictor
            .get_or_init(|| PathPredictor::new(Arc::clone(self.atlas()), PredictorConfig::full()))
    }

    /// iPlane's path atlas of day 0's measurements.
    pub fn path_atlas(&self) -> &PathAtlas {
        self.path_atlas
            .get_or_init(|| PathAtlas::build(&self.sc.net, &self.sc.clustering, &self.sc.day0))
    }

    /// Day 1's campaign and the atlas built from it.
    pub fn day1(&self) -> &(MeasurementDay, Atlas) {
        self.day1.get_or_init(|| self.sc.atlas_for_day(1))
    }

    /// iPlane's path composition, and its improved variant, over the
    /// day-0 path atlas.
    pub fn composer(&self) -> Composer<'_> {
        Composer::new(self.path_atlas(), &self.sc.atlas)
    }

    /// iNano's full-model prediction for a validation pair.
    pub fn inano(&self, p: &ValidationPath) -> Option<PredictedPath> {
        self.predictor().predict(p.src_prefix, p.dst_prefix).ok()
    }

    /// Vivaldi's RTT estimate (ms) for a validation pair; trains Vivaldi
    /// on first use.
    pub fn vivaldi_rtt(&self, p: &ValidationPath) -> Option<f64> {
        let v = self.vivaldi.get_or_init(|| {
            let mut host_of = HashMap::new();
            for h in &self.sc.net.hosts {
                host_of.entry(h.prefix).or_insert(h.id);
            }
            let paths = self.paths();
            let mut hosts: Vec<HostId> = paths.iter().map(|p| p.src_host).collect();
            hosts.extend(paths.iter().filter_map(|p| host_of.get(&p.dst_prefix)));
            hosts.sort();
            hosts.dedup();
            eprintln!("training Vivaldi over {} hosts", hosts.len());
            let (sys, index) = train_vivaldi(self.sc, self.oracle(), &hosts, 80);
            Vivaldi {
                sys,
                index,
                host_of,
            }
        });
        let dst_host = v.host_of.get(&p.dst_prefix)?;
        Some(v.sys.estimate(v.index[&p.src_host], v.index[dst_host]).ms())
    }
}
