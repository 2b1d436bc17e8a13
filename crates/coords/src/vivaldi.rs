//! Vivaldi: decentralized network coordinates (Dabek et al., SIGCOMM'04).
//!
//! Implementation notes:
//! * 2-D + height vectors, the configuration the paper found best for
//!   the wide area: heights absorb the access-link delay that Euclidean
//!   coordinates cannot express;
//! * adaptive timestep: each node tracks a confidence (`error`) and moves
//!   proportionally to its own uncertainty relative to its neighbor's —
//!   new nodes move fast, converged nodes barely drift;
//! * the simulation driver feeds RTT samples through a closure, so this
//!   crate stays independent of how RTTs are produced (the bench harness
//!   wires it to simulated pings over the routing oracle).

use inano_model::rng::DeterministicRng;
use inano_model::LatencyMs;
use rand::seq::SliceRandom;
use rand::Rng;

/// A Vivaldi coordinate: 2-D position plus non-negative height.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coordinate {
    pub x: f64,
    pub y: f64,
    pub height: f64,
    /// Relative confidence in `[0, 1]`-ish; lower is more certain.
    pub error: f64,
}

impl Coordinate {
    /// Predicted RTT between two coordinates: Euclidean part plus both
    /// heights (packets "descend" from one node and "climb" to the other).
    pub fn distance(&self, other: &Coordinate) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt() + self.height + other.height
    }
}

/// Error-moving-average constant (c_e, the Vivaldi paper's value).
const CE: f64 = 0.25;
/// Timestep constant (c_c, the Vivaldi paper's value).
const CC: f64 = 0.25;

/// How long and how widely the system trains.
#[derive(Clone, Debug)]
pub struct VivaldiConfig {
    /// Neighbors sampled per node.
    pub neighbors: usize,
    /// Update rounds (each round: every node pings every neighbor once).
    pub rounds: usize,
    pub seed: u64,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            neighbors: 16,
            rounds: 60,
            seed: 1,
        }
    }
}

/// A converged (or converging) Vivaldi system over `n` nodes.
#[derive(Clone, Debug)]
pub struct VivaldiSystem {
    coords: Vec<Coordinate>,
}

impl VivaldiSystem {
    /// Run Vivaldi over `n` nodes. `rtt(i, j)` returns a fresh RTT sample
    /// in ms between nodes `i` and `j`, or `None` if unreachable/lost.
    pub fn run<F>(n: usize, cfg: &VivaldiConfig, mut rtt: F) -> VivaldiSystem
    where
        F: FnMut(usize, usize, &mut DeterministicRng) -> Option<f64>,
    {
        let mut rng = inano_model::rng::rng_for(cfg.seed, "vivaldi");
        let mut coords: Vec<Coordinate> = (0..n)
            .map(|_| Coordinate {
                // Small random placement breaks symmetry.
                x: rng.gen_range(-1.0..1.0),
                y: rng.gen_range(-1.0..1.0),
                height: rng.gen_range(0.0..1.0),
                error: 1.0,
            })
            .collect();

        // Fixed random neighbor sets, as deployed Vivaldi does.
        let mut neighbor_sets: Vec<Vec<usize>> = Vec::with_capacity(n);
        let all: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let mut others: Vec<usize> = all.iter().copied().filter(|&j| j != i).collect();
            others.shuffle(&mut rng);
            others.truncate(cfg.neighbors);
            neighbor_sets.push(others);
        }

        for _round in 0..cfg.rounds {
            for (i, neighbors) in neighbor_sets.iter().enumerate() {
                for &j in neighbors {
                    let Some(sample) = rtt(i, j, &mut rng) else {
                        continue;
                    };
                    update(&mut coords, i, j, sample, &mut rng);
                }
            }
        }
        VivaldiSystem { coords }
    }

    /// Estimated RTT between nodes `i` and `j`.
    pub fn estimate(&self, i: usize, j: usize) -> LatencyMs {
        LatencyMs::new(self.coords[i].distance(&self.coords[j]))
    }

    pub fn coordinate(&self, i: usize) -> &Coordinate {
        &self.coords[i]
    }

    pub fn len(&self) -> usize {
        self.coords.len()
    }

    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }
}

/// One Vivaldi spring update of node `i` against neighbor `j`.
fn update(coords: &mut [Coordinate], i: usize, j: usize, rtt: f64, rng: &mut DeterministicRng) {
    let (ci, cj) = (coords[i], coords[j]);
    let dist = ci.distance(&cj);
    let rtt = rtt.max(0.01);

    // Confidence-weighted sample weight.
    let w = if ci.error + cj.error > 0.0 {
        ci.error / (ci.error + cj.error)
    } else {
        0.5
    };
    // Relative error of this sample; update our confidence.
    let es = (dist - rtt).abs() / rtt;
    let new_error = es * CE * w + ci.error * (1.0 - CE * w);

    // Unit vector from j toward i (random direction when colocated, so
    // coincident nodes can repel).
    let (mut ux, mut uy) = (ci.x - cj.x, ci.y - cj.y);
    let norm = (ux * ux + uy * uy).sqrt();
    if norm < 1e-9 {
        let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        ux = angle.cos();
        uy = angle.sin();
    } else {
        ux /= norm;
        uy /= norm;
    }

    let delta = CC * w;
    let force = delta * (rtt - dist);
    let c = &mut coords[i];
    c.x += force * ux;
    c.y += force * uy;
    // Height springs: positive heights only.
    c.height = (c.height + force * 0.1).max(0.0);
    c.error = new_error.clamp(0.0, 2.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth: nodes on a line, RTT = |i - j| * 10 ms + 4 ms access.
    fn line_rtt(i: usize, j: usize, _rng: &mut DeterministicRng) -> Option<f64> {
        Some((i as f64 - j as f64).abs() * 10.0 + 4.0)
    }

    #[test]
    fn converges_on_embeddable_metric() {
        let cfg = VivaldiConfig {
            neighbors: 15,
            rounds: 120,
            ..VivaldiConfig::default()
        };
        let sys = VivaldiSystem::run(16, &cfg, line_rtt);
        let mut rel_errs = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    continue;
                }
                let truth = line_rtt(i, j, &mut inano_model::rng::rng_for(0, "x")).unwrap();
                let est = sys.estimate(i, j).ms();
                rel_errs.push((est - truth).abs() / truth);
            }
        }
        rel_errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rel_errs[rel_errs.len() / 2];
        assert!(median < 0.25, "median relative error {median}");
    }

    #[test]
    fn estimates_are_symmetric() {
        let sys = VivaldiSystem::run(8, &VivaldiConfig::default(), line_rtt);
        for i in 0..8 {
            for j in 0..8 {
                assert!((sys.estimate(i, j).ms() - sys.estimate(j, i).ms()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_in_estimates() {
        // Coordinates are a metric space (modulo heights): estimates obey
        // the triangle inequality even when real RTTs violate it — the
        // structural weakness §8.1 calls out.
        let sys = VivaldiSystem::run(6, &VivaldiConfig::default(), line_rtt);
        for a in 0..6 {
            for b in 0..6 {
                for c in 0..6 {
                    let ab = sys.estimate(a, b).ms();
                    let ac = sys.estimate(a, c).ms();
                    let cb = sys.estimate(c, b).ms();
                    // Height terms add to both sides; allow their slack.
                    let slack = 2.0 * sys.coordinate(c).height + 1e-9;
                    assert!(ab <= ac + cb + slack);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = VivaldiSystem::run(10, &VivaldiConfig::default(), line_rtt);
        let b = VivaldiSystem::run(10, &VivaldiConfig::default(), line_rtt);
        for i in 0..10 {
            assert_eq!(a.coordinate(i).x, b.coordinate(i).x);
            assert_eq!(a.coordinate(i).height, b.coordinate(i).height);
        }
    }

    #[test]
    fn unreachable_samples_are_skipped() {
        let sys = VivaldiSystem::run(4, &VivaldiConfig::default(), |_, _, _| None);
        // No samples: coordinates stay near their tiny random init.
        for i in 0..4 {
            assert!(sys.coordinate(i).x.abs() < 1.5);
            assert_eq!(sys.coordinate(i).error, 1.0);
        }
    }

    #[test]
    fn heights_stay_non_negative() {
        let sys = VivaldiSystem::run(12, &VivaldiConfig::default(), line_rtt);
        for i in 0..12 {
            assert!(sys.coordinate(i).height >= 0.0);
        }
    }
}
