//! Ground-truth routing policies beyond the textbook model.
//!
//! These are the §4.3 "sources of prediction error" — the behaviours that
//! make `GRAPH` mispredict on the real Internet and that iNano's
//! refinements (3-tuples, preferences, provider sets) recover from
//! observations:
//!
//! * **local-pref overrides** — an AS ranks a specific neighbor out of its
//!   relationship class (e.g. prefers a peer over a customer);
//! * **selective export filters** — an AS declines to export routes
//!   learned from neighbor A to neighbor C even where the Gao rule allows;
//! * **traffic engineering** — a multi-homed AS announces its own prefixes
//!   to only a subset of its providers (possibly per-prefix), so its
//!   *providers* set (as destination) is a proper subset of its *upstream
//!   neighbours* (as transit);
//! * **late exit** — pairs of ASes (always siblings) that carry traffic on
//!   their own backbone as far as possible;
//! * **stable tie-break rankings** — most ASes break ties among
//!   equal-preference, equal-length routes with a fixed neighbor ranking
//!   (learnable as "AS preferences"), while *load-balancer* ASes waver
//!   per-destination (unlearnable, and filtered out by iNano's 3×
//!   dominance rule).

use crate::config::TopologyConfig;
use crate::internet::{AsInfo, PrefixInfo, Tier};
use inano_model::rng::DeterministicRng;
use inano_model::{Asn, PrefixId, Relationship};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// The full ground-truth policy state of the generated Internet.
#[derive(Clone, Debug, Default)]
pub struct PolicySet {
    /// (as, neighbor) → overridden preference class (lower = preferred).
    pub localpref_override: HashMap<(Asn, Asn), u8>,
    /// (learned_from, via, export_to): `via` filters these routes.
    pub export_deny: HashSet<(Asn, Asn, Asn)>,
    /// AS → providers that hear its own-prefix announcements (absent ⇒ all).
    pub te_providers: HashMap<Asn, Vec<Asn>>,
    /// Per-prefix refinement of `te_providers`.
    pub te_prefix_providers: HashMap<PrefixId, Vec<Asn>>,
    /// Ordered pairs (a, b): traffic a→b uses late exit inside `a`.
    pub late_exit: HashSet<(Asn, Asn)>,
    /// ASes whose tie-break is destination-dependent.
    pub load_balancers: HashSet<Asn>,
    /// Stable per-AS neighbor ranking for tie-breaks (lower = preferred).
    pub neighbor_rank: HashMap<Asn, HashMap<Asn, u32>>,
}

impl PolicySet {
    /// Effective preference class of `asn` for routes via `neighbor`.
    pub fn pref_class(&self, asn: Asn, neighbor: Asn, rel: Relationship) -> u8 {
        self.localpref_override
            .get(&(asn, neighbor))
            .copied()
            .unwrap_or_else(|| rel.pref_class())
    }

    /// May `via` export a route learned from `from` to `to`? Combines the
    /// Gao rule with the selective filters.
    pub fn may_export(
        &self,
        from: Asn,
        via: Asn,
        to: Asn,
        rel_to_from: Relationship,
        rel_to_to: Relationship,
    ) -> bool {
        Relationship::may_export(rel_to_from, rel_to_to)
            && !self.export_deny.contains(&(from, via, to))
    }

    /// Does origin AS `origin` announce `prefix` to provider `prov`?
    pub fn announces_to_provider(&self, origin: Asn, prefix: PrefixId, prov: Asn) -> bool {
        if let Some(set) = self.te_prefix_providers.get(&prefix) {
            return set.contains(&prov);
        }
        if let Some(set) = self.te_providers.get(&origin) {
            return set.contains(&prov);
        }
        true
    }

    /// Tie-break rank of `neighbor` at `asn` for destination key `dest`.
    /// Lower ranks win. Load balancers hash the destination in; everyone
    /// else uses their stable ranking (with `day_salt` allowing churn to
    /// reshuffle a given AS's ranking on some days).
    pub fn tie_rank(&self, asn: Asn, neighbor: Asn, dest: u64, day_salt: u64) -> u64 {
        let base = self
            .neighbor_rank
            .get(&asn)
            .and_then(|m| m.get(&neighbor))
            .copied()
            .unwrap_or(u32::MAX) as u64;
        if self.load_balancers.contains(&asn) {
            // Wavering: depends on the destination.
            splitmix(asn.raw() as u64 ^ neighbor.raw() as u64 ^ dest.wrapping_mul(0x9e37))
        } else if day_salt != 0 {
            splitmix(base ^ day_salt ^ (asn.raw() as u64) << 32 ^ neighbor.raw() as u64)
        } else {
            base
        }
    }

    /// True when traffic from `a` into `b` uses late exit.
    pub fn uses_late_exit(&self, a: Asn, b: Asn) -> bool {
        self.late_exit.contains(&(a, b))
    }
}

fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generate the policy set for a finished AS graph + prefix table.
pub fn generate_policies(
    cfg: &TopologyConfig,
    ases: &[AsInfo],
    prefixes: &[PrefixInfo],
    rng: &mut DeterministicRng,
) -> PolicySet {
    let mut ps = PolicySet::default();

    // --- stable neighbor rankings (every AS) ---
    for a in ases {
        let mut order: Vec<Asn> = a.neighbors.iter().map(|(n, _)| *n).collect();
        order.shuffle(rng);
        let ranks: HashMap<Asn, u32> = order
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, i as u32))
            .collect();
        ps.neighbor_rank.insert(a.asn, ranks);
    }

    // --- load balancers (mostly transit ASes) ---
    for a in ases {
        let p = match a.tier {
            Tier::Stub => cfg.p_load_balancer * 0.3,
            _ => cfg.p_load_balancer,
        };
        if rng.gen_bool(p) {
            ps.load_balancers.insert(a.asn);
        }
    }

    // --- local-pref overrides ---
    for a in ases {
        for &(n, rel) in &a.neighbors {
            if rel == Relationship::Sibling || !rng.gen_bool(cfg.p_localpref_override) {
                continue;
            }
            let new_class = match rel {
                // Promote a peer or provider above customers, or demote a
                // customer below peers: both happen in practice.
                Relationship::Peer => *[0u8, 3].choose(rng).unwrap(),
                Relationship::Provider => *[0u8, 2].choose(rng).unwrap(),
                Relationship::Customer => *[2u8, 3].choose(rng).unwrap(),
                Relationship::Sibling => continue,
            };
            ps.localpref_override.insert((a.asn, n), new_class);
        }
    }

    // --- selective export filters ---
    // For each transit AS `via` and each learned-from neighbor, deny export
    // to some of the otherwise-allowed *peer/provider* neighbors (selective
    // announcement of customer routes upward — backup-only links, selective
    // peering). Exports toward customers are never filtered and at least
    // one provider export always survives, so reachability is preserved:
    // every route still climbs to the tier-1 clique (where nothing is
    // filtered) and descends to every customer cone.
    for via in ases {
        if via.tier == Tier::Stub {
            continue;
        }
        for &(from, rel_from) in &via.neighbors {
            let candidates: Vec<(Asn, Relationship)> = via
                .neighbors
                .iter()
                .filter(|&&(to, rel_to)| {
                    to != from
                        && Relationship::may_export(rel_from, rel_to)
                        && matches!(rel_to, Relationship::Peer | Relationship::Provider)
                        // The tier-1 clique shares everything.
                        && !(via.tier == Tier::Tier1 && ases[to.index()].tier == Tier::Tier1)
                })
                .copied()
                .collect();
            if candidates.len() < 2 {
                continue;
            }
            let max_denials = candidates.len() / 2;
            let mut providers_left = candidates
                .iter()
                .filter(|(_, r)| *r == Relationship::Provider)
                .count();
            let mut denied = 0;
            for &(to, rel_to) in &candidates {
                if denied >= max_denials {
                    break;
                }
                if rel_to == Relationship::Provider && providers_left <= 1 {
                    continue; // keep the last upward export alive
                }
                if rng.gen_bool(cfg.p_export_filter) {
                    ps.export_deny.insert((from, via.asn, to));
                    denied += 1;
                    if rel_to == Relationship::Provider {
                        providers_left -= 1;
                    }
                }
            }
        }
    }

    // --- traffic engineering ---
    for a in ases {
        let providers: Vec<Asn> = a.providers().collect();
        if providers.len() < 2 || !rng.gen_bool(cfg.p_traffic_engineering) {
            continue;
        }
        if rng.gen_bool(cfg.p_te_per_prefix) {
            // Per-prefix: each edge prefix announced to its own subset.
            for &pid in &a.prefixes {
                if prefixes[pid.index()].is_infrastructure {
                    continue;
                }
                let subset = random_proper_subset(&providers, rng);
                ps.te_prefix_providers.insert(pid, subset);
            }
        } else {
            let subset = random_proper_subset(&providers, rng);
            ps.te_providers.insert(a.asn, subset);
        }
    }

    // --- late exit ---
    for a in ases {
        for &(n, rel) in &a.neighbors {
            if rel == Relationship::Sibling {
                ps.late_exit.insert((a.asn, n));
            } else if a.asn < n && rng.gen_bool(cfg.p_late_exit) {
                ps.late_exit.insert((a.asn, n));
                if rng.gen_bool(0.5) {
                    ps.late_exit.insert((n, a.asn));
                }
            }
        }
    }

    ps
}

/// A uniformly random non-empty *proper* subset of `items` (len >= 2).
fn random_proper_subset(items: &[Asn], rng: &mut DeterministicRng) -> Vec<Asn> {
    debug_assert!(items.len() >= 2);
    let k = rng.gen_range(1..items.len());
    let mut v = items.to_vec();
    v.shuffle(rng);
    v.truncate(k);
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::as_graph::generate_as_graph;
    use crate::geo::generate_world;
    use crate::infra;
    use inano_model::rng::rng_for;

    fn build(seed: u64) -> (Vec<AsInfo>, Vec<PrefixInfo>, PolicySet) {
        let cfg = TopologyConfig::tiny(seed);
        let mut rng = rng_for(seed, "test-policy");
        let cities = generate_world(cfg.continents, cfg.cities_per_continent, &mut rng);
        let mut ases = generate_as_graph(&cfg, &mut rng);
        let inf = infra::generate(&cfg, &mut ases, &cities, &mut rng);
        let ps = generate_policies(&cfg, &ases, &inf.prefixes, &mut rng);
        (ases, inf.prefixes, ps)
    }

    #[test]
    fn default_pref_class_without_override() {
        let (ases, _, ps) = build(21);
        let a = &ases[0];
        let mut checked = 0;
        for &(n, rel) in &a.neighbors {
            if !ps.localpref_override.contains_key(&(a.asn, n)) {
                assert_eq!(ps.pref_class(a.asn, n, rel), rel.pref_class());
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn export_filters_respect_gao_and_keep_half() {
        let (ases, _, ps) = build(22);
        // Every denial must correspond to a Gao-allowed triple (otherwise
        // the filter is redundant), and per (via, from) at least one export
        // must remain.
        for &(from, via, to) in &ps.export_deny {
            let v = &ases[via.index()];
            let rel_from = v.rel_to(from).unwrap();
            let rel_to = v.rel_to(to).unwrap();
            assert!(Relationship::may_export(rel_from, rel_to));
            let remaining = v
                .neighbors
                .iter()
                .filter(|&&(t, rt)| {
                    t != from
                        && Relationship::may_export(rel_from, rt)
                        && !ps.export_deny.contains(&(from, via, t))
                })
                .count();
            assert!(remaining >= 1, "no exports left for {from} via {via}");
        }
    }

    #[test]
    fn te_subsets_are_proper_and_nonempty() {
        let (ases, prefixes, ps) = build(23);
        for (asn, subset) in &ps.te_providers {
            let providers: Vec<Asn> = ases[asn.index()].providers().collect();
            assert!(!subset.is_empty());
            assert!(subset.len() < providers.len());
            assert!(subset.iter().all(|p| providers.contains(p)));
        }
        for (pid, subset) in &ps.te_prefix_providers {
            let origin = prefixes[pid.index()].origin;
            let providers: Vec<Asn> = ases[origin.index()].providers().collect();
            assert!(!subset.is_empty() && subset.len() < providers.len());
        }
    }

    #[test]
    fn siblings_always_late_exit() {
        let (ases, _, ps) = build(24);
        for a in &ases {
            for &(n, rel) in &a.neighbors {
                if rel == Relationship::Sibling {
                    assert!(ps.uses_late_exit(a.asn, n));
                }
            }
        }
    }

    #[test]
    fn load_balancer_tie_rank_wavers_stable_as_does_not() {
        let (ases, _, ps) = build(25);
        let lb = ps.load_balancers.iter().next();
        if let Some(&lb) = lb {
            let n = ases[lb.index()].neighbors[0].0;
            let r1 = ps.tie_rank(lb, n, 1, 0);
            let r2 = ps.tie_rank(lb, n, 2, 0);
            assert_ne!(r1, r2, "load balancer must waver");
        }
        let stable = ases
            .iter()
            .find(|a| !ps.load_balancers.contains(&a.asn) && !a.neighbors.is_empty())
            .unwrap();
        let n = stable.neighbors[0].0;
        assert_eq!(
            ps.tie_rank(stable.asn, n, 1, 0),
            ps.tie_rank(stable.asn, n, 2, 0)
        );
        // Day salt reshuffles deterministically.
        assert_eq!(
            ps.tie_rank(stable.asn, n, 1, 7),
            ps.tie_rank(stable.asn, n, 2, 7)
        );
    }

    #[test]
    fn announce_to_provider_defaults_true() {
        let (ases, prefixes, ps) = build(26);
        // Find an AS with no TE at all.
        let plain = ases
            .iter()
            .find(|a| {
                !ps.te_providers.contains_key(&a.asn)
                    && a.prefixes
                        .iter()
                        .all(|p| !ps.te_prefix_providers.contains_key(p))
                    && a.providers().count() > 0
            })
            .unwrap();
        let prov = plain.providers().next().unwrap();
        let pid = plain.prefixes[0];
        assert!(ps.announces_to_provider(plain.asn, pid, prov));
        let _ = prefixes;
    }
}
