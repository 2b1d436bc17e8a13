//! All knobs of the synthetic Internet, with laptop-scale defaults.
//!
//! The defaults produce an Internet of ~1 500 ASes / ~3 500 PoPs /
//! ~9 000 links — roughly 1/18th of the paper's measured atlas (27.5K
//! ASes, 85K clusters, 309K links) but with the same structural flavour.
//! Experiments that need other scales construct a config with
//! [`TopologyConfig::scaled`].

/// Configuration of the synthetic Internet generator.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Root seed; every random decision derives from it.
    pub seed: u64,

    // ---- world ----
    /// Number of continents (geographic clusters).
    pub continents: usize,
    /// Cities per continent; PoPs are placed at cities.
    pub cities_per_continent: usize,

    // ---- AS population ----
    /// Tier-1 backbone ASes (full peer clique, global presence).
    pub n_tier1: usize,
    /// Tier-2 transit providers (multi-continent).
    pub n_tier2: usize,
    /// Tier-3 regional providers (single continent).
    pub n_tier3: usize,
    /// Stub (edge) ASes.
    pub n_stub: usize,

    // ---- multihoming / peering ----
    /// Probability that a same-continent tier-2 pair peers.
    pub p_peer_t2: f64,
    /// Probability that a same-continent tier-3 pair peers.
    pub p_peer_t3: f64,
    /// Fraction of ASes that have a sibling AS (same organisation).
    pub sibling_frac: f64,

    // ---- prefixes & hosts ----
    /// Edge prefixes per stub AS: uniform in `1..=max_stub_prefixes`.
    pub max_stub_prefixes: usize,
    /// End-hosts instantiated per edge prefix.
    pub hosts_per_prefix: usize,
    /// Routers per PoP (interfaces are spread across them).
    pub routers_per_pop: usize,

    // ---- policy exceptions (the §4.3 error sources) ----
    /// Probability an AS overrides the default local-pref class for one of
    /// its neighbors (e.g. prefers a peer over a customer). Paper §4.3.3:
    /// "An AS's customer may be a provider for specific paths".
    pub p_localpref_override: f64,
    /// Probability that a (learned-from, via, export-to) AS triple that the
    /// Gao rule would allow is nevertheless filtered (selective export,
    /// backup-only links). Paper §4.3.2.
    pub p_export_filter: f64,
    /// Fraction of multi-homed edge ASes that announce their prefixes to
    /// only a subset of their providers (traffic engineering, §4.3.4 —
    /// paper observed 1 352 / 27 515 ≈ 5 % of ASes).
    pub p_traffic_engineering: f64,
    /// Among traffic-engineering ASes, fraction that do it per-prefix
    /// (different prefixes announced to different provider subsets).
    pub p_te_per_prefix: f64,
    /// Probability an adjacent AS pair (sibling pairs always) uses
    /// late-exit instead of early-exit routing (§4.2.2).
    pub p_late_exit: f64,
    /// Fraction of ASes whose equal-preference tie-break depends on the
    /// destination (load balancing ⇒ "wavering preferences", §4.3.3).
    pub p_load_balancer: f64,

    // ---- link performance ----
    /// Fraction of links that are lossy at any instant.
    pub p_lossy_link: f64,
    /// Extra lossiness multiplier for edge (stub-facing) links.
    pub edge_loss_boost: f64,

    // ---- churn (day-to-day, §6.2) ----
    /// Probability an inter-AS link is down on any given day.
    pub p_link_down_per_day: f64,
    /// Probability a (non-wavering) tie-break ranking re-shuffles per day.
    pub p_pref_flip_per_day: f64,
    /// Per-6-hour-epoch probability that a lossy link stays lossy.
    pub loss_persistence_6h: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            seed: 1,
            continents: 5,
            cities_per_continent: 25,
            n_tier1: 9,
            n_tier2: 55,
            n_tier3: 180,
            n_stub: 1300,
            p_peer_t2: 0.30,
            p_peer_t3: 0.10,
            sibling_frac: 0.015,
            max_stub_prefixes: 5,
            hosts_per_prefix: 1,
            routers_per_pop: 3,
            p_localpref_override: 0.06,
            p_export_filter: 0.08,
            p_traffic_engineering: 0.05,
            p_te_per_prefix: 0.3,
            p_late_exit: 0.05,
            p_load_balancer: 0.10,
            p_lossy_link: 0.04,
            edge_loss_boost: 3.0,
            p_link_down_per_day: 0.013,
            p_pref_flip_per_day: 0.035,
            loss_persistence_6h: 0.66,
        }
    }
}

impl TopologyConfig {
    /// A config scaled by `f` in AS population (and proportionally in
    /// cities), keeping all probabilities fixed. `f = 1.0` is the default
    /// scale; `f = 0.1` is handy for unit tests.
    pub fn scaled(f: f64) -> Self {
        let d = TopologyConfig::default();
        let s = |n: usize| ((n as f64 * f).round() as usize).max(1);
        TopologyConfig {
            n_tier1: s(d.n_tier1).max(3),
            n_tier2: s(d.n_tier2).max(4),
            n_tier3: s(d.n_tier3).max(4),
            n_stub: s(d.n_stub).max(8),
            cities_per_continent: s(d.cities_per_continent).max(4),
            ..d
        }
    }

    /// Tiny config for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        TopologyConfig {
            seed,
            continents: 3,
            cities_per_continent: 6,
            n_tier1: 3,
            n_tier2: 6,
            n_tier3: 12,
            n_stub: 60,
            ..TopologyConfig::default()
        }
    }

    /// Total AS count.
    pub fn total_ases(&self) -> usize {
        self.n_tier1 + self.n_tier2 + self.n_tier3 + self.n_stub
    }

    /// Validate invariants; returns an error message on nonsense values.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_tier1 < 2 {
            return Err("need at least 2 tier-1 ASes".into());
        }
        if self.continents == 0 || self.cities_per_continent == 0 {
            return Err("world must have continents and cities".into());
        }
        if self.routers_per_pop == 0 {
            return Err("routers_per_pop must be >= 1".into());
        }
        for (name, p) in [
            ("p_peer_t2", self.p_peer_t2),
            ("p_peer_t3", self.p_peer_t3),
            ("sibling_frac", self.sibling_frac),
            ("p_localpref_override", self.p_localpref_override),
            ("p_export_filter", self.p_export_filter),
            ("p_traffic_engineering", self.p_traffic_engineering),
            ("p_te_per_prefix", self.p_te_per_prefix),
            ("p_late_exit", self.p_late_exit),
            ("p_load_balancer", self.p_load_balancer),
            ("p_lossy_link", self.p_lossy_link),
            ("p_link_down_per_day", self.p_link_down_per_day),
            ("p_pref_flip_per_day", self.p_pref_flip_per_day),
            ("loss_persistence_6h", self.loss_persistence_6h),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        TopologyConfig::default().validate().unwrap();
        TopologyConfig::tiny(3).validate().unwrap();
    }

    #[test]
    fn scaled_keeps_minimums() {
        let c = TopologyConfig::scaled(0.01);
        c.validate().unwrap();
        assert!(c.n_tier1 >= 3);
        assert!(c.n_stub >= 8);
    }

    #[test]
    fn invalid_probability_rejected() {
        let c = TopologyConfig {
            p_export_filter: 1.5,
            ..TopologyConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn totals() {
        let c = TopologyConfig::tiny(1);
        assert_eq!(c.total_ases(), 3 + 6 + 12 + 60);
    }
}
