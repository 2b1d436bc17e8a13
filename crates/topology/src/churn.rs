//! Day-to-day churn: the slow evolution of routing state that makes
//! iNano's daily atlas updates necessary (and small).
//!
//! Per §6.2 of the paper, most Internet paths are stationary across a day:
//! ~50 % of PoP-level paths identical, 91 % with similarity ≥ 0.75. We
//! model churn as (a) inter-AS links being down for the day and (b) some
//! ASes reshuffling their tie-break rankings, both drawn per-day from the
//! topology seed so any day can be re-materialised independently.

use crate::config::TopologyConfig;
use crate::internet::{Internet, LinkId, LinkKind};
use inano_model::rng::rng_for;
use inano_model::Asn;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// The routing-relevant state of one day.
#[derive(Clone, Debug, Default)]
pub struct DayState {
    pub day: u32,
    /// Inter-AS links that are down for the whole day.
    pub down_links: HashSet<LinkId>,
    /// ASes whose tie-break ranking is reshuffled today, with the salt to
    /// feed [`crate::policy::PolicySet::tie_rank`].
    pub pref_salts: HashMap<Asn, u64>,
}

impl DayState {
    /// Day salt for an AS (0 = no reshuffle today).
    pub fn salt_for(&self, asn: Asn) -> u64 {
        self.pref_salts.get(&asn).copied().unwrap_or(0)
    }

    pub fn is_down(&self, link: LinkId) -> bool {
        self.down_links.contains(&link)
    }
}

/// Generates [`DayState`]s for a given Internet.
#[derive(Clone, Debug)]
pub struct ChurnModel {
    seed: u64,
    p_link_down: f64,
    p_pref_flip: f64,
    inter_links: Vec<LinkId>,
    single_homed_links: HashSet<LinkId>,
    asns: Vec<Asn>,
}

impl ChurnModel {
    pub fn new(net: &Internet) -> ChurnModel {
        let cfg: &TopologyConfig = &net.cfg;
        // Never bring down the only interconnect of a single-homed AS —
        // day-long total partitions of whole ASes would dominate the
        // stationarity statistics with trivially-dissimilar (empty) paths.
        // (Transient failures for the detour study are injected separately
        // by `inano-routing::failures`.)
        let mut inter_count: HashMap<Asn, usize> = HashMap::new();
        for l in net.inter_as_links() {
            *inter_count.entry(net.pop_as(l.a)).or_default() += 1;
            *inter_count.entry(net.pop_as(l.b)).or_default() += 1;
        }
        let mut single_homed_links = HashSet::new();
        for l in net.inter_as_links() {
            if inter_count[&net.pop_as(l.a)] <= 1 || inter_count[&net.pop_as(l.b)] <= 1 {
                single_homed_links.insert(l.id);
            }
        }
        ChurnModel {
            seed: cfg.seed,
            p_link_down: cfg.p_link_down_per_day,
            p_pref_flip: cfg.p_pref_flip_per_day,
            inter_links: net
                .links
                .iter()
                .filter(|l| l.kind == LinkKind::Inter)
                .map(|l| l.id)
                .collect(),
            single_homed_links,
            asns: net.ases.iter().map(|a| a.asn).collect(),
        }
    }

    /// The state of day `day`. Day 0 is the baseline: no churn, so that
    /// atlas construction sees the canonical topology.
    pub fn day_state(&self, day: u32) -> DayState {
        let mut st = DayState {
            day,
            ..DayState::default()
        };
        if day == 0 {
            return st;
        }
        let mut rng = rng_for(self.seed, &format!("churn-day-{day}"));
        for &l in &self.inter_links {
            if !self.single_homed_links.contains(&l) && rng.gen_bool(self.p_link_down) {
                st.down_links.insert(l);
            }
        }
        for &a in &self.asns {
            if rng.gen_bool(self.p_pref_flip) {
                st.pref_salts.insert(a, rng.gen_range(1..u64::MAX));
            }
        }
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_internet;
    use crate::config::TopologyConfig;

    fn model(seed: u64) -> (Internet, ChurnModel) {
        let net = build_internet(&TopologyConfig::tiny(seed)).unwrap();
        let cm = ChurnModel::new(&net);
        (net, cm)
    }

    #[test]
    fn day_zero_is_pristine() {
        let (_, cm) = model(41);
        let d0 = cm.day_state(0);
        assert!(d0.down_links.is_empty());
        assert!(d0.pref_salts.is_empty());
    }

    #[test]
    fn days_are_deterministic_and_distinct() {
        let (_, cm) = model(42);
        let d1a = cm.day_state(1);
        let d1b = cm.day_state(1);
        assert_eq!(d1a.down_links, d1b.down_links);
        assert_eq!(d1a.pref_salts, d1b.pref_salts);
        let d2 = cm.day_state(2);
        // Overwhelmingly likely to differ on a non-trivial topology.
        assert!(
            d1a.down_links != d2.down_links || d1a.pref_salts != d2.pref_salts,
            "consecutive days identical"
        );
    }

    #[test]
    fn churn_volume_tracks_probability() {
        let (net, cm) = model(43);
        let days = 30;
        let mut down_total = 0usize;
        for d in 1..=days {
            down_total += cm.day_state(d).down_links.len();
        }
        let inter = net.inter_as_links().count();
        let expected = inter as f64 * net.cfg.p_link_down_per_day * days as f64;
        let got = down_total as f64;
        assert!(
            got < expected * 3.0 + 10.0,
            "too much churn: {got} vs expected {expected}"
        );
    }

    #[test]
    fn never_kills_single_homed_stub() {
        let (net, cm) = model(44);
        for d in 1..=10 {
            let st = cm.day_state(d);
            for &l in &st.down_links {
                assert!(!cm.single_homed_links.contains(&l));
                let _ = net.link(l);
            }
        }
    }
}
