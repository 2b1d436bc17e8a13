//! Frontier-search partition of link measurements across vantage points.
//!
//! iNano "uses the frontier search algorithm described in \[30\] to
//! partition the set of links across the PlanetLab vantage points, with
//! some redundancy" (§3). The essential property is that each link is
//! measured by a small number of VPs that can actually *reach* it on
//! their forward paths, and that load is balanced. We implement that
//! property directly: greedy balanced assignment of each observed link to
//! `redundancy` of the VPs that traversed it.

use inano_model::{ClusterId, HostId};
use std::collections::{BTreeMap, HashMap};

/// Which VPs measure which directed cluster-level link.
///
/// Sorted by link: the campaign draws every loss sample from one shared
/// rng while walking this map, so its iteration order is part of what a
/// seed means.
#[derive(Clone, Debug, Default)]
pub struct LinkAssignment {
    pub per_link: BTreeMap<(ClusterId, ClusterId), Vec<HostId>>,
}

impl LinkAssignment {
    /// Greedy balanced assignment. `observers[link]` is the set of VPs
    /// whose traceroutes traversed the link.
    pub fn assign(
        observers: &HashMap<(ClusterId, ClusterId), Vec<HostId>>,
        redundancy: usize,
    ) -> LinkAssignment {
        let mut load: HashMap<HostId, usize> = HashMap::new();
        let mut per_link = BTreeMap::new();
        // Deterministic iteration order.
        let mut keys: Vec<&(ClusterId, ClusterId)> = observers.keys().collect();
        keys.sort();
        for key in keys {
            let mut cands = observers[key].clone();
            cands.sort();
            cands.dedup();
            // Take the `redundancy` least-loaded observers.
            cands.sort_by_key(|vp| (*load.get(vp).unwrap_or(&0), *vp));
            let chosen: Vec<HostId> = cands.into_iter().take(redundancy.max(1)).collect();
            for &vp in &chosen {
                *load.entry(vp).or_default() += 1;
            }
            per_link.insert(*key, chosen);
        }
        LinkAssignment { per_link }
    }

    /// Number of links assigned to a VP.
    pub fn load_of(&self, vp: HostId) -> usize {
        self.per_link
            .values()
            .filter(|vps| vps.contains(&vp))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u32, b: u32) -> (ClusterId, ClusterId) {
        (ClusterId::new(a), ClusterId::new(b))
    }

    #[test]
    fn every_link_gets_a_measurer_from_its_observers() {
        let mut obs = HashMap::new();
        obs.insert(key(0, 1), vec![HostId::new(1), HostId::new(2)]);
        obs.insert(key(1, 2), vec![HostId::new(2)]);
        let a = LinkAssignment::assign(&obs, 2);
        assert_eq!(a.per_link[&key(0, 1)].len(), 2);
        assert_eq!(a.per_link[&key(1, 2)], vec![HostId::new(2)]);
        for (k, vps) in &a.per_link {
            for vp in vps {
                assert!(obs[k].contains(vp), "assigned non-observer");
            }
        }
    }

    #[test]
    fn load_is_balanced() {
        // 100 links all observed by the same 4 VPs: each should measure
        // about 25 at redundancy 1.
        let vps: Vec<HostId> = (0..4).map(HostId::new).collect();
        let mut obs = HashMap::new();
        for i in 0..100u32 {
            obs.insert(key(i, i + 1), vps.clone());
        }
        let a = LinkAssignment::assign(&obs, 1);
        for &vp in &vps {
            let l = a.load_of(vp);
            assert!((20..=30).contains(&l), "vp load {l} unbalanced");
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let mut obs = HashMap::new();
        for i in 0..20u32 {
            obs.insert(key(i, i + 1), vec![HostId::new(i % 3), HostId::new(5)]);
        }
        let a = LinkAssignment::assign(&obs, 1);
        let b = LinkAssignment::assign(&obs, 1);
        assert_eq!(a.per_link, b.per_link);
    }
}
