//! BGP feed snapshots, standing in for RouteViews/RIPE RIS ([33, 47]).
//!
//! A feed is the full table of AS paths from one feed AS to every prefix.
//! iNano uses feeds for the prefix→origin-AS mapping, for AS 3-tuples,
//! and for the provider sets of §4.3.4.

use inano_model::rng::DeterministicRng;
use inano_model::{AsPath, Asn, PrefixId};
use inano_routing::RoutingOracle;
use inano_topology::Tier;
use rand::seq::SliceRandom;

/// One table entry: the AS path from a feed AS to a prefix.
#[derive(Clone, Debug)]
pub struct FeedRoute {
    pub feed: Asn,
    pub prefix: PrefixId,
    /// Path from the feed AS (first) to the origin AS (last).
    pub path: AsPath,
}

/// A set of BGP feeds collected on one day.
#[derive(Clone, Debug, Default)]
pub struct BgpFeedSet {
    pub feeds: Vec<Asn>,
    pub routes: Vec<FeedRoute>,
}

impl BgpFeedSet {
    /// Pick `n` feed ASes (transit tiers, where route collectors live) and
    /// dump their tables for every prefix.
    pub fn collect(oracle: &RoutingOracle<'_>, n: usize, rng: &mut DeterministicRng) -> Self {
        let net = oracle.internet();
        let mut candidates: Vec<Asn> = net
            .ases
            .iter()
            .filter(|a| matches!(a.tier, Tier::Tier1 | Tier::Tier2))
            .map(|a| a.asn)
            .collect();
        candidates.shuffle(rng);
        candidates.truncate(n);

        let mut routes = Vec::new();
        for &feed in &candidates {
            for p in &net.prefixes {
                if let Some(path) = oracle.as_path(feed, p.id) {
                    routes.push(FeedRoute {
                        feed,
                        prefix: p.id,
                        path,
                    });
                }
            }
        }
        BgpFeedSet {
            feeds: candidates,
            routes,
        }
    }

    /// The origin AS a feed set attributes to each prefix (last AS on the
    /// path). All feeds agree here because origins are unambiguous in the
    /// simulation, as they overwhelmingly are in practice.
    pub fn origin_of(&self, prefix: PrefixId) -> Option<Asn> {
        self.routes
            .iter()
            .find(|r| r.prefix == prefix)
            .and_then(|r| r.path.last())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::rng::rng_for;
    use inano_topology::{build_internet, DayState, TopologyConfig};

    #[test]
    fn feeds_cover_prefixes_with_correct_origins() {
        let net = build_internet(&TopologyConfig::tiny(141)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let mut rng = rng_for(141, "bgp");
        let feeds = BgpFeedSet::collect(&oracle, 3, &mut rng);
        assert_eq!(feeds.feeds.len(), 3);
        assert!(!feeds.routes.is_empty());
        for r in feeds.routes.iter().take(100) {
            assert_eq!(r.path.first(), Some(r.feed));
            assert_eq!(r.path.last(), Some(net.prefix(r.prefix).origin));
            assert!(!r.path.has_loop());
        }
    }

    #[test]
    fn origin_lookup_matches_ground_truth() {
        let net = build_internet(&TopologyConfig::tiny(142)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let mut rng = rng_for(142, "bgp");
        let feeds = BgpFeedSet::collect(&oracle, 2, &mut rng);
        let some_prefix = net.prefixes[3].id;
        if let Some(origin) = feeds.origin_of(some_prefix) {
            assert_eq!(origin, net.prefix(some_prefix).origin);
        }
    }

    #[test]
    fn feed_collection_deterministic() {
        let net = build_internet(&TopologyConfig::tiny(143)).unwrap();
        let oracle = RoutingOracle::new(&net, DayState::default());
        let a = BgpFeedSet::collect(&oracle, 2, &mut rng_for(9, "bgp"));
        let b = BgpFeedSet::collect(&oracle, 2, &mut rng_for(9, "bgp"));
        assert_eq!(a.feeds, b.feeds);
        assert_eq!(a.routes.len(), b.routes.len());
    }
}
