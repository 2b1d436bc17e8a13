//! # inano-measure
//!
//! The measurement side of iNano, simulated against the ground-truth
//! routing oracle: traceroutes with per-hop RTTs (whose reply paths are
//! routed by the oracle, so the asymmetric-subtraction error the paper
//! discusses in §6.3.2 is real here too), pings, 100-probe loss
//! measurements, alias resolution and PoP clustering, BGP feed snapshots,
//! the frontier-search partition of link measurements across vantage
//! points, link-latency inference, and the orchestration of a full
//! "measurement day" — and the builder that distils a day into the
//! compact atlas ([`build_atlas`], with the Gao relationship inference the
//! `GRAPH` baseline reads). The atlas's format, codec and deltas are
//! `inano-atlas`'s, which depends on `inano-model` alone, so a server and
//! an end host read an atlas without linking the simulator.

pub mod bgp_feed;
pub mod builder;
pub mod campaign;
pub mod cluster;
pub mod frontier;
pub mod linklat;
pub mod lossprobe;
pub mod ping;
pub mod relinfer;
pub mod traceroute;
pub mod vantage;

pub use bgp_feed::{BgpFeedSet, FeedRoute};
pub use builder::{build_atlas, AtlasConfig};
pub use campaign::{run_campaign, CampaignConfig, MeasurementDay};
pub use cluster::{Clustering, ClusteringConfig};
pub use traceroute::{simulate_traceroute, Hop, Traceroute};
pub use vantage::VantagePoints;
