//! # inano-model
//!
//! Shared vocabulary for the iPlane Nano reproduction: strongly-typed
//! identifiers, IPv4 prefixes and longest-prefix-match tries, AS
//! relationships, latency/loss metrics and their composition rules, path
//! types with the PoP-level similarity metric used in the paper's Figure 4,
//! the LRU map the engine's result cache evicts by, and deterministic RNG
//! plumbing.
//!
//! Every other crate in the workspace builds on these types, so they are
//! deliberately small, `Copy` where possible, and free of heavyweight
//! dependencies.

pub mod error;
pub mod ids;
pub mod ip;
pub mod lru;
pub mod metrics;
pub mod path;
pub mod rel;
pub mod rng;
pub mod stats;

pub use error::{ErrorCode, ModelError};
pub use ids::{Asn, ClusterId, HostId, IfaceId, PopId, PrefixId, RouterId};
pub use ip::{Ipv4, Prefix, PrefixTrie, RangeTable};
pub use lru::Lru;
pub use metrics::{LatencyMs, LossRate};
pub use path::{path_similarity, AsPath, ClusterPath};
pub use rel::Relationship;
pub use rng::DeterministicRng;
