//! # inano-core
//!
//! The paper's primary contribution: a route/latency/loss predictor for
//! arbitrary end-host pairs, driven entirely by the compact link-level
//! atlas of `inano-atlas`.
//!
//! The prediction algorithm is a destination-rooted ("backtracking")
//! Dijkstra over a layered cluster graph:
//!
//! * **GRAPH mode** (§4.2, the baseline): links are symmetrised and
//!   rebuilt into the valley-free up/down construction from *inferred* AS
//!   relationships, searched in three phases that encode the
//!   customer < peer < provider preference, with a
//!   `[AS hops, exit latency]` lexicographic cost (early-exit).
//! * **iNano mode** (§4.3, the contribution): observed *directed* links
//!   in two planes (`TO_DST` from vantage points, `FROM_SRC` from
//!   end-hosts, crossable once toward `TO_DST`), with the valley-free
//!   check replaced by the observed AS 3-tuple check, observed AS
//!   preferences as the equal-length tie-break, and the provider
//!   constraint on the final edge into the destination AS.
//!
//! Each refinement can be toggled independently ([`PredictorConfig`]),
//! which is how Figure 5's accuracy ladder is regenerated.

pub mod client;
pub mod config;
pub mod fanout;
pub mod graph;
mod index;
pub mod predict;
pub mod rank;
pub mod search;
pub mod source;

pub use client::INanoClient;
pub use config::PredictorConfig;
pub use predict::{PathPredictor, PredictedPath, Resolution, SearchCounts};
pub use rank::rank_by_rtt;
pub use source::{
    catch_up, chunk_span, content_tag, n_chunks, read_full, AtlasChunk, AtlasSource, AtlasVersion,
    ChainLink, Follower, OfferedBody, OfferedDelta, Scripted, Served, StaticSource, Step,
    DEFAULT_CHUNK_SIZE,
};
