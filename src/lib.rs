//! # iNano — iPlane Nano, reproduced in Rust
//!
//! A full reproduction of *"iPlane Nano: Path Prediction for Peer-to-Peer
//! Applications"* (Madhyastha, Katz-Bassett, Anderson, Krishnamurthy,
//! Venkataramani — NSDI 2009): a lightweight library that predicts
//! PoP-level routes, latencies and loss rates between arbitrary Internet
//! end-hosts from a compact (megabytes, not gigabytes) link-level atlas.
//!
//! The workspace contains everything the paper's system needs, built from
//! scratch:
//!
//! | crate | role |
//! |---|---|
//! | [`model`] | shared vocabulary (ids, prefixes, metrics, paths, RNG) |
//! | [`topology`] | synthetic Internet generator with ground-truth policies |
//! | [`routing`] | BGP-style policy-routing oracle (the "real" Internet) |
//! | [`measure`] | traceroute/ping/loss simulation, clustering, BGP feeds, the atlas builder |
//! | [`atlas`] | the compact atlas: datasets, codec, daily deltas |
//! | [`core`] | **the paper's contribution**: the route/latency/loss predictor |
//! | [`coords`] | Vivaldi network-coordinates baseline |
//! | [`paths`] | iPlane path composition, improved composition, RouteScope |
//! | [`apps`] | CDN, VoIP and detour-routing case studies |
//! | [`service`] | concurrent, hot-swappable query engine over [`core`] |
//! | [`net`] | wire protocol, TCP server (`inano-serve`) and client over [`service`] |
//!
//! Start with `examples/quickstart.rs`; DESIGN.md documents the
//! architecture and every substitution made for the paper's
//! infrastructure; README §"Paper experiments" lists the binary behind
//! every table and figure, and ROADMAP item 2 tracks the
//! paper-vs-measured comparison.

pub use inano_apps as apps;
pub use inano_atlas as atlas;
pub use inano_coords as coords;
pub use inano_core as core;
pub use inano_measure as measure;
pub use inano_model as model;
pub use inano_net as net;
pub use inano_paths as paths;
pub use inano_routing as routing;
pub use inano_service as service;
pub use inano_topology as topology;
