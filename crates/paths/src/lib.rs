//! # inano-paths
//!
//! The *path-level* prediction baselines the paper compares against:
//!
//! * [`path_atlas`] + [`composition`] — iPlane's path-composition
//!   technique (\[30\]): keep the full set of measured paths, answer a
//!   query by splicing a path out of the source with an intersecting
//!   path into the destination. Accurate, but the atlas is two orders of
//!   magnitude larger than iNano's link atlas (§6.1, §8.3). One
//!   [`Composer`], asked by prefix, also answers the improved variant:
//!   composition *plus* iNano's 3-tuple and preference checks at the
//!   splice point, the strongest predictor in Figure 5 (81% in the
//!   paper).
//! * [`routescope`] — Mao et al.'s AS-graph shortest-valley-free-path
//!   predictor (\[32\]), the only prior art predicting AS paths from a
//!   graph; Figure 5's weakest line.

pub mod composition;
pub mod path_atlas;
pub mod routescope;

pub use composition::Composer;
pub use path_atlas::{PathAtlas, StoredPath};
pub use routescope::RouteScope;
