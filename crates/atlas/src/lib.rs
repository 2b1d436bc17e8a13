//! # inano-atlas
//!
//! The heart of iNano's compactness claim: instead of iPlane's multi-GB
//! atlas of measured *paths*, iNano ships an atlas of measured *links*
//! plus just enough policy evidence to re-derive paths — eight datasets
//! (Table 2 of the paper):
//!
//! 1. inter-cluster links annotated with latencies (two planes: `TO_DST`
//!    from vantage-point traceroutes, `FROM_SRC` from end-host ones),
//! 2. link loss rates (only lossy links are stored),
//! 3. prefix → cluster attachment,
//! 4. prefix → origin AS,
//! 5. AS degrees,
//! 6. AS 3-tuples (observed export behaviour),
//! 7. AS preferences (observed tie-break behaviour),
//! 8. provider mappings (per-AS, refined per-prefix).
//!
//! This crate is the format a server and an end host read: the dataset
//! types, a compact binary codec (varint + delta encoding over sorted
//! tables — our stand-in for the paper's gzip, documented in DESIGN.md
//! §"The atlas format"), daily delta computation and application, and the
//! Table-2 size accounting. It depends on `inano-model` alone; the builder
//! that distils a measurement day into an [`Atlas`] lives with the
//! measurements it folds, as `inano_measure::build_atlas`.

pub mod codec;
pub mod datasets;
pub mod delta;
pub mod stats;

pub use datasets::{Atlas, LinkAnnotation, Plane, Triple};
pub use delta::AtlasDelta;
pub use stats::{atlas_stats, delta_stats, DatasetStat};
