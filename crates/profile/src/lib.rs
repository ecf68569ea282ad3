//! # nrlt-profile — the Cube analog
//!
//! Profiles over the three Scalasca dimensions — metric tree, call-path
//! tree, system (locations) — with exclusive storage and inclusive
//! views, the `%_T` / `%_M` normalisations the paper's analysis reads
//! off the Cube browser, aggregation over repetitions, the generalized
//! Jaccard score used in Section V-B, and plain-text rendering.

#![warn(missing_docs)]

pub mod calltree;
pub mod cube;
pub mod jaccard;
pub mod metric;
pub mod render;
pub mod system;

pub use calltree::{CallPathId, CallTree};
pub use cube::Profile;
pub use jaccard::{jaccard, min_pairwise_jaccard, total_variation};
pub use metric::{Metric, N_METRICS};
pub use render::{callpath_table, metric_table};
pub use system::{location_spread, LocationSpread};
