//! # nrlt-miniapps — benchmark skeletons
//!
//! Performance skeletons of the paper's three mini-apps (Section IV):
//! MiniFE (finite-element assembly + CG), LULESH (shock hydrodynamics
//! time stepping) and the C++ TeaLeaf (implicit 2-D heat conduction),
//! each with the paper's tunable knobs (MiniFE imbalance percentage,
//! LULESH artificial imbalance and rank cubes, TeaLeaf rank/thread
//! splits of one node) and the eight named configurations used in the
//! evaluation.
//!
//! A skeleton reproduces the *performance structure* — phase layout,
//! loop/iteration counts, communication pattern, per-element costs,
//! working-set sizes — not the numerics. That is exactly the information
//! the paper's measurement techniques observe.

#![warn(missing_docs)]

pub mod common;
pub mod lulesh;
pub mod minife;
pub mod tealeaf;

pub use common::BenchmarkInstance;
pub use lulesh::{lulesh_1, lulesh_2, LuleshConfig, LuleshCosts};
pub use minife::{minife_1, minife_2, MiniFeConfig, MiniFeCosts};
pub use tealeaf::{tealeaf_1, tealeaf_2, tealeaf_3, tealeaf_4, TeaLeafConfig, TeaLeafCosts};

/// All eight named configurations of the paper's evaluation.
pub fn all_configurations() -> Vec<BenchmarkInstance> {
    vec![
        minife_1(),
        minife_2(),
        lulesh_1(),
        lulesh_2(),
        tealeaf_1(),
        tealeaf_2(),
        tealeaf_3(),
        tealeaf_4(),
    ]
}
