//! LULESH skeleton (Karlin et al., LLNL proxy app).
//!
//! Shock-hydrodynamics time stepping on a regular hexahedral grid,
//! decomposed over a cube number of ranks. Each step (Section IV-D):
//!
//! 1. `TimeIncrement` — global dt via `MPI_Allreduce`.
//! 2. `LagrangeNodal` / `CalcForceForNodes` — the bulk of the compute,
//!    plus point-to-point halo exchange of nodal forces.
//! 3. `LagrangeElements` / `ApplyMaterialPropertiesForElems` — many
//!    small OpenMP loops; carries the artificial imbalance option.
//!
//! Ranks communicate exclusively point-to-point with face neighbours
//! (modelled as the six faces of the 3-D decomposition).

use crate::common::{rank_imbalance_factor, BenchmarkInstance};
use nrlt_prog::{Cost, IterCost, ProgramBuilder, Schedule};
use nrlt_sim::JobLayout;

/// LULESH run parameters.
#[derive(Debug, Clone)]
pub struct LuleshConfig {
    /// Ranks; must be a cube (1, 8, 27, 64, …).
    pub ranks: u32,
    /// Threads per rank.
    pub threads_per_rank: u32,
    /// Elements per rank edge (paper: 50 → 50³ per rank).
    pub edge: u64,
    /// Time steps to simulate.
    pub steps: u32,
    /// Artificial imbalance strength (0 = off; paper default on ≈ 0.25).
    pub imbalance: f64,
    /// Spread ranks round-robin over NUMA domains (LULESH-2) instead of
    /// block pinning.
    pub spread_placement: bool,
    /// Nodes to allocate.
    pub nodes: u32,
    /// Cost constants.
    pub costs: LuleshCosts,
}

/// Cost constants (calibration knobs).
#[derive(Debug, Clone)]
pub struct LuleshCosts {
    /// Instructions per element per step in `CalcForceForNodes`.
    pub force_instr: u64,
    /// Bytes per element per step in `CalcForceForNodes`.
    pub force_bytes: u64,
    /// Instructions per element per step in the material update.
    pub material_instr: u64,
    /// Bytes per element per step in the material update.
    pub material_bytes: u64,
    /// Number of small OpenMP loops in the material update per step.
    pub material_loops: u32,
    /// Instructions per element per step in `CalcTimeConstraints`.
    pub constraints_instr: u64,
    /// Instructions per element per step in the nodal position update.
    pub position_instr: u64,
}

impl Default for LuleshCosts {
    fn default() -> Self {
        LuleshCosts {
            force_instr: 950,
            force_bytes: 1800,
            material_instr: 260,
            material_bytes: 64,
            material_loops: 30,
            constraints_instr: 60,
            position_instr: 110,
        }
    }
}

/// Face neighbours of `rank` in a `side³` decomposition.
pub(crate) fn face_neighbours(rank: u32, side: u32) -> Vec<u32> {
    let (x, y, z) = (rank % side, (rank / side) % side, rank / (side * side));
    let mut out = Vec::new();
    let idx = |x: u32, y: u32, z: u32| x + y * side + z * side * side;
    if x > 0 {
        out.push(idx(x - 1, y, z));
    }
    if x + 1 < side {
        out.push(idx(x + 1, y, z));
    }
    if y > 0 {
        out.push(idx(x, y - 1, z));
    }
    if y + 1 < side {
        out.push(idx(x, y + 1, z));
    }
    if z > 0 {
        out.push(idx(x, y, z - 1));
    }
    if z + 1 < side {
        out.push(idx(x, y, z + 1));
    }
    out
}

impl LuleshConfig {
    /// Build the rank programs.
    pub fn build(&self) -> BenchmarkInstance {
        let side = (self.ranks as f64).cbrt().round() as u32;
        assert_eq!(side * side * side, self.ranks, "LULESH needs a cube rank count");
        let c = &self.costs;
        let elems = self.edge * self.edge * self.edge;
        let face_bytes = (self.edge + 1) * (self.edge + 1) * 8 * 3;
        let ws = elems * 450; // element + nodal fields
        let mut pb = ProgramBuilder::new(self.ranks);
        for rank in 0..self.ranks {
            let neighbours = face_neighbours(rank, side);
            let imb = rank_imbalance_factor(rank, self.imbalance);
            let mut rb = pb.rank(rank);
            let ph_total = rb.phase("total");
            rb.phase_start(ph_total);
            rb.enter("main");
            for _step in 0..self.steps {
                rb.scoped("TimeIncrement", |rb| {
                    // Serial dt computation on the master: the "serial
                    // sections" behind the paper's idle-thread finding.
                    rb.kernel(
                        Cost::scalar(6_000_000)
                            .with_basic_blocks(6_000_000 / 5)
                            .with_mem_bytes(400_000),
                        1 << 20,
                    );
                    rb.allreduce(8);
                });
                rb.scoped("LagrangeNodal", |rb| {
                    rb.scoped("CalcForceForNodes", |rb| {
                        rb.parallel("CalcForceForNodes", |omp| {
                            // Four streaming sweeps over the mesh; each
                            // implicit barrier collects the memory-timing
                            // spread between threads.
                            for loop_name in [
                                "CalcVolumeForceForElems",
                                "IntegrateStressForElems",
                                "CalcHourglassControlForElems",
                                "SumElemStressesToNodeForces",
                            ] {
                                omp.for_loop(
                                    loop_name,
                                    elems,
                                    Schedule::Static,
                                    IterCost::Uniform(
                                        Cost::scalar(c.force_instr / 4)
                                            .with_basic_blocks(c.force_instr / 48)
                                            .with_mem_bytes(c.force_bytes / 4),
                                    ),
                                    ws,
                                );
                            }
                        });
                        // Halo exchange of nodal forces.
                        for &n in &neighbours {
                            rb.irecv(n, 21, face_bytes);
                        }
                        for &n in &neighbours {
                            rb.isend(n, 21, face_bytes);
                        }
                        rb.waitall();
                    });
                    rb.scoped("CalcPositionAndVelocity", |rb| {
                        rb.parallel("CalcPositionAndVelocity", |omp| {
                            omp.for_loop(
                                "CalcPositionForNodes",
                                elems,
                                Schedule::Static,
                                IterCost::Uniform(
                                    Cost::scalar(c.position_instr).with_mem_bytes(48),
                                ),
                                ws,
                            );
                        });
                    });
                });
                rb.scoped("LagrangeElements", |rb| {
                    rb.scoped("ApplyMaterialPropertiesForElems", |rb| {
                        // Many small OpenMP loops doing little work each —
                        // the OpenMP-overhead hotspot of the paper. The
                        // artificial imbalance scales this rank's cost.
                        let per_loop =
                            ((elems as f64 * imb) as u64 / c.material_loops as u64).max(1);
                        for _ in 0..c.material_loops {
                            rb.parallel("ApplyMaterialPropertiesForElems", |omp| {
                                omp.for_loop(
                                    "EvalEOSForElems",
                                    per_loop,
                                    Schedule::Static,
                                    IterCost::Uniform(
                                        // Branchy EOS evaluation.
                                        Cost::scalar(c.material_instr)
                                            .with_basic_blocks(c.material_instr / 5)
                                            .with_mem_bytes(c.material_bytes),
                                    ),
                                    ws / 4,
                                );
                            });
                        }
                    });
                    rb.scoped("CalcQForElems", |rb| {
                        rb.parallel("CalcQForElems", |omp| {
                            omp.for_loop(
                                "CalcMonotonicQForElems",
                                elems,
                                Schedule::Static,
                                IterCost::Uniform(Cost::scalar(130).with_mem_bytes(56)),
                                ws,
                            );
                        });
                        for &n in &neighbours {
                            rb.irecv(n, 22, face_bytes / 3);
                        }
                        for &n in &neighbours {
                            rb.isend(n, 22, face_bytes / 3);
                        }
                        rb.waitall();
                    });
                });
                rb.scoped("CalcTimeConstraintsForElems", |rb| {
                    rb.parallel("CalcTimeConstraintsForElems", |omp| {
                        omp.for_loop(
                            "CalcCourantConstraintForElems",
                            elems,
                            Schedule::Static,
                            IterCost::Uniform(Cost::scalar(c.constraints_instr).with_mem_bytes(16)),
                            ws,
                        );
                    });
                });
            }
            rb.leave();
            rb.phase_end(ph_total);
        }
        let layout = if self.spread_placement {
            JobLayout::spread(self.ranks, self.threads_per_rank)
        } else {
            JobLayout::block(self.ranks, self.threads_per_rank)
        };
        BenchmarkInstance {
            name: format!(
                "LULESH({}r x {}t, {}^3/rank, imb {})",
                self.ranks, self.threads_per_rank, self.edge, self.imbalance
            ),
            program: pb.finish(),
            nodes: self.nodes,
            layout,
            filter_rules: vec![],
        }
        .validated()
    }
}

/// LULESH-1 (Section IV-D): 64 ranks × 4 threads on two nodes, 50³
/// elements per rank, artificial imbalance enabled.
pub fn lulesh_1() -> BenchmarkInstance {
    let mut b = LuleshConfig {
        ranks: 64,
        threads_per_rank: 4,
        edge: 50,
        steps: 30,
        imbalance: 0.8,
        spread_placement: false,
        nodes: 2,
        costs: LuleshCosts::default(),
    }
    .build();
    b.name = "LULESH-1".into();
    b
}

/// LULESH-2: 27 ranks × 4 threads on one node, imbalance disabled; ranks
/// cannot be distributed evenly over the 8 NUMA domains (3 domains get 4
/// ranks, 5 get 3), so memory-bandwidth contention differs per rank.
pub fn lulesh_2() -> BenchmarkInstance {
    let mut b = LuleshConfig {
        ranks: 27,
        threads_per_rank: 4,
        edge: 50,
        steps: 30,
        imbalance: 0.0,
        spread_placement: true,
        nodes: 1,
        costs: LuleshCosts::default(),
    }
    .build();
    b.name = "LULESH-2".into();
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbours_in_a_4_cube() {
        // Corner rank 0 of a 4x4x4 cube has 3 neighbours.
        assert_eq!(face_neighbours(0, 4).len(), 3);
        // An interior rank has 6.
        let interior = 1 + 4 + 16; // (1,1,1)
        assert_eq!(face_neighbours(interior, 4).len(), 6);
        // Symmetry: if b is a neighbour of a, a is a neighbour of b.
        for a in 0..64 {
            for &b in &face_neighbours(a, 4) {
                assert!(face_neighbours(b, 4).contains(&a), "{a} <-> {b}");
            }
        }
    }

    #[test]
    fn named_configs_validate() {
        let b1 = lulesh_1();
        assert_eq!(b1.name, "LULESH-1");
        assert_eq!(b1.nodes, 2);
        assert_eq!(b1.program.n_ranks(), 64);
        let b2 = lulesh_2();
        assert_eq!(b2.program.n_ranks(), 27);
        assert!(matches!(b2.layout.policy, nrlt_sim::PinPolicy::SpreadNuma));
    }

    #[test]
    #[should_panic(expected = "cube rank count")]
    fn non_cube_rank_count_rejected() {
        LuleshConfig {
            ranks: 10,
            threads_per_rank: 1,
            edge: 10,
            steps: 1,
            imbalance: 0.0,
            spread_placement: false,
            nodes: 1,
            costs: LuleshCosts::default(),
        }
        .build();
    }

    #[test]
    fn imbalance_on_means_uneven_material_costs() {
        // With imbalance, different ranks see different material-loop
        // iteration counts; extract them from the built programs.
        let b = LuleshConfig {
            ranks: 8,
            threads_per_rank: 1,
            edge: 10,
            steps: 1,
            imbalance: 0.5,
            spread_placement: false,
            nodes: 1,
            costs: LuleshCosts::default(),
        }
        .build();
        use nrlt_prog::{Action, OmpAction};
        let iters_of = |rank: usize| -> u64 {
            b.program.ranks[rank]
                .iter()
                .filter_map(|a| match a {
                    Action::Parallel(p) => Some(p.body.iter().filter_map(|o| match o {
                        OmpAction::For(f) => Some(f.iters),
                        _ => None,
                    })),
                    _ => None,
                })
                .flatten()
                .sum()
        };
        let all: Vec<u64> = (0..8).map(iters_of).collect();
        assert_ne!(all.iter().min(), all.iter().max(), "imbalance must vary work: {all:?}");
    }
}
