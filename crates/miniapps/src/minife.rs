//! MiniFE skeleton (Heroux et al., SAND2009-5574).
//!
//! Models the performance structure of a finite-element mini-app: sparse
//! matrix assembly (structure generation, FE assembly, Dirichlet
//! conditions, local-matrix setup with all-to-all exchanges) followed by
//! an unpreconditioned CG solve (matvec + halo exchange, two dot-product
//! allreduces, three vector updates per iteration).
//!
//! The paper's imbalance option is reproduced: at 50 % imbalance, half
//! the ranks hold three times as many elements as the other half.

use crate::common::BenchmarkInstance;
use nrlt_prog::{Cost, IterCost, ProgramBuilder, Schedule};
use nrlt_sim::JobLayout;

/// MiniFE run parameters.
#[derive(Debug, Clone)]
pub struct MiniFeConfig {
    /// Cube dimension: the grid has `nx³` elements in total.
    pub nx: u64,
    /// MPI ranks.
    pub ranks: u32,
    /// OpenMP threads per rank.
    pub threads_per_rank: u32,
    /// Imbalance percentage: 50 means half the ranks get 3× the
    /// elements of the other half (the paper's definition).
    pub imbalance_pct: u32,
    /// CG iterations.
    pub cg_iters: u32,
    /// Cost constants.
    pub costs: MiniFeCosts,
}

/// Per-element cost constants (calibration knobs).
#[derive(Debug, Clone)]
pub struct MiniFeCosts {
    /// Instructions per element in `generate_matrix_structure` (slow,
    /// call-dense, single-threaded).
    pub structure_instr: u64,
    /// Elements per `operator()` call in the structure-generation burst.
    pub structure_calls_per_elem: f64,
    /// Instructions per element in FE assembly (OpenMP).
    pub assembly_instr: u64,
    /// Bytes per element in FE assembly.
    pub assembly_bytes: u64,
    /// Instructions per element in `impose_dirichlet`.
    pub dirichlet_instr: u64,
    /// Instructions per element in `make_local_matrix` (single-threaded).
    pub make_local_instr: u64,
    /// Instructions per matrix row per CG matvec (27-point stencil).
    pub matvec_instr_per_row: u64,
    /// Bytes per matrix row per CG matvec.
    pub matvec_bytes_per_row: u64,
    /// Instructions per row per dot product.
    pub dot_instr_per_row: u64,
    /// Bytes per row per dot product.
    pub dot_bytes_per_row: u64,
    /// Instructions per row per waxpby.
    pub waxpby_instr_per_row: u64,
    /// Bytes per row per waxpby.
    pub waxpby_bytes_per_row: u64,
}

impl Default for MiniFeCosts {
    fn default() -> Self {
        MiniFeCosts {
            structure_instr: 2000,
            structure_calls_per_elem: 0.5,
            assembly_instr: 9400,
            assembly_bytes: 8000,
            dirichlet_instr: 300,
            make_local_instr: 2450,
            matvec_instr_per_row: 44,
            matvec_bytes_per_row: 290,
            dot_instr_per_row: 4,
            dot_bytes_per_row: 20,
            waxpby_instr_per_row: 16,
            waxpby_bytes_per_row: 110,
        }
    }
}

impl MiniFeConfig {
    /// Elements owned by `rank` under the imbalance rule.
    pub(crate) fn elements_of(&self, rank: u32) -> u64 {
        let total = self.nx * self.nx * self.nx;
        if self.imbalance_pct == 0 {
            return total / self.ranks as u64;
        }
        // At 50 %: half the ranks get 3x units, half get 1x; scale the
        // heavy share linearly with the percentage.
        let heavy_ranks = self.ranks / 2;
        let light_ranks = self.ranks - heavy_ranks;
        let heavy_weight = 1.0 + 2.0 * self.imbalance_pct as f64 / 50.0;
        let unit = total as f64 / (heavy_ranks as f64 * heavy_weight + light_ranks as f64);
        if rank < heavy_ranks {
            (unit * heavy_weight) as u64
        } else {
            unit as u64
        }
    }

    /// Build the rank programs.
    pub fn build(&self) -> BenchmarkInstance {
        let c = &self.costs;
        let mut pb = ProgramBuilder::new(self.ranks);
        for rank in 0..self.ranks {
            let elems = self.elements_of(rank);
            let rows = elems; // one row per element, near enough
            let ws_matrix = rows * c.matvec_bytes_per_row;
            let ws_vec = rows * 24; // three vector streams resident
            let left = (rank + self.ranks - 1) % self.ranks;
            let right = (rank + 1) % self.ranks;
            let halo_bytes = (self.nx * self.nx * 8 / self.ranks as u64).max(1024);

            let mut rb = pb.rank(rank);
            let ph_total = rb.phase("total");
            let ph_init = rb.phase("init");
            let ph_structgen = rb.phase("structure_gen");
            let ph_solve = rb.phase("solve");
            rb.phase_start(ph_total);
            rb.enter("main");

            // ---- init: matrix assembly ---------------------------------
            rb.phase_start(ph_init);
            rb.phase_start(ph_structgen);
            rb.scoped("generate_matrix_structure", |rb| {
                let calls = (elems as f64 * c.structure_calls_per_elem) as u64;
                let instr = elems * c.structure_instr;
                rb.kernel_burst(
                    "generate_matrix_structure/operator()",
                    calls,
                    Cost::scalar(instr)
                        .with_basic_blocks(instr / 4) // branchy map/sort code
                        .with_mem_bytes(elems * 60),
                    elems * 60,
                );
                // Global row offsets.
                rb.allgather(8);
                rb.allreduce(8);
            });
            rb.phase_end(ph_structgen);
            rb.scoped("assemble_FE_matrix", |rb| {
                rb.parallel("assemble", |omp| {
                    omp.for_loop(
                        "assemble_FE_matrix",
                        elems,
                        Schedule::Static,
                        IterCost::Uniform(
                            // Branchy scatter code: dense basic blocks,
                            // so counting cannot be hoisted.
                            Cost::scalar(c.assembly_instr)
                                .with_basic_blocks(c.assembly_instr * 2 / 7)
                                .with_mem_bytes(c.assembly_bytes),
                        ),
                        ws_matrix,
                    );
                });
            });
            rb.scoped("impose_dirichlet", |rb| {
                rb.parallel("dirichlet", |omp| {
                    omp.for_loop(
                        "impose_dirichlet",
                        elems / 10,
                        Schedule::Static,
                        IterCost::Uniform(Cost::scalar(c.dirichlet_instr).with_mem_bytes(48)),
                        ws_vec,
                    );
                });
            });
            rb.scoped("make_local_matrix", |rb| {
                // Single-threaded reindexing with collective exchanges of
                // the boundary structure.
                let ml_instr = elems * c.make_local_instr / 2;
                rb.kernel_burst(
                    "make_local_matrix/find_row",
                    elems / 8,
                    Cost::scalar(ml_instr)
                        .with_basic_blocks(ml_instr / 4)
                        .with_mem_bytes(elems * 30),
                    ws_matrix,
                );
                rb.alltoall(halo_bytes / 4);
                rb.kernel(
                    Cost::scalar(elems * c.make_local_instr / 2)
                        .with_basic_blocks(elems * c.make_local_instr / 8)
                        .with_mem_bytes(elems * 20),
                    ws_matrix,
                );
                rb.allgather(64);
            });
            rb.phase_end(ph_init);

            // ---- solve: CG ---------------------------------------------
            rb.phase_start(ph_solve);
            rb.scoped("cg_solve", |rb| {
                for _iter in 0..self.cg_iters {
                    // Halo exchange for the matvec.
                    rb.scoped("exchange_externals", |rb| {
                        rb.irecv(left, 11, halo_bytes);
                        rb.irecv(right, 12, halo_bytes);
                        rb.isend(right, 11, halo_bytes);
                        rb.isend(left, 12, halo_bytes);
                        rb.waitall();
                    });
                    rb.scoped("matvec", |rb| {
                        rb.parallel("matvec", |omp| {
                            omp.for_loop(
                                "matvec",
                                rows,
                                Schedule::Static,
                                IterCost::Uniform(
                                    Cost::scalar(c.matvec_instr_per_row)
                                        .with_basic_blocks(c.matvec_instr_per_row / 10)
                                        .with_mem_bytes(c.matvec_bytes_per_row),
                                ),
                                ws_matrix,
                            );
                        });
                    });
                    // Two dot products with global reductions.
                    for _ in 0..2 {
                        rb.scoped("dot", |rb| {
                            rb.parallel("dot", |omp| {
                                omp.for_loop(
                                    "dot",
                                    rows,
                                    Schedule::Static,
                                    IterCost::Uniform(
                                        Cost::scalar(c.dot_instr_per_row)
                                            .with_mem_bytes(c.dot_bytes_per_row),
                                    ),
                                    ws_vec,
                                );
                            });
                            rb.allreduce(8);
                        });
                    }
                    // Three vector updates (vectorised: one iteration
                    // covers four rows, so lt_loop counts fewer ticks
                    // here than a scalar loop would).
                    for _ in 0..3 {
                        rb.scoped("waxpby", |rb| {
                            rb.parallel("waxpby", |omp| {
                                omp.for_loop(
                                    "waxpby",
                                    rows / 4,
                                    Schedule::Static,
                                    IterCost::Uniform(
                                        Cost::scalar(c.waxpby_instr_per_row)
                                            .with_basic_blocks(1)
                                            .with_mem_bytes(c.waxpby_bytes_per_row),
                                    ),
                                    ws_vec,
                                );
                            });
                        });
                    }
                }
            });
            rb.phase_end(ph_solve);
            rb.leave();
            rb.phase_end(ph_total);
        }
        // One rank per NUMA domain, as in the paper's configurations: with
        // few threads per rank, block pinning would pile every master
        // onto the first domain.
        let layout = if self.threads_per_rank < 16 {
            JobLayout::spread(self.ranks, self.threads_per_rank)
        } else {
            JobLayout::block(self.ranks, self.threads_per_rank)
        };
        BenchmarkInstance {
            name: format!(
                "MiniFE({}^3, {}r x {}t, imb {}%)",
                self.nx, self.ranks, self.threads_per_rank, self.imbalance_pct
            ),
            program: pb.finish(),
            nodes: 1,
            layout,
            filter_rules: vec![],
        }
        .validated()
    }
}

/// MiniFE-1 (Section IV-C): one node, 8 ranks × 1 thread (one rank per
/// NUMA domain), 400³ elements, 50 % imbalance.
pub fn minife_1() -> BenchmarkInstance {
    let mut b = MiniFeConfig {
        nx: 400,
        ranks: 8,
        threads_per_rank: 1,
        imbalance_pct: 50,
        cg_iters: 150,
        costs: MiniFeCosts::default(),
    }
    .build();
    b.name = "MiniFE-1".into();
    b
}

/// MiniFE-2: as MiniFE-1 with 16 threads per rank (whole node).
pub fn minife_2() -> BenchmarkInstance {
    let mut b = MiniFeConfig {
        nx: 400,
        ranks: 8,
        threads_per_rank: 16,
        imbalance_pct: 50,
        cg_iters: 150,
        costs: MiniFeCosts::default(),
    }
    .build();
    b.name = "MiniFE-2".into();
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_splits_three_to_one() {
        let cfg = MiniFeConfig {
            nx: 40,
            ranks: 8,
            threads_per_rank: 1,
            imbalance_pct: 50,
            cg_iters: 5,
            costs: MiniFeCosts::default(),
        };
        let heavy = cfg.elements_of(0);
        let light = cfg.elements_of(7);
        let ratio = heavy as f64 / light as f64;
        assert!((ratio - 3.0).abs() < 0.01, "50% imbalance means 3x: {ratio}");
        // Totals add up (within rounding).
        let total: u64 = (0..8).map(|r| cfg.elements_of(r)).sum();
        assert!((total as i64 - 64_000).abs() < 16);
    }

    #[test]
    fn no_imbalance_is_even() {
        let cfg = MiniFeConfig {
            nx: 40,
            ranks: 8,
            threads_per_rank: 1,
            imbalance_pct: 0,
            cg_iters: 5,
            costs: MiniFeCosts::default(),
        };
        for r in 0..8 {
            assert_eq!(cfg.elements_of(r), 8000);
        }
    }

    #[test]
    fn named_configs_validate() {
        let b1 = minife_1();
        assert_eq!(b1.name, "MiniFE-1");
        assert_eq!(b1.layout.threads_per_rank, 1);
        let b2 = minife_2();
        assert_eq!(b2.layout.threads_per_rank, 16);
        assert_eq!(b2.program.n_ranks(), 8);
    }

    #[test]
    fn program_has_expected_phases_and_regions() {
        let b = minife_1();
        assert!(b.program.phases.contains(&"init".to_string()));
        assert!(b.program.phases.contains(&"solve".to_string()));
        assert!(b.program.phases.contains(&"structure_gen".to_string()));
        assert!(b.program.regions.find("generate_matrix_structure").is_some());
        assert!(b.program.regions.find("make_local_matrix").is_some());
        assert!(b.program.regions.find("cg_solve").is_some());
    }
}
