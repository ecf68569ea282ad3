//! Region preparation: extend the program's region table with the
//! runtime regions the engine will enter (MPI API calls, OpenMP fork/join
//! and implicit barriers).
//!
//! Interning happens in a single deterministic scan, so the table — and
//! therefore every region id in the resulting trace — is identical across
//! repetitions and clock modes.

use nrlt_prog::{
    Action, MpiOp, OmpAction, ParallelRegion, Program, RegionId, RegionKind, RegionTable,
};
use std::collections::HashSet;

/// Derived region ids for one parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRegions {
    /// `!$omp fork @name` management region (master only).
    pub fork: RegionId,
    /// `!$omp join @name` management region (master only).
    pub join: RegionId,
    /// Implicit barrier at the end of the parallel region.
    pub end_barrier: RegionId,
}

/// Strip the Opari2-style prefix from a construct region name, returning
/// the user-facing construct name.
fn construct_name(full: &str) -> &str {
    full.split_once('@').map(|(_, n)| n).unwrap_or(full)
}

/// Intern all runtime regions referenced by `program` into a copy of its
/// region table.
///
/// Interning a name a second time is a no-op, so the scan skips what it
/// has interned already: an MPI API name it has seen, and a parallel
/// body it has scanned for the same parallel region (ranks share equal
/// bodies). The table and its first-occurrence order stay the same.
pub fn prepare_regions(program: &Program) -> RegionTable {
    let mut table = program.regions.clone();
    let mut apis: Vec<&'static str> = Vec::new();
    let mut scanned: HashSet<(RegionId, *const OmpAction)> = HashSet::new();
    for action in program.ranks.iter().flatten() {
        match action {
            Action::Mpi(op) if !apis.contains(&op.api_name()) => {
                apis.push(op.api_name());
                table.intern(op.api_name(), RegionKind::Mpi);
            }
            Action::Parallel(pr) if scanned.insert((pr.region, pr.body.as_ptr())) => {
                intern_parallel(&mut table, pr);
            }
            _ => {}
        }
    }
    table
}

/// Intern the fork, join and implicit barriers of one parallel region.
fn intern_parallel(table: &mut RegionTable, pr: &ParallelRegion) {
    let name = construct_name(table.name(pr.region)).to_owned();
    table.intern(&format!("!$omp fork @{name}"), RegionKind::OmpFork);
    table.intern(&format!("!$omp join @{name}"), RegionKind::OmpFork);
    table.intern(&format!("!$omp implicit barrier @{name}"), RegionKind::OmpImplicitBarrier);
    for body in pr.body.iter() {
        let construct = match body {
            OmpAction::For(f) if !f.nowait => f.region,
            OmpAction::Single { region, nowait: false, .. } => *region,
            _ => continue,
        };
        let name = construct_name(table.name(construct)).to_owned();
        table.intern(&format!("!$omp implicit barrier @{name}"), RegionKind::OmpImplicitBarrier);
    }
}

/// [`prepare_regions`] as a full scan of every parallel body of every
/// rank: the oracle for the deduplicated scan.
#[cfg(test)]
pub(crate) fn prepare_regions_full_scan(program: &Program) -> RegionTable {
    let mut table = program.regions.clone();
    for actions in &program.ranks {
        for action in actions {
            match action {
                Action::Mpi(op) => {
                    table.intern(op.api_name(), RegionKind::Mpi);
                }
                Action::Parallel(pr) => {
                    let name = construct_name(table.name(pr.region)).to_owned();
                    table.intern(&format!("!$omp fork @{name}"), RegionKind::OmpFork);
                    table.intern(&format!("!$omp join @{name}"), RegionKind::OmpFork);
                    table.intern(
                        &format!("!$omp implicit barrier @{name}"),
                        RegionKind::OmpImplicitBarrier,
                    );
                    for body in pr.body.iter() {
                        match body {
                            OmpAction::For(f) if !f.nowait => {
                                let ln = construct_name(table.name(f.region)).to_owned();
                                table.intern(
                                    &format!("!$omp implicit barrier @{ln}"),
                                    RegionKind::OmpImplicitBarrier,
                                );
                            }
                            OmpAction::Single { region, nowait: false, .. } => {
                                let sn = construct_name(table.name(*region)).to_owned();
                                table.intern(
                                    &format!("!$omp implicit barrier @{sn}"),
                                    RegionKind::OmpImplicitBarrier,
                                );
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
    }
    table
}

/// The derived region `{prefix} @name` of the construct `region`, if
/// [`prepare_regions`] interned it.
fn derived(table: &RegionTable, region: RegionId, prefix: &str) -> Option<RegionId> {
    table.find(&format!("{prefix} @{}", construct_name(table.name(region))))
}

/// Look up the derived regions of a parallel region (after
/// [`prepare_regions`]).
pub fn parallel_regions(table: &RegionTable, parallel_region: RegionId) -> ParallelRegions {
    let find = |prefix: &str| {
        derived(table, parallel_region, prefix).unwrap_or_else(|| {
            panic!(
                "missing derived region `{prefix} @{}`",
                construct_name(table.name(parallel_region))
            )
        })
    };
    ParallelRegions {
        fork: find("!$omp fork"),
        join: find("!$omp join"),
        end_barrier: find("!$omp implicit barrier"),
    }
}

/// Look up the implicit-barrier region of a worksharing construct.
pub fn implicit_barrier_of(table: &RegionTable, construct: RegionId) -> RegionId {
    derived(table, construct, "!$omp implicit barrier").unwrap_or_else(|| {
        panic!("missing implicit barrier for @{}", construct_name(table.name(construct)))
    })
}

/// Every region's derived ids, resolved once per prepared table into
/// dense arrays indexed by [`RegionId`], so the engine's per-construct
/// lookup is an array load instead of a formatted name and a hash probe.
///
/// Where [`parallel_regions`] and [`implicit_barrier_of`] return an id,
/// [`parallel`](Self::parallel) and
/// [`implicit_barrier`](Self::implicit_barrier) return the same id;
/// where they panic, these return `None`.
#[derive(Debug)]
pub struct DerivedRegions {
    /// Fork, join and end barrier, when all three were interned.
    parallel: Vec<Option<ParallelRegions>>,
    /// `!$omp implicit barrier @name`, when interned.
    barrier: Vec<Option<RegionId>>,
}

impl DerivedRegions {
    /// Resolve the derived ids of every region in `table`.
    pub fn new(table: &RegionTable) -> Self {
        let ids = || table.iter().map(|(id, _)| id);
        let barrier: Vec<_> = ids().map(|r| derived(table, r, "!$omp implicit barrier")).collect();
        let parallel = ids()
            .zip(&barrier)
            .map(|(r, &end_barrier)| {
                Some(ParallelRegions {
                    fork: derived(table, r, "!$omp fork")?,
                    join: derived(table, r, "!$omp join")?,
                    end_barrier: end_barrier?,
                })
            })
            .collect();
        DerivedRegions { parallel, barrier }
    }

    /// The derived regions of a parallel region.
    pub fn parallel(&self, parallel_region: RegionId) -> Option<ParallelRegions> {
        self.parallel[parallel_region.0 as usize]
    }

    /// The implicit-barrier region of a worksharing construct.
    pub fn implicit_barrier(&self, construct: RegionId) -> Option<RegionId> {
        self.barrier[construct.0 as usize]
    }
}

/// Map a program MPI op to the trace collective kind.
pub(crate) fn collective_kind(op: &MpiOp) -> Option<nrlt_trace::CollectiveOp> {
    use nrlt_trace::CollectiveOp as C;
    Some(match op {
        MpiOp::Barrier => C::Barrier,
        MpiOp::Allreduce { .. } => C::Allreduce,
        MpiOp::Alltoall { .. } => C::Alltoall,
        MpiOp::Allgather { .. } => C::Allgather,
        MpiOp::Bcast { .. } => C::Bcast,
        MpiOp::Reduce { .. } => C::Reduce,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_prog::{Cost, IterCost, ProgramBuilder, Schedule};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new(2);
        for r in 0..2 {
            let mut rb = pb.rank(r);
            rb.scoped("main", |rb| {
                rb.parallel("work", |omp| {
                    omp.for_loop(
                        "loop",
                        100,
                        Schedule::Static,
                        IterCost::Uniform(Cost::scalar(10)),
                        0,
                    );
                    omp.single("setup", Cost::scalar(5), 0);
                });
                rb.allreduce(8);
                if r == 0 {
                    rb.send(1, 0, 64);
                } else {
                    rb.recv(0, 0, 64);
                }
            });
        }
        pb.finish()
    }

    #[test]
    fn interns_mpi_regions() {
        let p = sample();
        let t = prepare_regions(&p);
        assert!(t.find("MPI_Allreduce").is_some());
        assert!(t.find("MPI_Send").is_some());
        assert!(t.find("MPI_Recv").is_some());
        assert!(t.find("MPI_Alltoall").is_none());
    }

    #[test]
    fn interns_parallel_derived_regions() {
        let p = sample();
        let t = prepare_regions(&p);
        let pr = t.find("!$omp parallel @work").unwrap();
        let derived = parallel_regions(&t, pr);
        assert_eq!(t.name(derived.fork), "!$omp fork @work");
        assert_eq!(t.name(derived.join), "!$omp join @work");
        assert_eq!(t.kind(derived.fork), RegionKind::OmpFork);
        assert_eq!(t.kind(derived.end_barrier), RegionKind::OmpImplicitBarrier);
    }

    #[test]
    fn interns_loop_and_single_barriers() {
        let p = sample();
        let t = prepare_regions(&p);
        let lp = t.find("!$omp for @loop").unwrap();
        let ib = implicit_barrier_of(&t, lp);
        assert_eq!(t.name(ib), "!$omp implicit barrier @loop");
        let sg = t.find("!$omp single @setup").unwrap();
        assert_eq!(t.name(implicit_barrier_of(&t, sg)), "!$omp implicit barrier @setup");
    }

    #[test]
    fn derived_table_matches_lookups_and_misses_unprepared_regions() {
        let p = sample();
        let t = prepare_regions(&p);
        let d = DerivedRegions::new(&t);
        let pr = t.find("!$omp parallel @work").unwrap();
        let lp = t.find("!$omp for @loop").unwrap();
        assert_eq!(d.parallel(pr), Some(parallel_regions(&t, pr)));
        assert_eq!(d.implicit_barrier(lp), Some(implicit_barrier_of(&t, lp)));
        // The program's own table has the constructs (same ids) but not
        // their derived regions.
        let raw = DerivedRegions::new(&p.regions);
        assert_eq!(raw.parallel(pr), None);
        assert_eq!(raw.implicit_barrier(lp), None);
    }

    #[test]
    fn preparation_is_deterministic() {
        let p = sample();
        let a = prepare_regions(&p);
        let b = prepare_regions(&p);
        let names_a: Vec<_> = a.iter().map(|(_, r)| r.name.clone()).collect();
        let names_b: Vec<_> = b.iter().map(|(_, r)| r.name.clone()).collect();
        assert_eq!(names_a, names_b);
    }

    /// Every region's name and kind, in id order.
    fn regions_of(table: &RegionTable) -> Vec<(String, RegionKind)> {
        table.iter().map(|(_, r)| (r.name.clone(), r.kind)).collect()
    }

    fn assert_scan_matches_oracle(p: &Program, what: &str) {
        assert_eq!(
            regions_of(&prepare_regions(p)),
            regions_of(&prepare_regions_full_scan(p)),
            "{what}"
        );
    }

    #[test]
    fn deduplicated_scan_matches_full_scan_on_paper_and_weak_instances() {
        use nrlt_miniapps::{
            all_configurations, LuleshConfig, LuleshCosts, MiniFeConfig, MiniFeCosts,
            TeaLeafConfig, TeaLeafCosts,
        };
        for inst in all_configurations() {
            assert_scan_matches_oracle(&inst.program, &inst.name);
        }
        // The weak-scaling sweep's 64-rank sizes.
        let minife = MiniFeConfig {
            nx: 48,
            ranks: 64,
            threads_per_rank: 1,
            imbalance_pct: 0,
            cg_iters: 5,
            costs: MiniFeCosts::default(),
        };
        let lulesh = LuleshConfig {
            ranks: 64,
            threads_per_rank: 1,
            edge: 6,
            steps: 4,
            imbalance: 0.25,
            spread_placement: false,
            nodes: 1,
            costs: LuleshCosts::default(),
        };
        let tealeaf = TeaLeafConfig {
            n: 512,
            ranks: 64,
            threads_per_rank: 1,
            steps: 2,
            cg_per_step: 4,
            costs: TeaLeafCosts::default(),
        };
        assert_scan_matches_oracle(&minife.build().program, "MiniFE-weak-64");
        assert_scan_matches_oracle(&lulesh.build().program, "LULESH-weak-64");
        assert_scan_matches_oracle(&tealeaf.build().program, "TeaLeaf-weak-64");
    }

    #[test]
    fn deduplicated_scan_matches_full_scan_when_ranks_differ_in_body() {
        // Rank 1's body under `work` has an extra construct, so it gets
        // its own allocation and must be scanned too.
        let mut pb = ProgramBuilder::new(2);
        for r in 0..2 {
            pb.rank(r).scoped("main", |rb| {
                rb.parallel("work", |omp| {
                    omp.for_loop("a", 10, Schedule::Static, IterCost::Uniform(Cost::scalar(1)), 0);
                    if r == 1 {
                        omp.single("only_on_1", Cost::scalar(1), 0);
                    }
                });
            });
        }
        let p = pb.finish();
        let (Action::Parallel(a), Action::Parallel(b)) = (&p.ranks[0][1], &p.ranks[1][1]) else {
            panic!("expected parallel regions");
        };
        assert!(!std::sync::Arc::ptr_eq(&a.body, &b.body));
        assert_scan_matches_oracle(&p, "two bodies under one region");
        assert!(prepare_regions(&p).find("!$omp implicit barrier @only_on_1").is_some());
    }

    #[test]
    fn deduplicated_scan_matches_full_scan_when_regions_share_a_body() {
        // Two parallel regions built by hand around one allocation: the
        // second region's fork, join and end barrier must still be
        // interned.
        let mut p = ProgramBuilder::new(1).finish();
        let lp = p.regions.intern("!$omp for @shared_loop", RegionKind::OmpLoop);
        let body: std::sync::Arc<[OmpAction]> = [OmpAction::For(nrlt_prog::OmpFor {
            region: lp,
            iters: 8,
            schedule: Schedule::Static,
            iter_cost: IterCost::Uniform(Cost::scalar(1)),
            working_set: 0,
            nowait: false,
        })]
        .into();
        for name in ["!$omp parallel @first", "!$omp parallel @second"] {
            let region = p.regions.intern(name, RegionKind::OmpParallel);
            p.ranks[0].push(Action::Parallel(ParallelRegion { region, body: body.clone() }));
        }
        assert_scan_matches_oracle(&p, "two regions sharing one body");
        let t = prepare_regions(&p);
        for name in ["first", "second"] {
            let pr = t.find(&format!("!$omp parallel @{name}")).unwrap();
            assert_eq!(t.name(parallel_regions(&t, pr).join), format!("!$omp join @{name}"));
        }
    }

    #[test]
    fn collective_kinds() {
        assert_eq!(collective_kind(&MpiOp::Barrier), Some(nrlt_trace::CollectiveOp::Barrier));
        assert_eq!(
            collective_kind(&MpiOp::Allreduce { bytes: 8 }),
            Some(nrlt_trace::CollectiveOp::Allreduce)
        );
    }
}
