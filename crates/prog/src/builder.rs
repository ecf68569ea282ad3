//! Fluent builders for assembling rank programs.
//!
//! Mini-app skeletons use these builders to express their structure the
//! way the original sources read: enter a function, run kernels and
//! parallel loops, exchange halos, leave. Region names are interned once
//! and shared across ranks.

use crate::action::{
    Action, CallBurst, Kernel, MpiOp, OmpAction, OmpFor, ParallelRegion, PhaseId, Schedule,
};
use crate::cost::{Cost, IterCost};
use crate::program::Program;
use crate::region::{RegionId, RegionKind, RegionTable};
use std::collections::HashMap;
use std::sync::Arc;

/// Builder for a whole multi-rank [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    regions: RegionTable,
    phases: Vec<String>,
    phase_by_name: HashMap<String, PhaseId>,
    ranks: Vec<Vec<Action>>,
    /// The last body built per parallel region, shared by every later
    /// body equal to it.
    last_body: HashMap<RegionId, Arc<[OmpAction]>>,
}

impl ProgramBuilder {
    /// Start a program with `n_ranks` empty rank lists.
    pub fn new(n_ranks: u32) -> Self {
        ProgramBuilder {
            regions: RegionTable::new(),
            phases: Vec::new(),
            phase_by_name: HashMap::new(),
            ranks: vec![Vec::new(); n_ranks as usize],
            last_body: HashMap::new(),
        }
    }

    /// Get the builder for one rank's action list.
    pub fn rank(&mut self, rank: u32) -> RankBuilder<'_> {
        assert!((rank as usize) < self.ranks.len(), "rank {rank} out of range");
        RankBuilder { pb: self, rank }
    }

    /// Finish and return the program, each rank's list at its exact
    /// size. Call [`Program::validate`] before handing the result to the
    /// engine.
    pub fn finish(mut self) -> Program {
        for actions in &mut self.ranks {
            actions.shrink_to_fit();
        }
        Program { regions: self.regions, phases: self.phases, ranks: self.ranks }
    }
}

/// Builder for one rank's action list.
#[derive(Debug)]
pub struct RankBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    rank: u32,
}

impl<'a> RankBuilder<'a> {
    fn push(&mut self, action: Action) {
        self.pb.ranks[self.rank as usize].push(action);
    }

    /// This builder's rank.
    pub fn rank_id(&self) -> u32 {
        self.rank
    }

    /// Intern (or look up) a stopwatch phase by name.
    pub fn phase(&mut self, name: &str) -> PhaseId {
        if let Some(&id) = self.pb.phase_by_name.get(name) {
            return id;
        }
        let id = PhaseId(self.pb.phases.len() as u32);
        self.pb.phases.push(name.to_owned());
        self.pb.phase_by_name.insert(name.to_owned(), id);
        id
    }

    /// Start the named stopwatch.
    pub fn phase_start(&mut self, phase: PhaseId) {
        self.push(Action::PhaseStart(phase));
    }

    /// Stop the named stopwatch.
    pub fn phase_end(&mut self, phase: PhaseId) {
        self.push(Action::PhaseEnd(phase));
    }

    /// Enter a user function region.
    pub fn enter(&mut self, name: &str) -> RegionId {
        let id = self.pb.regions.intern(name, RegionKind::User);
        self.push(Action::Enter(id));
        id
    }

    /// Leave the innermost open region. The builder tracks the stack so
    /// the matching id is recorded for validation.
    pub fn leave(&mut self) {
        // Reconstruct the innermost open region from the recorded actions.
        let mut depth = 0;
        let actions = &self.pb.ranks[self.rank as usize];
        let mut open = None;
        for a in actions.iter().rev() {
            match a {
                Action::Leave(_) => depth += 1,
                Action::Enter(r) => {
                    if depth == 0 {
                        open = Some(*r);
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        let r = open.expect("leave() without an open region");
        self.push(Action::Leave(r));
    }

    /// Enter `name`, run `body`, leave.
    pub fn scoped(&mut self, name: &str, body: impl FnOnce(&mut RankBuilder<'_>)) {
        self.enter(name);
        body(self);
        self.leave();
    }

    /// Serial kernel on the master thread.
    pub fn kernel(&mut self, cost: Cost, working_set: u64) {
        self.push(Action::Kernel(Box::new(Kernel::new(cost, working_set))));
    }

    /// Serial kernel whose work happens in `calls` calls to `callee`.
    pub fn kernel_burst(&mut self, callee: &str, calls: u64, cost: Cost, working_set: u64) {
        let callee = self.pb.regions.intern(callee, RegionKind::User);
        self.push(Action::Kernel(Box::new(Kernel {
            cost,
            working_set,
            burst: Some(CallBurst { callee, calls }),
        })));
    }

    /// OpenMP parallel region; `body` populates its constructs. A body
    /// equal to the last one built for the same region shares its
    /// allocation.
    pub fn parallel(&mut self, name: &str, body: impl FnOnce(&mut OmpBuilder<'_>)) {
        let region =
            self.pb.regions.intern(&format!("!$omp parallel @{name}"), RegionKind::OmpParallel);
        let mut omp =
            OmpBuilder { regions: &mut self.pb.regions, name: name.to_owned(), body: Vec::new() };
        body(&mut omp);
        let body = match self.pb.last_body.get(&region) {
            Some(last) if **last == *omp.body => Arc::clone(last),
            _ => {
                let body: Arc<[OmpAction]> = omp.body.into();
                self.pb.last_body.insert(region, Arc::clone(&body));
                body
            }
        };
        self.push(Action::Parallel(ParallelRegion { region, body }));
    }

    /// Blocking send.
    pub fn send(&mut self, dest: u32, tag: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Send { dest, tag, bytes }));
    }

    /// Blocking receive.
    pub fn recv(&mut self, src: u32, tag: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Recv { src, tag, bytes }));
    }

    /// Blocking wildcard receive (`MPI_ANY_SOURCE`).
    pub fn recv_any(&mut self, tag: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::RecvAny { tag, bytes }));
    }

    /// Non-blocking send.
    pub fn isend(&mut self, dest: u32, tag: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Isend { dest, tag, bytes }));
    }

    /// Non-blocking receive.
    pub fn irecv(&mut self, src: u32, tag: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Irecv { src, tag, bytes }));
    }

    /// Non-blocking allreduce (completes in [`RankBuilder::waitall`]).
    pub fn iallreduce(&mut self, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Iallreduce { bytes }));
    }

    /// Non-blocking barrier (completes in [`RankBuilder::waitall`]).
    pub fn ibarrier(&mut self) {
        self.push(Action::Mpi(MpiOp::Ibarrier));
    }

    /// Complete all pending non-blocking operations.
    pub fn waitall(&mut self) {
        self.push(Action::Mpi(MpiOp::Waitall));
    }

    /// World barrier.
    pub fn mpi_barrier(&mut self) {
        self.push(Action::Mpi(MpiOp::Barrier));
    }

    /// Allreduce of `bytes` per rank.
    pub fn allreduce(&mut self, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Allreduce { bytes }));
    }

    /// All-to-all of `bytes` per peer.
    pub fn alltoall(&mut self, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Alltoall { bytes }));
    }

    /// Allgather of `bytes` per rank.
    pub fn allgather(&mut self, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Allgather { bytes }));
    }

    /// Broadcast from `root`.
    pub fn bcast(&mut self, root: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Bcast { root, bytes }));
    }

    /// Reduce to `root`.
    pub fn reduce(&mut self, root: u32, bytes: u64) {
        self.push(Action::Mpi(MpiOp::Reduce { root, bytes }));
    }
}

/// Builder for the body of one parallel region.
#[derive(Debug)]
pub struct OmpBuilder<'a> {
    regions: &'a mut RegionTable,
    name: String,
    body: Vec<OmpAction>,
}

impl<'a> OmpBuilder<'a> {
    /// Worksharing loop with implicit barrier.
    pub fn for_loop(
        &mut self,
        loop_name: &str,
        iters: u64,
        schedule: Schedule,
        iter_cost: IterCost,
        working_set: u64,
    ) {
        let region = self.regions.intern(&format!("!$omp for @{loop_name}"), RegionKind::OmpLoop);
        self.body.push(OmpAction::For(OmpFor {
            region,
            iters,
            schedule,
            iter_cost,
            working_set,
            nowait: false,
        }));
    }

    /// Explicit barrier.
    pub fn barrier(&mut self) {
        let region =
            self.regions.intern(&format!("!$omp barrier @{}", self.name), RegionKind::OmpBarrier);
        self.body.push(OmpAction::Barrier(region));
    }

    /// `single` construct with implicit barrier.
    pub fn single(&mut self, name: &str, cost: Cost, working_set: u64) {
        let region = self.regions.intern(&format!("!$omp single @{name}"), RegionKind::OmpSingle);
        self.body.push(OmpAction::Single {
            region,
            kernel: Kernel::new(cost, working_set),
            nowait: false,
        });
    }

    /// `master` construct (no barrier).
    pub fn master(&mut self, name: &str, cost: Cost, working_set: u64) {
        let region = self.regions.intern(&format!("!$omp master @{name}"), RegionKind::OmpMaster);
        self.body.push(OmpAction::Master { region, kernel: Kernel::new(cost, working_set) });
    }

    /// `critical` section entered once per thread.
    pub fn critical(&mut self, name: &str, cost: Cost) {
        let region =
            self.regions.intern(&format!("!$omp critical @{name}"), RegionKind::OmpCritical);
        self.body.push(OmpAction::Critical { region, cost });
    }

    /// SPMD block executed by every thread.
    pub fn replicated(&mut self, cost: Cost, working_set: u64) {
        self.body.push(OmpAction::Replicated(Kernel::new(cost, working_set)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn builder_produces_expected_actions() {
        let mut pb = ProgramBuilder::new(1);
        {
            let mut rb = pb.rank(0);
            rb.scoped("main", |rb| {
                rb.kernel(Cost::scalar(100), 64);
                rb.parallel("work", |omp| {
                    omp.for_loop(
                        "loop",
                        1000,
                        Schedule::Static,
                        IterCost::Uniform(Cost::scalar(5)),
                        0,
                    );
                    omp.barrier();
                    omp.master("io", Cost::scalar(50), 0);
                });
                rb.allreduce(8);
            });
        }
        let p = pb.finish();
        assert!(p.validate().is_ok());
        let a = &p.ranks[0];
        assert!(matches!(a[0], Action::Enter(_)));
        assert!(matches!(a[1], Action::Kernel(_)));
        match &a[2] {
            Action::Parallel(pr) => {
                assert_eq!(pr.body.len(), 3);
                assert!(matches!(pr.body[0], OmpAction::For(_)));
                assert!(matches!(pr.body[1], OmpAction::Barrier(_)));
                assert!(matches!(pr.body[2], OmpAction::Master { .. }));
            }
            other => panic!("expected parallel, got {other:?}"),
        }
        assert!(matches!(a[3], Action::Mpi(MpiOp::Allreduce { bytes: 8 })));
        assert!(matches!(a[4], Action::Leave(_)));
    }

    #[test]
    fn nested_scoped_leaves_match() {
        let mut pb = ProgramBuilder::new(1);
        {
            let mut rb = pb.rank(0);
            rb.scoped("outer", |rb| {
                rb.scoped("inner", |rb| {
                    rb.kernel(Cost::scalar(1), 0);
                });
            });
        }
        let p = pb.finish();
        assert!(p.validate().is_ok());
        // Leave records carry the matching ids.
        let outer = p.regions.find("outer").unwrap();
        let inner = p.regions.find("inner").unwrap();
        let a = &p.ranks[0];
        assert_eq!(a[0], Action::Enter(outer));
        assert_eq!(a[1], Action::Enter(inner));
        assert!(matches!(a[3], Action::Leave(r) if r == inner));
        assert!(matches!(a[4], Action::Leave(r) if r == outer));
    }

    #[test]
    fn phases_are_interned_once() {
        let mut pb = ProgramBuilder::new(2);
        let p0 = pb.rank(0).phase("solve");
        let p1 = pb.rank(1).phase("solve");
        assert_eq!(p0, p1);
        let prog = pb.finish();
        assert_eq!(prog.phases, vec!["solve".to_owned()]);
    }

    #[test]
    fn omp_regions_get_opari_style_names() {
        let mut pb = ProgramBuilder::new(1);
        pb.rank(0).parallel("cg", |omp| {
            omp.for_loop("matvec", 10, Schedule::Static, IterCost::Uniform(Cost::scalar(1)), 0);
        });
        let p = pb.finish();
        assert!(p.regions.find("!$omp parallel @cg").is_some());
        assert!(p.regions.find("!$omp for @matvec").is_some());
    }

    /// The body of every parallel region on `rank`, in program order.
    fn bodies(p: &Program, rank: usize) -> Vec<&Arc<[OmpAction]>> {
        p.ranks[rank]
            .iter()
            .filter_map(|a| match a {
                Action::Parallel(pr) => Some(&pr.body),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn equal_bodies_share_one_allocation() {
        let mut pb = ProgramBuilder::new(3);
        for r in 0..3 {
            pb.rank(r).scoped("main", |rb| {
                for _ in 0..2 {
                    rb.parallel("work", |omp| {
                        omp.for_loop("l", 64, Schedule::Static, IterCost::Uniform(Cost::ZERO), 0);
                        omp.barrier();
                    });
                }
            });
        }
        let p = pb.finish();
        let first = bodies(&p, 0)[0];
        for r in 0..3 {
            for body in bodies(&p, r) {
                assert!(Arc::ptr_eq(first, body), "rank {r}");
            }
        }
    }

    #[test]
    fn unequal_bodies_never_share() {
        let mut pb = ProgramBuilder::new(4);
        for r in 0..4u32 {
            let mut rb = pb.rank(r);
            // Rank-dependent iteration counts, alternating back to an
            // earlier value: only the last body per region is reused.
            rb.parallel("work", |omp| {
                let iters = 10 + u64::from(r % 2);
                omp.for_loop("l", iters, Schedule::Static, IterCost::Uniform(Cost::ZERO), 0);
            });
            // A NaN ramp factor is never equal, not even to itself.
            rb.parallel("nan", |omp| {
                let iter_cost = IterCost::Ramp { base: Cost::scalar(1), last_factor: f64::NAN };
                omp.for_loop("r", 10, Schedule::Static, iter_cost, 0);
            });
        }
        let p = pb.finish();
        let all: Vec<_> = (0..4).flat_map(|r| bodies(&p, r)).collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert!(!Arc::ptr_eq(a, b));
            }
        }
        // Equal bodies under a different region are not shared either.
        let mut pb = ProgramBuilder::new(1);
        for name in ["a", "b"] {
            pb.rank(0).parallel(name, |omp| omp.replicated(Cost::scalar(1), 0));
        }
        let p = pb.finish();
        assert!(!Arc::ptr_eq(bodies(&p, 0)[0], bodies(&p, 0)[1]));
    }

    #[test]
    fn finish_leaves_rank_lists_at_exact_size() {
        let mut pb = ProgramBuilder::new(2);
        for r in 0..2 {
            pb.rank(r).scoped("main", |rb| {
                for _ in 0..5 {
                    rb.kernel(Cost::scalar(1), 0);
                }
            });
        }
        let p = pb.finish();
        assert!(p.ranks.iter().all(|a| a.len() == 7 && a.capacity() == a.len()));
    }

    #[test]
    #[should_panic(expected = "without an open region")]
    fn leave_without_enter_panics() {
        let mut pb = ProgramBuilder::new(1);
        pb.rank(0).leave();
    }
}
