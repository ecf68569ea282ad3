//! Profile-mode measurement (Score-P's `SCOREP_ENABLE_PROFILING`).
//!
//! Besides tracing, Score-P can aggregate call-path metrics *during the
//! run*, with a fraction of the memory: no events are stored, only
//! per-(call path, location) accumulators. The paper's workflow uses
//! tracing + Scalasca, but its run-to-run comparisons reference plain
//! profiles (Ritter et al.); this observer provides them — and doubles
//! as an independent oracle: the computation times it accumulates online
//! must equal what the trace analyzer reconstructs offline.
//!
//! Only the chosen clock's notion of duration is accumulated; wait-state
//! decomposition needs the trace analysis.

use crate::filter::FilterRules;
use crate::modes::ClockMode;
use nrlt_exec::{EventInfo, ExecConfig, Observer, RuntimeKind, WorkItem};
use nrlt_prog::{Cost, RegionId, RegionTable};
use nrlt_sim::{Location, VirtualDuration, VirtualTime};
use std::collections::HashMap;

/// A call-path profile accumulated online: `(path string, location) →
/// (visits, exclusive ticks)`.
#[derive(Debug, Clone, Default)]
pub struct OnlineProfile {
    /// Exclusive ticks per (call path string, location index).
    pub exclusive: HashMap<(String, usize), u64>,
    /// Visit counts per (call path string, location index).
    pub visits: HashMap<(String, usize), u64>,
}

impl OnlineProfile {
    /// Exclusive ticks of a call path summed over locations.
    pub fn exclusive_of(&self, path: &str) -> u64 {
        self.exclusive.iter().filter(|((p, _), _)| p == path).map(|(_, v)| v).sum()
    }

    /// Total exclusive ticks.
    pub fn total(&self) -> u64 {
        self.exclusive.values().sum()
    }
}

/// Per-location online state.
#[derive(Debug, Clone, Default)]
struct LocState {
    /// Stack of (region name, child-exclusive ticks consumed so far).
    stack: Vec<String>,
    /// Timestamp of the previous event in this clock.
    last: u64,
    /// Logical counter.
    counter: u64,
    /// Pending work since the last event.
    pending_cost: Cost,
    pending_iters: u64,
}

/// Observer that builds an [`OnlineProfile`] with a per-event cost of a
/// profile-mode measurement (cheaper than tracing, tiny footprint).
pub struct ProfilingObserver<'a> {
    mode: ClockMode,
    regions: &'a RegionTable,
    filter: FilterRules,
    states: Vec<LocState>,
    profile: OnlineProfile,
    threads_per_rank: u32,
    /// Per-event accounting cost, seconds.
    pub event_cost: f64,
}

impl<'a> ProfilingObserver<'a> {
    /// Create a profiling observer for `regions` under `exec_config`.
    pub fn new(
        mode: ClockMode,
        regions: &'a RegionTable,
        exec_config: &ExecConfig,
        filter: FilterRules,
    ) -> Self {
        assert!(
            matches!(
                mode,
                ClockMode::Tsc
                    | ClockMode::Lt1
                    | ClockMode::LtLoop
                    | ClockMode::LtBb
                    | ClockMode::LtStmt
            ),
            "profile mode supports the deterministic clocks"
        );
        ProfilingObserver {
            mode,
            regions,
            filter,
            states: vec![LocState::default(); exec_config.layout.locations() as usize],
            profile: OnlineProfile::default(),
            threads_per_rank: exec_config.layout.threads_per_rank,
            event_cost: 15e-9,
        }
    }

    /// Finish and return the accumulated profile.
    pub fn into_profile(self) -> OnlineProfile {
        self.profile
    }

    fn idx(&self, loc: Location) -> usize {
        (loc.rank * self.threads_per_rank + loc.thread) as usize
    }

    fn tick(&mut self, idx: usize, now: VirtualTime) -> u64 {
        let st = &mut self.states[idx];
        match self.mode {
            ClockMode::Tsc => now.nanos(),
            ClockMode::Lt1 => {
                st.counter += 1;
                st.counter
            }
            ClockMode::LtLoop => {
                st.counter += 1 + st.pending_iters;
                st.pending_iters = 0;
                st.counter
            }
            ClockMode::LtBb => {
                st.counter += 1 + st.pending_cost.basic_blocks;
                st.pending_cost = Cost::ZERO;
                st.counter
            }
            ClockMode::LtStmt => {
                st.counter += 1 + st.pending_cost.statements;
                st.pending_cost = Cost::ZERO;
                st.counter
            }
            ClockMode::LtHwctr => unreachable!("rejected in new()"),
        }
    }

    /// Charge `ticks` exclusively to the current stack top.
    fn charge(&mut self, idx: usize, ticks: u64) {
        if ticks == 0 {
            return;
        }
        let path = self.states[idx].stack.join("/");
        if path.is_empty() {
            return;
        }
        *self.profile.exclusive.entry((path, idx)).or_default() += ticks;
    }

    fn region_name(&self, region: RegionId) -> &str {
        self.regions.name(region)
    }
}

impl<'a> Observer for ProfilingObserver<'a> {
    fn on_work(&mut self, loc: Location, work: &WorkItem) -> VirtualDuration {
        let idx = self.idx(loc);
        let st = &mut self.states[idx];
        st.pending_cost = st.pending_cost.saturating_add(&work.cost);
        st.pending_iters += work.loop_iters;
        VirtualDuration::ZERO
    }

    fn on_runtime(&mut self, _loc: Location, _kind: RuntimeKind, _d: VirtualDuration) {}

    fn on_spin(&mut self, _loc: Location, _d: VirtualDuration) {}

    fn on_event(&mut self, loc: Location, now: VirtualTime, info: &EventInfo) -> VirtualDuration {
        let idx = self.idx(loc);
        match *info {
            EventInfo::Enter { region } => {
                if self.filter.is_filtered(self.region_name(region)) {
                    return VirtualDuration::ZERO;
                }
                let t = self.tick(idx, now);
                let elapsed = t.saturating_sub(self.states[idx].last);
                self.charge(idx, elapsed);
                let name = self.region_name(region).to_owned();
                let st = &mut self.states[idx];
                st.last = t;
                st.stack.push(name.clone());
                let path = st.stack.join("/");
                *self.profile.visits.entry((path, idx)).or_default() += 1;
            }
            EventInfo::Leave { region } => {
                if self.filter.is_filtered(self.region_name(region)) {
                    return VirtualDuration::ZERO;
                }
                let t = self.tick(idx, now);
                let elapsed = t.saturating_sub(self.states[idx].last);
                self.charge(idx, elapsed);
                let st = &mut self.states[idx];
                st.last = t;
                st.stack.pop();
            }
            EventInfo::Burst { callee, calls, .. } => {
                if self.filter.is_filtered(self.region_name(callee)) {
                    return VirtualDuration::ZERO;
                }
                // Attribute the whole burst span to the callee.
                let before = self.states[idx].last;
                let t = self.tick(idx, now);
                let callee_name = self.region_name(callee).to_owned();
                let st = &mut self.states[idx];
                st.last = t;
                st.stack.push(callee_name);
                let span = t.saturating_sub(before);
                self.charge(idx, span);
                let st = &mut self.states[idx];
                let path = st.stack.join("/");
                st.stack.pop();
                *self.profile.visits.entry((path, idx)).or_default() += calls;
            }
            // Communication records advance the clock but carry no
            // region change; their time lands on the enclosing MPI call.
            _ => {
                let t = self.tick(idx, now);
                let elapsed = t.saturating_sub(self.states[idx].last);
                self.charge(idx, elapsed);
                self.states[idx].last = t;
            }
        }
        VirtualDuration::from_secs_f64(self.event_cost)
    }

    fn piggyback(&mut self, loc: Location) -> u64 {
        if self.mode == ClockMode::Tsc {
            0
        } else {
            self.states[self.idx(loc)].counter
        }
    }

    fn sync_logical(&mut self, loc: Location, incoming: u64) {
        if self.mode != ClockMode::Tsc {
            let idx = self.idx(loc);
            let st = &mut self.states[idx];
            st.counter = st.counter.max(incoming + 1);
        }
    }

    fn counting_instructions(&self, _cost: &Cost, _iters: u64) -> u64 {
        0 // profile mode measures; overhead studies use the tracer
    }

    fn cache_footprint_per_location(&self) -> u64 {
        64 * 1024 // accumulators only: negligible next to trace buffers
    }

    fn desync(&self) -> f64 {
        0.1
    }
}

/// Run `program` in profile mode under `mode`.
pub fn profile_run(
    program: &nrlt_prog::Program,
    exec_config: &ExecConfig,
    mode: ClockMode,
) -> OnlineProfile {
    let regions = nrlt_exec::prepare_regions(program);
    let mut obs = ProfilingObserver::new(mode, &regions, exec_config, FilterRules::none());
    nrlt_exec::execute_prepared_instrumented(
        program,
        &regions,
        exec_config,
        &mut obs,
        None,
        None,
        None,
    );
    obs.into_profile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_prog::ProgramBuilder;
    use nrlt_sim::{JobLayout, NoiseConfig};

    fn program() -> nrlt_prog::Program {
        let mut pb = ProgramBuilder::new(2);
        for r in 0..2 {
            let mut rb = pb.rank(r);
            rb.scoped("main", |rb| {
                rb.scoped("work", |rb| {
                    rb.kernel(Cost::scalar(4_000_000 * (r as u64 + 1)), 0);
                });
                rb.allreduce(8);
            });
        }
        pb.finish()
    }

    fn cfg() -> ExecConfig {
        ExecConfig::jureca(1, JobLayout::block(2, 1), 3).with_noise(NoiseConfig::silent())
    }

    #[test]
    fn online_profile_captures_computation() {
        let p = profile_run(&program(), &cfg(), ClockMode::Tsc);
        let work = p.exclusive_of("main/work");
        // ~0.9ms + ~1.8ms of kernel time inside `work`.
        assert!(work > 2_000_000, "work ticks: {work}");
        assert!(p.total() > work);
        assert_eq!(p.visits.iter().filter(|((s, _), _)| s == "main").count(), 2);
    }

    #[test]
    fn online_profile_matches_trace_analysis() {
        // The online comp time of `work` must equal what the trace
        // analyzer reconstructs (same clock, same run).
        use crate::observer::MeasureConfig;
        let prog = program();
        let config = cfg();
        for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
            let online = profile_run(&prog, &config, mode);
            let mut mc = MeasureConfig::new(mode);
            // Align the perturbations so both runs execute identically.
            mc.overhead.record_event = 15e-9;
            mc.overhead.piggyback_message = 0.0;
            mc.overhead.instr_per_basic_block = 0;
            mc.overhead.instr_per_loop_iter = 0;
            mc.overhead.buffer_footprint = 64 * 1024;
            mc.overhead.desync = 0.1;
            let (trace, _) = crate::measure(&prog, &config, &mc);
            // Reconstruct exclusive "work" time offline.
            let mut offline = 0u64;
            let work_region = trace.defs.find_region("work").unwrap();
            for stream in &trace.streams {
                let mut depth = 0usize;
                let mut enter = 0u64;
                let mut inner = 0u64;
                for ev in stream {
                    match ev.kind {
                        nrlt_trace::EventKind::Enter { region } if region == work_region => {
                            depth = 1;
                            enter = ev.time;
                            inner = 0;
                        }
                        nrlt_trace::EventKind::Enter { .. } if depth > 0 => depth += 1,
                        nrlt_trace::EventKind::Leave { region } if region == work_region => {
                            offline += ev.time - enter - inner;
                            depth = 0;
                        }
                        _ => {}
                    }
                }
            }
            let online_work = online.exclusive_of("main/work");
            let diff = online_work.abs_diff(offline);
            assert!(
                diff <= 4, // ±1 tick per enter/leave pair and location
                "{mode}: online {online_work} vs offline {offline}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "profile mode supports")]
    fn hwctr_profile_mode_rejected() {
        profile_run(&program(), &cfg(), ClockMode::LtHwctr);
    }
}
