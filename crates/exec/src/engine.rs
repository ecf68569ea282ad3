//! The discrete-event replay engine.
//!
//! Executes a multi-rank program over virtual time. Within a rank,
//! OpenMP parallel regions are simulated locally (all their
//! synchronisation is intra-team); across ranks, MPI operations
//! synchronise through deterministic message matching and collective
//! gathering. The engine is *conservative*: an action's completion time
//! is computed only from already-determined times, so results are
//! independent of processing order and bit-reproducible per seed.
//!
//! The [`Observer`] is invoked at every observable point and may charge
//! overhead, exactly as instrumentation perturbs a real run.

use crate::config::ExecConfig;
use crate::duration::{DurationModel, ExecPhase, KernelProbe};
use crate::ladder::LadderQueue;
use crate::observer::{EventInfo, Observer, RuntimeKind, WorkItem};
use crate::regions::{
    collective_kind, implicit_barrier_of, parallel_regions, prepare_regions, DerivedRegions,
    ParallelRegions,
};
use crate::result::ExecResult;
use nrlt_engineprof::{EventKind, RunProf};
use nrlt_mpisim::{message_timing, Channel, CommScope, LinkKind, Matcher};
use nrlt_observe::{NoiseKind, PhaseId as ObsPhase, RunObserve, SeriesId};
use nrlt_ompsim::{simulate_dynamic, static_partition};
use nrlt_prog::{
    Action, Kernel, MpiOp, OmpAction, OmpFor, ParallelRegion, PhaseId, Program, RegionId,
    RegionTable, Schedule,
};
use nrlt_sim::{Location, NoiseModel, Placement, RngFactory, VirtualDuration, VirtualTime};
use nrlt_telemetry::sample::frames;
use nrlt_telemetry::{Phase, Telemetry};
use nrlt_trace::CollectiveOp;
use std::collections::{BTreeMap, VecDeque};

/// `MPI_ANY_SOURCE` sentinel in trace records.
pub const ANY_SOURCE: u32 = u32::MAX;

/// Execute `program` under `config`, reporting everything to `observer`.
///
/// Returns the application-level timings. The observer accumulates
/// whatever it wants (the tracing observer in `nrlt-measure` builds the
/// event trace).
///
/// Panics on deadlock (with matcher diagnostics) and on structural
/// inconsistencies; run [`Program::validate`] first for friendlier
/// errors.
pub fn execute<O: Observer>(
    program: &Program,
    config: &ExecConfig,
    observer: &mut O,
) -> ExecResult {
    execute_prepared_instrumented(
        program,
        &prepare_regions(program),
        config,
        observer,
        None,
        None,
        None,
    )
}

/// [`execute`] over a region table already prepared via
/// [`prepare_regions`] (use this when the observer needs the table to
/// translate region ids; id assignment is deterministic, so both sides
/// agree), with every probe optional. Each `None` probe does zero work:
///
/// * `tel` — self-telemetry: counters for events dispatched, busy-wait
///   conversions, matches and collectives, a ready-queue depth
///   histogram, and the final virtual time;
/// * `obs` — the resource observatory (`nrlt-observe`): counter
///   timelines and noise draws from the simulated machine;
/// * `prof` — the engine self-profiler (`nrlt-engineprof`):
///   per-event-kind costs, queue occupancy, and hot-loop allocations.
///
/// Every probe reads only already-determined virtual times and stateless
/// keyed noise streams, so probing a run never changes its event stream
/// or its result.
pub fn execute_prepared_instrumented<O: Observer>(
    program: &Program,
    regions: &RegionTable,
    config: &ExecConfig,
    observer: &mut O,
    tel: Option<&Telemetry>,
    obs: Option<&RunObserve>,
    prof: Option<&RunProf>,
) -> ExecResult {
    assert_eq!(
        program.n_ranks(),
        config.layout.ranks,
        "program rank count must match the job layout"
    );
    let _phase = Phase::new(tel, "exec", "engine.execute", frames::ENGINE_RUN);
    let mut engine = Engine::new(program, regions, config, observer, tel, obs, prof);
    engine.run();
    engine.into_result()
}

/// What a request is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReqKind {
    Send,
    Recv,
    /// A non-blocking collective; the index into `Engine::collectives`.
    Collective(usize),
}

/// One non-blocking (or internally blocking) communication request.
#[derive(Debug, Clone)]
struct Request {
    kind: ReqKind,
    peer: u32,
    tag: u32,
    bytes: u64,
    /// Send: call-return time. Recv: data-arrival time. Collective:
    /// operation completion time.
    completion: Option<VirtualTime>,
    /// Recv/collective: incoming logical-clock value to merge.
    piggyback: u64,
    consumed: bool,
}

/// Payload the matcher carries for the send side.
#[derive(Debug, Clone, Copy)]
struct SendInfo {
    rank: u32,
    req: usize,
    post: VirtualTime,
    piggyback: u64,
}

/// Payload the matcher carries for the receive side.
#[derive(Debug, Clone, Copy)]
struct RecvInfo {
    rank: u32,
    req: usize,
    post: VirtualTime,
}

#[derive(Debug, Clone, Copy)]
enum WaitKind {
    BlockingRecv { req: usize },
    BlockingSend { req: usize },
    Waitall,
}

#[derive(Debug, Clone, Copy)]
enum Blocked {
    Wait { since: VirtualTime, kind: WaitKind },
    Collective { since: VirtualTime, index: usize },
}

#[derive(Debug)]
struct RankState {
    cursor: usize,
    time: VirtualTime,
    pending: Vec<Request>,
    blocked: Option<Blocked>,
    coll_seq: usize,
    done: bool,
}

/// Virtual-time width of one ladder bucket (1 ms). Ranks of one job stay
/// within a few milliseconds of each other between synchronisations, so
/// the ready list rarely spills past the ring's 64-bucket horizon.
const LADDER_BUCKET_NS: u64 = 1_000_000;

/// Dense slots for the MPI API regions the engine resolves per op.
/// Index = [`mpi_slot`]; replaces the old name-keyed ordered map with a
/// flat arena — the op → region step is one array load in the hot loop.
const MPI_REGION_NAMES: [&str; 13] = [
    "MPI_Send",
    "MPI_Recv",
    "MPI_Isend",
    "MPI_Irecv",
    "MPI_Waitall",
    "MPI_Barrier",
    "MPI_Allreduce",
    "MPI_Alltoall",
    "MPI_Allgather",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Iallreduce",
    "MPI_Ibarrier",
];

/// The [`MPI_REGION_NAMES`] slot of an op (`RecvAny` shares `MPI_Recv`).
fn mpi_slot(op: &MpiOp) -> usize {
    match op {
        MpiOp::Send { .. } => 0,
        MpiOp::Recv { .. } | MpiOp::RecvAny { .. } => 1,
        MpiOp::Isend { .. } => 2,
        MpiOp::Irecv { .. } => 3,
        MpiOp::Waitall => 4,
        MpiOp::Barrier => 5,
        MpiOp::Allreduce { .. } => 6,
        MpiOp::Alltoall { .. } => 7,
        MpiOp::Allgather { .. } => 8,
        MpiOp::Bcast { .. } => 9,
        MpiOp::Reduce { .. } => 10,
        MpiOp::Iallreduce { .. } => 11,
        MpiOp::Ibarrier => 12,
    }
}

/// Per-channel FIFO sequence numbers behind the stable noise keys.
///
/// Channels are interned into dense ids on first use (the cold path);
/// every later match bumps a slot in a flat `Vec` instead of walking an
/// ordered map. The sequence assigned to a given message is a pure
/// function of the per-channel match order, so the interning order —
/// which does depend on engine processing order — never leaks into a
/// result.
#[derive(Debug, Default)]
struct ChannelArena {
    ids: BTreeMap<Channel, u32>,
    seq: Vec<u64>,
}

impl ChannelArena {
    /// Next FIFO sequence number of `channel` (0 on first use).
    fn next_seq(&mut self, channel: Channel) -> u64 {
        let n = self.seq.len();
        let id = *self.ids.entry(channel).or_insert(n as u32);
        if id as usize == n {
            self.seq.push(0);
        }
        let s = self.seq[id as usize];
        self.seq[id as usize] += 1;
        s
    }

    /// Number of distinct channels seen.
    fn len(&self) -> usize {
        self.seq.len()
    }
}

/// Blocked wildcard receives, FIFO per (dst rank, tag).
///
/// Wildcards are rare (none in the benchmark programs), so the book is a
/// flat probe-by-scan arena rather than a map, and the total occupancy
/// is maintained incrementally — the hot loop's gauges read a counter
/// instead of summing queue lengths. Generic over the queued payload so
/// the microbenchmarks can exercise the matching structure directly.
#[derive(Debug)]
pub struct WildcardBook<T> {
    entries: Vec<((u32, u32), VecDeque<T>)>,
    depth: usize,
}

impl<T> Default for WildcardBook<T> {
    fn default() -> WildcardBook<T> {
        WildcardBook { entries: Vec::new(), depth: 0 }
    }
}

impl<T> WildcardBook<T> {
    /// Queue a blocked wildcard receive on (dst, tag).
    /// Returns true when a new (dst, tag) entry had to be created.
    pub fn push(&mut self, key: (u32, u32), info: T) -> bool {
        self.depth += 1;
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, q)) => {
                q.push_back(info);
                false
            }
            None => {
                self.entries.push((key, VecDeque::from([info])));
                true
            }
        }
    }

    /// Dequeue the oldest waiter on (dst, tag), if any.
    pub fn pop(&mut self, key: (u32, u32)) -> Option<T> {
        let info =
            self.entries.iter_mut().find(|(k, _)| *k == key).and_then(|(_, q)| q.pop_front());
        self.depth -= info.is_some() as usize;
        info
    }

    /// Total waiters across all (dst, tag) keys, maintained incrementally.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Reusable per-engine scratch buffers (see `Engine::scratch`).
#[derive(Debug, Default)]
struct Scratch {
    /// Per-thread team times of the active parallel region.
    tt: Vec<VirtualTime>,
    /// Per-thread ready times (seconds) for dynamic scheduling.
    ready: Vec<f64>,
    /// Per-thread (cost, duration, extra instructions) chunk logs.
    chunk_log: Vec<Vec<(nrlt_prog::Cost, VirtualDuration, u64)>>,
    /// Per-thread first kernel instance number of the loop.
    inst_base: Vec<u64>,
    /// Per-thread chunk counters.
    counters: Vec<u64>,
    /// Thread arrival order for critical sections.
    order: Vec<u32>,
}

#[derive(Debug)]
struct CollInstance {
    op: CollectiveOp,
    bytes: u64,
    root: u32,
    arrivals: Vec<Option<(VirtualTime, u64)>>,
    arrived: u32,
    /// Per rank: the pending-request slot of a *non-blocking* join.
    nb_reqs: Vec<Option<usize>>,
    /// Filled at resolution: (last arrival, per-rank completion, max piggyback).
    resolution: Option<(VirtualTime, Vec<VirtualTime>, u64)>,
}

/// Pre-interned observatory names. Built once per observed run so the
/// per-event recording paths pass `Copy` ids instead of formatting and
/// hashing series names per sample (the dominant cost of the observed
/// hot path before interning).
struct ObsIds {
    /// `rank{r}.progress_ns`, indexed by rank.
    progress: Vec<SeriesId>,
    /// `numa{d}.bw_threads`, indexed by global NUMA domain.
    numa_bw: Vec<SeriesId>,
    /// `socket{s}.l3_dram_permille`, indexed by global socket.
    socket_l3: Vec<SeriesId>,
    match_sends: SeriesId,
    match_recvs: SeriesId,
    wildcard_queue: SeriesId,
    wire_sharedmem: SeriesId,
    wire_network: SeriesId,
    coll_alg: SeriesId,
    team_threads: SeriesId,
    loop_chunks: SeriesId,
    ready_spread: SeriesId,
    /// Program phase names, indexed by `PhaseId`.
    phases: Vec<ObsPhase>,
    /// The empty "outside any phase" name.
    no_phase: ObsPhase,
}

impl ObsIds {
    fn new(obs: &RunObserve, program: &Program, placement: &Placement) -> ObsIds {
        let machine = placement.machine();
        let ranks = placement.layout().ranks;
        let sockets = machine.nodes * machine.spec.sockets;
        ObsIds {
            progress: (0..ranks).map(|r| obs.series(&format!("rank{r}.progress_ns"))).collect(),
            numa_bw: (0..machine.total_numa())
                .map(|d| obs.series(&format!("numa{d}.bw_threads")))
                .collect(),
            socket_l3: (0..sockets)
                .map(|s| obs.series(&format!("socket{s}.l3_dram_permille")))
                .collect(),
            match_sends: obs.series("mpi.match_queue_sends"),
            match_recvs: obs.series("mpi.match_queue_recvs"),
            wildcard_queue: obs.series("mpi.wildcard_queue"),
            wire_sharedmem: obs.series("net.sharedmem.wire_ns"),
            wire_network: obs.series("net.network.wire_ns"),
            coll_alg: obs.series("net.collective_alg_ns"),
            team_threads: obs.series("omp.team_threads"),
            loop_chunks: obs.series("omp.loop_chunks"),
            ready_spread: obs.series("omp.ready_spread_ns"),
            phases: program.phases.iter().map(|p| obs.phase(p)).collect(),
            no_phase: obs.phase(""),
        }
    }
}

struct Engine<'a, O: Observer> {
    program: &'a Program,
    regions: &'a RegionTable,
    config: &'a ExecConfig,
    observer: &'a mut O,
    placement: Placement,
    noise: NoiseModel,
    footprint: u64,
    desync: f64,
    states: Vec<RankState>,
    matcher: Matcher<SendInfo, RecvInfo>,
    /// Blocked wildcard receives per (dst rank, tag), FIFO, with an
    /// incrementally-maintained total occupancy. No engine state on a
    /// result path may depend on hash iteration order.
    wildcard: WildcardBook<RecvInfo>,
    collectives: Vec<CollInstance>,
    /// Per-channel FIFO sequence numbers (stable noise keys).
    channels: ChannelArena,
    /// MPI API regions by [`mpi_slot`].
    mpi_regions: [Option<RegionId>; 13],
    /// OpenMP fork/join/implicit-barrier regions by construct region.
    derived: DerivedRegions,
    loc_last: Vec<VirtualTime>,
    kernel_seq: Vec<u64>,
    /// Ready ranks, bucketed by virtual time with FIFO tie-break.
    worklist: LadderQueue<u32>,
    /// Open-phase start times, `[rank][phase id]` (dense arenas; the
    /// result's ordered maps are built once at emission time).
    phase_open: Vec<Vec<Option<VirtualTime>>>,
    /// Accumulated phase totals, `[rank][phase id]`; `None` = the phase
    /// never closed on that rank.
    phase_total: Vec<Vec<Option<VirtualDuration>>>,
    /// Reusable scratch buffers for the OpenMP paths (team times, ready
    /// times, dynamic-chunk logs); cleared and refilled per construct so
    /// a run allocates them once instead of once per parallel region.
    scratch: Scratch,
    /// Self-telemetry sink; `None` means zero instrumentation work.
    tel: Option<&'a Telemetry>,
    /// Resource-observatory sink; `None` means zero observability work.
    obs: Option<&'a RunObserve>,
    /// Pre-interned observatory names; `Some` exactly when `obs` is.
    obs_ids: Option<ObsIds>,
    /// Engine self-profiler sink; `None` means zero profiling work.
    prof: Option<&'a RunProf>,
    /// Per-rank stack of open phases — maintained only when `obs` or
    /// `prof` is `Some`, to tag samples, noise draws, and gauge
    /// timelines with the program phase.
    cur_phase: Vec<Vec<PhaseId>>,
    /// Events dispatched (accumulated locally, flushed once at the end,
    /// so the hot path stays lock-free even with telemetry on).
    n_events: u64,
    /// Busy-wait intervals converted to idle waiting via `on_spin`.
    n_spin_conversions: u64,
    /// Point-to-point matches resolved.
    n_matches: u64,
    /// Collective instances resolved.
    n_collectives: u64,
}

impl<'a, O: Observer> Engine<'a, O> {
    fn new(
        program: &'a Program,
        regions: &'a RegionTable,
        config: &'a ExecConfig,
        observer: &'a mut O,
        tel: Option<&'a Telemetry>,
        obs: Option<&'a RunObserve>,
        prof: Option<&'a RunProf>,
    ) -> Self {
        let placement = Placement::new(config.machine.clone(), config.layout.clone());
        let noise = NoiseModel::new(config.noise.clone(), RngFactory::new(config.seed));
        let n_ranks = config.layout.ranks as usize;
        let n_locs = config.layout.locations() as usize;
        let footprint = observer.cache_footprint_per_location();
        let desync = observer.desync();
        let mpi_regions = std::array::from_fn(|i| regions.find(MPI_REGION_NAMES[i]));
        let n_phases = program.phases.len();
        let obs_ids = obs.map(|o| ObsIds::new(o, program, &placement));
        Engine {
            program,
            regions,
            config,
            observer,
            placement,
            noise,
            footprint,
            desync,
            states: (0..n_ranks)
                .map(|_| RankState {
                    cursor: 0,
                    time: VirtualTime::ZERO,
                    pending: Vec::new(),
                    blocked: None,
                    coll_seq: 0,
                    done: false,
                })
                .collect(),
            matcher: Matcher::new(),
            wildcard: WildcardBook::default(),
            collectives: Vec::new(),
            channels: ChannelArena::default(),
            mpi_regions,
            derived: DerivedRegions::new(regions),
            loc_last: vec![VirtualTime::ZERO; n_locs],
            kernel_seq: vec![0; n_locs],
            worklist: LadderQueue::new(LADDER_BUCKET_NS),
            phase_open: vec![vec![None; n_phases]; n_ranks],
            phase_total: vec![vec![None; n_phases]; n_ranks],
            scratch: Scratch::default(),
            tel,
            obs,
            obs_ids,
            prof,
            cur_phase: vec![Vec::new(); n_ranks],
            n_events: 0,
            n_spin_conversions: 0,
            n_matches: 0,
            n_collectives: 0,
        }
    }

    fn run(&mut self) {
        // Resolved once per run: `None` (no sampling profiler installed)
        // costs one branch per scheduling quantum; `Some` publishes an
        // `engine.rank` frame per quantum (~4 atomics on an owned cache
        // line — ~35k quanta per LULESH rep, far below the noise floor).
        let leaf = nrlt_telemetry::sample::leaf_handle();
        for r in 0..self.states.len() as u32 {
            self.push_work(r);
        }
        while let Some(r) = self.worklist.pop() {
            if let Some(t) = self.tel {
                t.observe("engine.ready_queue_depth", self.worklist.len() as u64 + 1);
            }
            if let Some(p) = self.prof {
                p.gauge(
                    "engine.worklist_depth",
                    self.phase_name(r),
                    self.worklist.len() as i64 + 1,
                );
                p.gauge(
                    "engine.ladder_bucket",
                    self.phase_name(r),
                    self.worklist.current_bucket_len() as i64,
                );
            }
            if let Some(leaf) = &leaf {
                leaf.push(frames::ENGINE_RANK);
                self.run_rank(r);
                leaf.pop();
            } else {
                self.run_rank(r);
            }
        }
        let stuck: Vec<u32> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .map(|(r, _)| r as u32)
            .collect();
        if !stuck.is_empty() {
            panic!(
                "deadlock: ranks {:?} never completed; pending traffic: {}",
                stuck,
                self.matcher.pending_description()
            );
        }
        debug_assert!(self.matcher.is_drained(), "unmatched traffic after completion");
    }

    fn into_result(self) -> ExecResult {
        let total_end = self.loc_last.iter().copied().max().unwrap_or(VirtualTime::ZERO);
        if let Some(t) = self.tel {
            t.add("engine.events", self.n_events);
            t.add("engine.spin_conversions", self.n_spin_conversions);
            t.add("engine.messages_matched", self.n_matches);
            t.add("engine.collectives_resolved", self.n_collectives);
            t.set_max("engine.virtual_time_ns", total_end.nanos());
        }
        if let Some(p) = self.prof {
            p.set_events(self.n_events);
            let s = self.matcher.stats();
            p.hwm("matcher.queued_sends", s.hwm_queued_sends);
            p.hwm("matcher.queued_recvs", s.hwm_queued_recvs);
            p.hwm("matcher.channel_depth", s.hwm_channel_depth);
            p.alloc("matcher.channel_queues", s.queues_created);
            p.hwm("engine.collective_instances", self.collectives.len() as u64);
            p.hwm("engine.channels", self.channels.len() as u64);
            p.alloc("engine.ladder_respreads", self.worklist.respreads());
            p.hwm(
                "rank.pending_requests",
                self.states.iter().map(|s| s.pending.len()).max().unwrap_or(0) as u64,
            );
            p.hwm("scratch.team_times", self.scratch.tt.capacity() as u64);
            p.hwm(
                "scratch.chunk_log",
                self.scratch.chunk_log.iter().map(Vec::capacity).sum::<usize>() as u64,
            );
        }
        // The dense phase arenas are rebuilt as ordered maps once, at
        // emission time: ascending phase-id iteration reproduces the
        // ordering the per-rank BTreeMaps used to maintain on every write.
        let phase_times = self
            .phase_total
            .iter()
            .map(|totals| {
                totals
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| d.map(|d| (PhaseId(i as u32), d)))
                    .collect::<BTreeMap<_, _>>()
            })
            .collect();
        ExecResult {
            phase_times,
            rank_end: self.states.iter().map(|s| s.time).collect(),
            total: total_end.saturating_since(VirtualTime::ZERO),
            events: self.n_events,
        }
    }

    // ---- helpers -------------------------------------------------------

    fn loc_index(&self, loc: Location) -> usize {
        self.config.layout.location_index(loc)
    }

    fn next_instance(&mut self, loc: Location) -> u64 {
        let idx = self.loc_index(loc);
        let v = self.kernel_seq[idx];
        self.kernel_seq[idx] += 1;
        v
    }

    /// Record an event on `loc` at time `t` (clamped to the location's
    /// monotone clock), charging the observer's overhead. Returns the
    /// time after the event.
    fn emit(&mut self, loc: Location, t: VirtualTime, info: EventInfo) -> VirtualTime {
        self.n_events += 1;
        let idx = self.loc_index(loc);
        let t = t.max(self.loc_last[idx]);
        let ovh = self.observer.on_event(loc, t, &info);
        let after = t + ovh;
        self.loc_last[idx] = after;
        after
    }

    /// Clamp a proposed time to the location's monotone clock.
    fn clamp(&self, loc: Location, t: VirtualTime) -> VirtualTime {
        t.max(self.loc_last[self.loc_index(loc)])
    }

    /// Enqueue rank `r` for (re)processing, keyed by the rank's current
    /// virtual time so the ladder pops ranks in near-time order.
    fn push_work(&mut self, r: u32) {
        self.worklist.push(self.states[r as usize].time.nanos(), r);
    }

    /// Record the matcher and wildcard queue depths as profiler gauges
    /// under rank `r`'s current phase.
    fn prof_queues(&self, r: u32) {
        if let Some(p) = self.prof {
            let ph = self.phase_name(r);
            let s = self.matcher.stats();
            p.gauge("matcher.queued_sends", ph, s.queued_sends as i64);
            p.gauge("matcher.queued_recvs", ph, s.queued_recvs as i64);
            p.gauge("mpi.wildcard_queue", ph, self.wildcard.depth() as i64);
        }
    }

    /// Count an imminent growth of rank `r`'s pending-request vector.
    fn prof_pending_alloc(&self, r: u32) {
        if let Some(p) = self.prof {
            let pending = &self.states[r as usize].pending;
            if pending.len() == pending.capacity() {
                p.alloc("rank.pending", 1);
            }
        }
    }

    /// The kernel pricer for rank `r`'s current phase and event count.
    fn pricer(&self, r: u32) -> Pricer<'_, O> {
        let mut model = DurationModel::new(&self.placement, &self.noise);
        model.footprint_per_location = self.footprint;
        model.desync = self.desync;
        Pricer {
            model,
            placement: &self.placement,
            observer: &*self.observer,
            prof: self.prof,
            obs: self.obs.map(|o| {
                let ids = self.obs_ids.as_ref().expect("observed path without interned names");
                (o, ids, self.obs_phase(r), self.n_events)
            }),
        }
    }

    /// Network jitter factor of the message or collective keyed by
    /// `(entity, seq)`, counted as one profiler noise draw whether or not
    /// the channel is live.
    fn net_noise(&self, entity: u64, seq: u64) -> f64 {
        if let Some(p) = self.prof {
            p.enter(EventKind::NoiseDraw);
        }
        let f = self.noise.net_factor(entity, seq);
        if let Some(p) = self.prof {
            p.leave(EventKind::NoiseDraw, 0);
        }
        f
    }

    /// Innermost open phase of rank `r` (empty outside any phase). Only
    /// meaningful when `obs` or `prof` is `Some` — the stack is not
    /// maintained otherwise.
    fn phase_name(&self, r: u32) -> &str {
        match self.cur_phase[r as usize].last() {
            Some(p) => self.program.phase_name(*p),
            None => "",
        }
    }

    /// Interned id of rank `r`'s innermost open phase. Only meaningful
    /// when `obs` is `Some` (panics otherwise — the observed paths are
    /// the only callers).
    fn obs_phase(&self, r: u32) -> ObsPhase {
        let ids = self.obs_ids.as_ref().expect("observed path without interned names");
        match self.cur_phase[r as usize].last() {
            Some(p) => ids.phases[p.0 as usize],
            None => ids.no_phase,
        }
    }

    /// Sample rank `r`'s progress watermark (its virtual time at a phase
    /// boundary).
    fn observe_progress(&self, r: u32, t: VirtualTime) {
        if let (Some(obs), Some(ids)) = (self.obs, self.obs_ids.as_ref()) {
            obs.sample_id(
                ids.progress[r as usize],
                self.obs_phase(r),
                t.nanos(),
                self.n_events,
                t.nanos() as i64,
            );
        }
    }

    /// Sample the matcher and wildcard queue depths as seen by rank `r`.
    fn observe_queues(&self, r: u32) {
        if let (Some(obs), Some(ids)) = (self.obs, self.obs_ids.as_ref()) {
            let ph = self.obs_phase(r);
            let t_ns = self.states[r as usize].time.nanos();
            obs.sample_batch_id(
                ph,
                t_ns,
                self.n_events,
                &[
                    (ids.match_sends, self.matcher.pending_sends() as i64),
                    (ids.match_recvs, self.matcher.pending_recvs() as i64),
                    (ids.wildcard_queue, self.wildcard.depth() as i64),
                ],
            );
        }
    }

    // A miss in `derived` means the table was not prepared for this
    // program; the name lookups then panic naming the region.

    fn parallel_regions(&self, parallel_region: RegionId) -> ParallelRegions {
        self.derived
            .parallel(parallel_region)
            .unwrap_or_else(|| parallel_regions(self.regions, parallel_region))
    }

    fn implicit_barrier(&self, construct: RegionId) -> RegionId {
        self.derived
            .implicit_barrier(construct)
            .unwrap_or_else(|| implicit_barrier_of(self.regions, construct))
    }

    fn mpi_region(&self, op: &MpiOp) -> RegionId {
        self.mpi_regions[mpi_slot(op)]
            .unwrap_or_else(|| panic!("region for {} not prepared", op.api_name()))
    }

    fn sec(d: f64) -> VirtualDuration {
        VirtualDuration::from_secs_f64(d)
    }

    fn secs_of(t: VirtualTime) -> f64 {
        t.nanos() as f64 * 1e-9
    }

    // ---- rank driver ---------------------------------------------------

    fn run_rank(&mut self, r: u32) {
        if self.states[r as usize].done {
            return;
        }
        if self.states[r as usize].blocked.is_some() && !self.try_unblock(r) {
            return;
        }
        let program = self.program;
        loop {
            let cursor = self.states[r as usize].cursor;
            let actions = &program.ranks[r as usize];
            if cursor >= actions.len() {
                self.states[r as usize].done = true;
                return;
            }
            match &actions[cursor] {
                Action::Enter(region) => {
                    let m = Location::master(r);
                    let t = self.states[r as usize].time;
                    let t = self.emit(m, t, EventInfo::Enter { region: *region });
                    self.states[r as usize].time = t;
                }
                Action::Leave(region) => {
                    let m = Location::master(r);
                    let t = self.states[r as usize].time;
                    let t = self.emit(m, t, EventInfo::Leave { region: *region });
                    self.states[r as usize].time = t;
                }
                Action::Kernel(kernel) => {
                    let m = Location::master(r);
                    let t = self.states[r as usize].time;
                    let t = self.run_kernel(m, kernel, ExecPhase::Serial, t);
                    self.states[r as usize].time = t;
                }
                Action::Parallel(pr) => self.do_parallel(r, pr),
                Action::PhaseStart(p) => {
                    let t = self.states[r as usize].time;
                    self.phase_open[r as usize][p.0 as usize] = Some(t);
                    if self.obs.is_some() || self.prof.is_some() {
                        self.cur_phase[r as usize].push(*p);
                    }
                    if self.obs.is_some() {
                        self.observe_progress(r, t);
                    }
                }
                Action::PhaseEnd(p) => {
                    let t = self.states[r as usize].time;
                    let start = self.phase_open[r as usize][p.0 as usize]
                        .take()
                        .expect("phase end without start (validate the program)");
                    let d = t.saturating_since(start);
                    *self.phase_total[r as usize][p.0 as usize]
                        .get_or_insert(VirtualDuration::ZERO) += d;
                    if self.obs.is_some() {
                        self.observe_progress(r, t);
                    }
                    if self.obs.is_some() || self.prof.is_some() {
                        if let Some(pos) = self.cur_phase[r as usize].iter().rposition(|q| q == p) {
                            self.cur_phase[r as usize].remove(pos);
                        }
                    }
                }
                Action::Mpi(op) => {
                    if self.do_mpi(r, op) {
                        // Cursor advances only when the op finishes.
                        return;
                    }
                    // try_unblock already advanced the cursor.
                    continue;
                }
            }
            self.states[r as usize].cursor += 1;
        }
    }

    /// Run a serial or replicated kernel on `loc` starting at `t`.
    fn run_kernel(
        &mut self,
        loc: Location,
        kernel: &Kernel,
        phase: ExecPhase,
        t: VirtualTime,
    ) -> VirtualTime {
        let inst = self.next_instance(loc);
        let start = self.clamp(loc, t);
        let (duration, extra) = self.pricer(loc.rank).price(
            Priced::Kernel,
            loc,
            &kernel.cost,
            0,
            kernel.working_set,
            phase,
            inst,
            start,
        );
        let work_ovh = self.observer.on_work(
            loc,
            &WorkItem { cost: kernel.cost, loop_iters: 0, duration, extra_instructions: extra },
        );
        let mut t = start + duration + work_ovh;
        if let Some(burst) = kernel.burst {
            t = self.emit(
                loc,
                t,
                EventInfo::Burst { callee: burst.callee, calls: burst.calls, phys_start: start },
            );
        } else {
            let idx = self.loc_index(loc);
            self.loc_last[idx] = self.loc_last[idx].max(t);
        }
        t
    }

    // ---- MPI -----------------------------------------------------------

    /// Execute an MPI op on rank `r`'s master. Returns true if the rank
    /// blocked (the cursor stays on this action until unblocked).
    fn do_mpi(&mut self, r: u32, op: &MpiOp) -> bool {
        let m = Location::master(r);
        let region = self.mpi_region(op);
        let t = self.states[r as usize].time;
        let t = self.emit(m, t, EventInfo::Enter { region });
        self.states[r as usize].time = t;

        match op {
            MpiOp::Send { dest, tag, bytes } => {
                let req = self.post_send(r, *dest, *tag, *bytes);
                self.states[r as usize].blocked = Some(Blocked::Wait {
                    since: self.states[r as usize].time,
                    kind: WaitKind::BlockingSend { req },
                });
                !self.try_unblock(r)
            }
            MpiOp::Recv { src, tag, bytes } => {
                let req = self.post_recv(r, *src, *tag, *bytes);
                self.states[r as usize].blocked = Some(Blocked::Wait {
                    since: self.states[r as usize].time,
                    kind: WaitKind::BlockingRecv { req },
                });
                !self.try_unblock(r)
            }
            MpiOp::RecvAny { tag, bytes } => {
                let req = self.post_recv_any(r, *tag, *bytes);
                self.states[r as usize].blocked = Some(Blocked::Wait {
                    since: self.states[r as usize].time,
                    kind: WaitKind::BlockingRecv { req },
                });
                !self.try_unblock(r)
            }
            MpiOp::Isend { dest, tag, bytes } => {
                self.post_send(r, *dest, *tag, *bytes);
                let t = self.states[r as usize].time;
                let t = self.emit(m, t, EventInfo::Leave { region });
                self.states[r as usize].time = t;
                self.states[r as usize].cursor += 1;
                false
            }
            MpiOp::Irecv { src, tag, bytes } => {
                self.post_recv(r, *src, *tag, *bytes);
                let t = self.states[r as usize].time;
                let t = self.emit(m, t, EventInfo::Leave { region });
                self.states[r as usize].time = t;
                self.states[r as usize].cursor += 1;
                false
            }
            MpiOp::Iallreduce { bytes } => {
                self.post_nonblocking_collective(r, CollectiveOp::Allreduce, *bytes, region);
                false
            }
            MpiOp::Ibarrier => {
                self.post_nonblocking_collective(r, CollectiveOp::Barrier, 0, region);
                false
            }
            MpiOp::Waitall => {
                self.states[r as usize].blocked = Some(Blocked::Wait {
                    since: self.states[r as usize].time,
                    kind: WaitKind::Waitall,
                });
                !self.try_unblock(r)
            }
            _ => {
                // Collective.
                let kind = collective_kind(op).expect("non-collective fell through");
                let (bytes, root) = match op {
                    MpiOp::Barrier => (0, nrlt_trace::NO_ROOT),
                    MpiOp::Allreduce { bytes }
                    | MpiOp::Alltoall { bytes }
                    | MpiOp::Allgather { bytes } => (*bytes, nrlt_trace::NO_ROOT),
                    MpiOp::Bcast { root, bytes } | MpiOp::Reduce { root, bytes } => (*bytes, *root),
                    _ => unreachable!(),
                };
                let index = self.register_collective(r, kind, bytes, root);
                self.states[r as usize].blocked =
                    Some(Blocked::Collective { since: self.states[r as usize].time, index });
                !self.try_unblock(r)
            }
        }
    }

    /// Post a send: emits the post event, charges library overhead,
    /// creates the request and hands it to the matcher. Returns the
    /// request index.
    fn post_send(&mut self, r: u32, dest: u32, tag: u32, bytes: u64) -> usize {
        let m = Location::master(r);
        let piggyback = self.observer.piggyback(m);
        let t = self.states[r as usize].time;
        let t = self.emit(m, t, EventInfo::SendPost { peer: dest, tag, bytes });
        let so = Self::sec(self.config.p2p.send_overhead);
        self.observer.on_runtime(m, RuntimeKind::Mpi, so);
        let t = t + so;
        self.states[r as usize].time = t;
        let req = self.states[r as usize].pending.len();
        let eager = self.config.p2p.is_eager(bytes);
        self.prof_pending_alloc(r);
        self.states[r as usize].pending.push(Request {
            kind: ReqKind::Send,
            peer: dest,
            tag,
            bytes,
            // Eager sends return as soon as the payload is copied out;
            // rendezvous completion is determined at match time.
            completion: eager.then_some(t),
            piggyback: 0,
            consumed: false,
        });
        let channel = Channel { src: r, dst: dest, tag };
        if let Some(mtch) =
            self.matcher.post_send(channel, bytes, SendInfo { rank: r, req, post: t, piggyback })
        {
            self.resolve_match(channel, mtch.send.data, mtch.recv.data, bytes);
        } else if let Some(recv) = self.wildcard.pop((dest, tag)) {
            // A wildcard receive is already blocked on this (dst, tag):
            // hand it the send we just enqueued.
            let send = self
                .matcher
                .take_last_send(channel)
                .expect("the send posted above is still pending");
            self.resolve_match(channel, send.data, recv, bytes);
        }
        self.observe_queues(r);
        self.prof_queues(r);
        req
    }

    /// Post a receive. Returns the request index.
    fn post_recv(&mut self, r: u32, src: u32, tag: u32, bytes: u64) -> usize {
        let m = Location::master(r);
        let t = self.states[r as usize].time;
        let t = self.emit(m, t, EventInfo::RecvPost { peer: src, tag, bytes });
        self.states[r as usize].time = t;
        let req = self.states[r as usize].pending.len();
        self.prof_pending_alloc(r);
        self.states[r as usize].pending.push(Request {
            kind: ReqKind::Recv,
            peer: src,
            tag,
            bytes,
            completion: None,
            piggyback: 0,
            consumed: false,
        });
        let channel = Channel { src, dst: r, tag };
        if let Some(mtch) =
            self.matcher.post_recv(channel, bytes, RecvInfo { rank: r, req, post: t })
        {
            let bytes = mtch.send.bytes;
            self.resolve_match(channel, mtch.send.data, mtch.recv.data, bytes);
        }
        self.observe_queues(r);
        self.prof_queues(r);
        req
    }

    /// Post a wildcard (`MPI_ANY_SOURCE`) receive: matches the earliest
    /// pending send addressed to this rank with this tag, or waits for
    /// the next one. Which message wins is timing-dependent — wildcard
    /// programs therefore lose the logical clocks' repetition invariance
    /// (Section II of the paper).
    fn post_recv_any(&mut self, r: u32, tag: u32, bytes: u64) -> usize {
        let m = Location::master(r);
        let t = self.states[r as usize].time;
        let t = self.emit(m, t, EventInfo::RecvPost { peer: ANY_SOURCE, tag, bytes });
        self.states[r as usize].time = t;
        let req = self.states[r as usize].pending.len();
        self.prof_pending_alloc(r);
        self.states[r as usize].pending.push(Request {
            kind: ReqKind::Recv,
            peer: ANY_SOURCE,
            tag,
            bytes,
            completion: None,
            piggyback: 0,
            consumed: false,
        });
        let info = RecvInfo { rank: r, req, post: t };
        // Earliest pending send wins (post time, then source rank).
        if let Some((channel, send)) =
            self.matcher.take_any_send(r, tag, |s: &SendInfo| (s.post, s.rank))
        {
            let bytes = send.bytes;
            self.resolve_match(channel, send.data, info, bytes);
        } else {
            let created = self.wildcard.push((r, tag), info);
            if created {
                if let Some(p) = self.prof {
                    p.alloc("mpi.wildcard_entry", 1);
                }
            }
        }
        self.observe_queues(r);
        self.prof_queues(r);
        req
    }

    /// A send met its receive: compute the message timing and fill both
    /// requests, waking blocked owners.
    fn resolve_match(&mut self, channel: Channel, send: SendInfo, recv: RecvInfo, bytes: u64) {
        self.n_matches += 1;
        if let Some(p) = self.prof {
            p.enter(EventKind::Pt2ptMatch);
        }
        let seq = self.channels.next_seq(channel);
        // Stable noise key: independent of engine processing order.
        let entity = ((channel.src as u64) << 40)
            | ((channel.dst as u64) << 20)
            | (channel.tag as u64 & 0xfffff);
        let noise = self.net_noise(entity, seq);
        let link = if self
            .placement
            .same_node(Location::master(channel.src), Location::master(channel.dst))
        {
            LinkKind::SharedMem
        } else {
            LinkKind::Network
        };
        let timing = message_timing(
            &self.config.p2p,
            &self.config.machine.spec,
            link,
            bytes,
            Self::secs_of(send.post),
            Self::secs_of(recv.post),
            noise,
        );
        let send_complete = VirtualTime((timing.send_complete.max(0.0) * 1e9).round() as u64);
        let arrival = VirtualTime((timing.data_arrival.max(0.0) * 1e9).round() as u64);

        if let Some(obs) = self.obs {
            // Replaying the timing with a unit noise factor isolates the
            // jitter this message absorbed; the keyed stream is stateless,
            // so the extra call perturbs nothing.
            let clean = message_timing(
                &self.config.p2p,
                &self.config.machine.spec,
                link,
                bytes,
                Self::secs_of(send.post),
                Self::secs_of(recv.post),
                1.0,
            );
            let clean_arrival = VirtualTime((clean.data_arrival.max(0.0) * 1e9).round() as u64);
            let ids = self.obs_ids.as_ref().expect("observed path without interned names");
            let ph = self.obs_phase(recv.rank);
            let t_ns = send.post.nanos();
            let mag = arrival.nanos() as i64 - clean_arrival.nanos() as i64;
            if mag != 0 {
                let core = self.placement.core_of(Location::master(channel.src)).0 as u64;
                obs.noise_id(NoiseKind::NetJitter, recv.rank, core, seq, ph, t_ns, mag);
            }
            let series = match link {
                LinkKind::SharedMem => ids.wire_sharedmem,
                LinkKind::Network => ids.wire_network,
            };
            let wire = arrival.nanos().saturating_sub(send.post.nanos());
            obs.sample_id(series, ph, t_ns, self.n_events, wire as i64);
        }

        let sreq = &mut self.states[send.rank as usize].pending[send.req];
        sreq.completion = Some(send_complete.max(sreq.completion.unwrap_or(VirtualTime::ZERO)));
        let rreq = &mut self.states[recv.rank as usize].pending[recv.req];
        rreq.completion = Some(arrival);
        rreq.piggyback = send.piggyback;
        // Wildcard receives learn their actual source at match time.
        rreq.peer = channel.src;

        // Wake whoever might be waiting on these.
        self.push_work(send.rank);
        self.push_work(recv.rank);
        if let Some(p) = self.prof {
            // Virtual cost of the match: post-to-arrival latency.
            p.leave(EventKind::Pt2ptMatch, arrival.nanos().saturating_sub(send.post.nanos()));
        }
    }

    /// Join a collective without blocking: the request completes in a
    /// later `Waitall` (MPI_Iallreduce / MPI_Ibarrier).
    fn post_nonblocking_collective(
        &mut self,
        r: u32,
        op: CollectiveOp,
        bytes: u64,
        region: RegionId,
    ) {
        let m = Location::master(r);
        let req = self.states[r as usize].pending.len();
        self.prof_pending_alloc(r);
        self.states[r as usize].pending.push(Request {
            kind: ReqKind::Collective(usize::MAX), // fixed below
            peer: ANY_SOURCE,
            tag: 0,
            bytes,
            completion: None,
            piggyback: 0,
            consumed: false,
        });
        let index = self.register_collective(r, op, bytes, nrlt_trace::NO_ROOT);
        self.states[r as usize].pending[req].kind = ReqKind::Collective(index);
        self.collectives[index].nb_reqs[r as usize] = Some(req);
        // If resolution already happened (we were last to arrive), fill in.
        if let Some((_, completions, max_piggy)) = &self.collectives[index].resolution {
            let completion = completions[r as usize];
            let piggy = *max_piggy;
            let q = &mut self.states[r as usize].pending[req];
            q.completion = Some(completion);
            q.piggyback = piggy;
        }
        let t = self.states[r as usize].time;
        let t = self.emit(m, t, EventInfo::Leave { region });
        self.states[r as usize].time = t;
        self.states[r as usize].cursor += 1;
    }

    fn register_collective(&mut self, r: u32, op: CollectiveOp, bytes: u64, root: u32) -> usize {
        let n_ranks = self.states.len();
        let index = self.states[r as usize].coll_seq;
        self.states[r as usize].coll_seq += 1;
        if self.collectives.len() <= index {
            if let Some(p) = self.prof {
                if self.collectives.len() == self.collectives.capacity() {
                    p.alloc("engine.collectives", 1);
                }
            }
            self.collectives.push(CollInstance {
                op,
                bytes,
                root,
                arrivals: vec![None; n_ranks],
                arrived: 0,
                nb_reqs: vec![None; n_ranks],
                resolution: None,
            });
        }
        let inst = &mut self.collectives[index];
        assert_eq!(
            inst.op, op,
            "collective order mismatch: rank {r} joined {op:?} where {:?} was expected",
            inst.op
        );
        let m = Location::master(r);
        let piggy = self.observer.piggyback(m);
        let arrival = self.states[r as usize].time;
        assert!(inst.arrivals[r as usize].is_none(), "rank {r} joined collective {index} twice");
        inst.arrivals[r as usize] = Some((arrival, piggy));
        inst.arrived += 1;
        if inst.arrived as usize == n_ranks {
            self.resolve_collective(index);
        }
        index
    }

    fn resolve_collective(&mut self, index: usize) {
        self.n_collectives += 1;
        if let Some(p) = self.prof {
            p.enter(EventKind::Collective);
        }
        let spec = &self.config.machine.spec;
        let scope =
            if self.config.machine.nodes > 1 { CommScope::InterNode } else { CommScope::IntraNode };
        let inst = &self.collectives[index];
        let arrivals: Vec<f64> =
            inst.arrivals.iter().map(|a| Self::secs_of(a.expect("unresolved arrival").0)).collect();
        let max_piggy = inst.arrivals.iter().map(|a| a.unwrap().1).max().unwrap_or(0);
        let noise = self.net_noise(u64::MAX, index as u64);
        let completions_s = self
            .config
            .collective
            .completion_times(inst.op, spec, scope, inst.bytes, &arrivals, noise);
        let completions: Vec<VirtualTime> =
            completions_s.iter().map(|&s| VirtualTime((s.max(0.0) * 1e9).round() as u64)).collect();
        let last_arrival =
            inst.arrivals.iter().map(|a| a.unwrap().0).max().unwrap_or(VirtualTime::ZERO);
        if let Some(obs) = self.obs {
            // Unit-noise replay of the collective isolates its jitter.
            let clean = self
                .config
                .collective
                .completion_times(inst.op, spec, scope, inst.bytes, &arrivals, 1.0);
            let ids = self.obs_ids.as_ref().expect("observed path without interned names");
            let seq = self.n_events;
            let t_ns = last_arrival.nanos();
            for rank in 0..completions.len() {
                let ph = self.obs_phase(rank as u32);
                let mag = ((completions_s[rank] - clean[rank]) * 1e9).round() as i64;
                if mag != 0 {
                    let core = self.placement.core_of(Location::master(rank as u32)).0 as u64;
                    obs.noise_id(
                        NoiseKind::NetJitter,
                        rank as u32,
                        core,
                        index as u64,
                        ph,
                        t_ns,
                        mag,
                    );
                }
                let alg = completions[rank].nanos().saturating_sub(t_ns);
                obs.sample_id(ids.coll_alg, ph, t_ns, seq, alg as i64);
            }
        }
        let nb: Vec<(usize, usize, VirtualTime)> = self.collectives[index]
            .nb_reqs
            .iter()
            .enumerate()
            .filter_map(|(rank, req)| req.map(|q| (rank, q, completions[rank])))
            .collect();
        if let Some(p) = self.prof {
            // Virtual cost: last arrival to the latest completion.
            let end = completions.iter().copied().max().unwrap_or(VirtualTime::ZERO);
            p.leave(EventKind::Collective, end.saturating_since(last_arrival).nanos());
        }
        self.collectives[index].resolution = Some((last_arrival, completions, max_piggy));
        for (rank, req, completion) in nb {
            let q = &mut self.states[rank].pending[req];
            q.completion = Some(completion);
            q.piggyback = max_piggy;
        }
        for r in 0..self.states.len() as u32 {
            self.push_work(r);
        }
    }

    /// Try to complete rank `r`'s blocked operation. Returns true if the
    /// rank unblocked (and its cursor advanced past the MPI action).
    fn try_unblock(&mut self, r: u32) -> bool {
        let m = Location::master(r);
        let blocked = match self.states[r as usize].blocked {
            Some(b) => b,
            None => return true,
        };
        match blocked {
            Blocked::Wait { since, kind } => {
                let needed: Vec<usize> = match kind {
                    WaitKind::BlockingRecv { req } | WaitKind::BlockingSend { req } => vec![req],
                    WaitKind::Waitall => self.states[r as usize]
                        .pending
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| !q.consumed)
                        .map(|(i, _)| i)
                        .collect(),
                };
                if needed.iter().any(|&i| self.states[r as usize].pending[i].completion.is_none()) {
                    return false;
                }
                let latest = needed
                    .iter()
                    .map(|&i| self.states[r as usize].pending[i].completion.unwrap())
                    .max()
                    .unwrap_or(since);
                let resume = since.max(latest);
                let waited = resume.saturating_since(since);
                if waited > VirtualDuration::ZERO {
                    self.n_spin_conversions += 1;
                    self.observer.on_spin(m, waited);
                }
                let mut t = resume;
                let region = match &self.program.ranks[r as usize][self.states[r as usize].cursor] {
                    Action::Mpi(op) => self.mpi_region(op),
                    other => panic!("blocked cursor not on an MPI action: {other:?}"),
                };
                // Complete receives in posting order; sends just consume.
                let ro = Self::sec(self.config.p2p.recv_overhead);
                for &i in &needed {
                    let (kind, peer, tag, bytes, piggy) = {
                        let q = &self.states[r as usize].pending[i];
                        (q.kind, q.peer, q.tag, q.bytes, q.piggyback)
                    };
                    match kind {
                        ReqKind::Send => {}
                        ReqKind::Recv => {
                            self.observer.on_runtime(m, RuntimeKind::Mpi, ro);
                            t += ro;
                            self.observer.sync_logical(m, piggy);
                            t = self.emit(m, t, EventInfo::RecvComplete { peer, tag, bytes });
                        }
                        ReqKind::Collective(index) => {
                            let (op, root) =
                                (self.collectives[index].op, self.collectives[index].root);
                            self.observer.on_runtime(m, RuntimeKind::Mpi, ro);
                            t += ro;
                            self.observer.sync_logical(m, piggy);
                            t = self.emit(m, t, EventInfo::CollectiveEnd { op, bytes, root });
                        }
                    }
                    self.states[r as usize].pending[i].consumed = true;
                }
                t = self.emit(m, t, EventInfo::Leave { region });
                // Requests stay in place (marked consumed): a later match
                // may still need to fill the send side's completion slot.
                self.states[r as usize].time = t;
                self.states[r as usize].blocked = None;
                self.states[r as usize].cursor += 1;
                true
            }
            Blocked::Collective { since, index } => {
                let (last_arrival, completion, max_piggy, op, bytes, root) = {
                    let inst = &self.collectives[index];
                    match &inst.resolution {
                        None => return false,
                        Some((last, completions, piggy)) => {
                            (*last, completions[r as usize], *piggy, inst.op, inst.bytes, inst.root)
                        }
                    }
                };
                // Decompose the block: spinning until the last participant
                // arrives, then executing the collective algorithm.
                let wait = last_arrival.saturating_since(since);
                if wait > VirtualDuration::ZERO {
                    self.n_spin_conversions += 1;
                    self.observer.on_spin(m, wait);
                }
                let alg = completion.saturating_since(since.max(last_arrival));
                if alg > VirtualDuration::ZERO {
                    self.observer.on_runtime(m, RuntimeKind::Mpi, alg);
                }
                self.observer.sync_logical(m, max_piggy);
                let mut t = since.max(completion);
                t = self.emit(m, t, EventInfo::CollectiveEnd { op, bytes, root });
                let region = match &self.program.ranks[r as usize][self.states[r as usize].cursor] {
                    Action::Mpi(op) => self.mpi_region(op),
                    other => panic!("blocked cursor not on an MPI action: {other:?}"),
                };
                t = self.emit(m, t, EventInfo::Leave { region });
                self.states[r as usize].time = t;
                self.states[r as usize].blocked = None;
                self.states[r as usize].cursor += 1;
                true
            }
        }
    }

    // ---- OpenMP --------------------------------------------------------

    fn do_parallel(&mut self, r: u32, pr: &ParallelRegion) {
        let team = self.config.layout.threads_per_rank;
        let derived = self.parallel_regions(pr.region);
        let m = Location::master(r);
        let loc = |i: u32| Location { rank: r, thread: i };
        let mut t = self.states[r as usize].time;

        // Fork management on the master.
        t = self.emit(m, t, EventInfo::Enter { region: derived.fork });
        let fork = Self::sec(self.config.omp.fork_cost(team));
        self.observer.on_runtime(m, RuntimeKind::Omp, fork);
        t += fork;
        t = self.emit(m, t, EventInfo::Leave { region: derived.fork });
        if let (Some(obs), Some(ids)) = (self.obs, self.obs_ids.as_ref()) {
            obs.sample_id(
                ids.team_threads,
                self.obs_phase(r),
                t.nanos(),
                self.n_events,
                team as i64,
            );
        }

        // Team starts: workers wake staggered; their logical clocks sync
        // with the master's (fork is master -> worker communication).
        let master_piggy = self.observer.piggyback(m);
        let mut tt = std::mem::take(&mut self.scratch.tt);
        tt.clear();
        tt.extend(
            (0..team).map(|i| self.clamp(loc(i), t + Self::sec(self.config.omp.wake_delay(i)))),
        );
        for i in 1..team {
            self.observer.sync_logical(loc(i), master_piggy);
        }
        for i in 0..team {
            tt[i as usize] =
                self.emit(loc(i), tt[i as usize], EventInfo::Enter { region: pr.region });
        }

        for action in &pr.body {
            match action {
                OmpAction::For(f) => self.do_omp_for(r, f, &mut tt),
                OmpAction::Barrier(region) => self.do_omp_barrier(r, *region, &mut tt),
                OmpAction::Single { region, kernel, nowait } => {
                    // First-arriving thread executes (deterministic tie
                    // break by id).
                    let exec = (0..team).min_by_key(|&i| (tt[i as usize], i)).unwrap();
                    let l = loc(exec);
                    let mut te = tt[exec as usize];
                    te = self.emit(l, te, EventInfo::Enter { region: *region });
                    te = self.run_kernel(l, kernel, ExecPhase::TeamParallel, te);
                    te = self.emit(l, te, EventInfo::Leave { region: *region });
                    tt[exec as usize] = te;
                    if !nowait {
                        let ib = self.implicit_barrier(*region);
                        self.do_omp_barrier(r, ib, &mut tt);
                    }
                }
                OmpAction::Master { region, kernel } => {
                    let mut te = tt[0];
                    te = self.emit(m, te, EventInfo::Enter { region: *region });
                    te = self.run_kernel(m, kernel, ExecPhase::TeamParallel, te);
                    te = self.emit(m, te, EventInfo::Leave { region: *region });
                    tt[0] = te;
                }
                OmpAction::Critical { region, cost } => {
                    let mut order = std::mem::take(&mut self.scratch.order);
                    order.clear();
                    order.extend(0..team);
                    order.sort_by_key(|&i| (tt[i as usize], i));
                    let mut lock_free = VirtualTime::ZERO;
                    for &i in &order {
                        let l = loc(i);
                        let mut te = tt[i as usize];
                        te = self.emit(l, te, EventInfo::Enter { region: *region });
                        if lock_free > te {
                            self.n_spin_conversions += 1;
                            self.observer.on_spin(l, lock_free - te);
                            te = lock_free;
                        }
                        let inst = self.next_instance(l);
                        let (dur, extra) = self.pricer(r).price(
                            Priced::Kernel,
                            l,
                            cost,
                            0,
                            0,
                            ExecPhase::TeamParallel,
                            inst,
                            te,
                        );
                        let wo = self.observer.on_work(
                            l,
                            &WorkItem {
                                cost: *cost,
                                loop_iters: 0,
                                duration: dur,
                                extra_instructions: extra,
                            },
                        );
                        let lockc = Self::sec(self.config.omp.critical_lock);
                        self.observer.on_runtime(l, RuntimeKind::Omp, lockc);
                        te = te + dur + wo + lockc;
                        te = self.emit(l, te, EventInfo::Leave { region: *region });
                        tt[i as usize] = te;
                        lock_free = te;
                    }
                    self.scratch.order = order;
                }
                OmpAction::Replicated(kernel) => {
                    for i in 0..team {
                        tt[i as usize] = self.run_kernel(
                            loc(i),
                            kernel,
                            ExecPhase::TeamParallel,
                            tt[i as usize],
                        );
                    }
                }
            }
        }

        // Implicit barrier at region end, then everyone leaves the region.
        self.do_omp_barrier(r, derived.end_barrier, &mut tt);
        for i in 0..team {
            tt[i as usize] =
                self.emit(loc(i), tt[i as usize], EventInfo::Leave { region: pr.region });
        }

        // Join management on the master.
        let mut t = tt[0];
        t = self.emit(m, t, EventInfo::Enter { region: derived.join });
        let join = Self::sec(self.config.omp.join_cost());
        self.observer.on_runtime(m, RuntimeKind::Omp, join);
        t += join;
        t = self.emit(m, t, EventInfo::Leave { region: derived.join });
        self.states[r as usize].time = t;
        self.scratch.tt = tt;
    }

    fn do_omp_for(&mut self, r: u32, f: &OmpFor, tt: &mut [VirtualTime]) {
        let team = tt.len() as u32;
        let loc = |i: u32| Location { rank: r, thread: i };
        let dynamic = matches!(f.schedule, Schedule::Dynamic(_) | Schedule::Guided);

        // Loop entry: dispatch overhead + loop region enter.
        for i in 0..team {
            let disp = Self::sec(self.config.omp.loop_dispatch_cost(false, 1));
            self.observer.on_runtime(loc(i), RuntimeKind::Omp, disp);
            tt[i as usize] += disp;
            tt[i as usize] =
                self.emit(loc(i), tt[i as usize], EventInfo::Enter { region: f.region });
        }

        if dynamic {
            // Simulate chunk grabbing; record each chunk's cost/duration.
            // All four worklist buffers come from the engine scratch and
            // go back when the loop is done, so repeated dynamic loops
            // reuse their allocations.
            let mut ready = std::mem::take(&mut self.scratch.ready);
            ready.clear();
            ready.extend(tt.iter().map(|&t| Self::secs_of(t)));
            let mut chunk_log = std::mem::take(&mut self.scratch.chunk_log);
            for log in &mut chunk_log {
                log.clear();
            }
            chunk_log.resize_with(team as usize, Vec::new);
            let dispatch = self.config.omp.dispatch_dynamic;
            // Pre-assign instance numbers deterministically per thread.
            let mut inst_base = std::mem::take(&mut self.scratch.inst_base);
            inst_base.clear();
            for i in 0..team {
                inst_base.push(self.next_instance(loc(i)));
            }
            let mut counters = std::mem::take(&mut self.scratch.counters);
            counters.clear();
            counters.resize(team as usize, 0);
            let pricer = self.pricer(r);
            let prof = self.prof;
            let phase_name = self.phase_name(r);
            let result = simulate_dynamic(
                f.iters,
                f.schedule,
                &ready,
                |thread, b, e| {
                    if let Some(p) = prof {
                        p.gauge("omp.pending_iters", phase_name, (f.iters - b) as i64);
                    }
                    let cost = f.iter_cost.range_cost(b, e, f.iters);
                    let inst =
                        inst_base[thread as usize].wrapping_add(counters[thread as usize] << 24);
                    counters[thread as usize] += 1;
                    let (d, extra) = pricer.price(
                        Priced::DynamicChunk,
                        loc(thread),
                        &cost,
                        e - b,
                        f.working_set,
                        ExecPhase::TeamParallel,
                        inst,
                        tt[thread as usize],
                    );
                    chunk_log[thread as usize].push((cost, d, extra));
                    d.as_secs_f64()
                },
                dispatch,
            );
            if let (Some(obs), Some(ids)) = (self.obs, self.obs_ids.as_ref()) {
                // Loop-level occupancy: how many chunks the schedule cut
                // and how far apart the threads finished.
                let (ph, seq) = (self.obs_phase(r), self.n_events);
                let chunks = result.partition.total_chunks();
                let t_ns = tt.iter().map(|t| t.nanos()).min().unwrap_or(0);
                obs.sample_id(ids.loop_chunks, ph, t_ns, seq, chunks as i64);
                let lo = result.finish.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = result.finish.iter().cloned().fold(0.0f64, f64::max);
                let spread = if hi > lo { ((hi - lo) * 1e9).round() as i64 } else { 0 };
                obs.sample_id(ids.ready_spread, ph, t_ns, seq, spread);
            }
            for i in 0..team as usize {
                let mut total_ovh = VirtualDuration::ZERO;
                for (range, (cost, dur, extra)) in
                    result.partition.chunks[i].iter().zip(chunk_log[i].iter())
                {
                    total_ovh += self.observer.on_work(
                        loc(i as u32),
                        &WorkItem {
                            cost: *cost,
                            loop_iters: range.len(),
                            duration: *dur,
                            extra_instructions: *extra,
                        },
                    );
                }
                let chunks = result.partition.chunks[i].len();
                self.observer.on_runtime(
                    loc(i as u32),
                    RuntimeKind::Omp,
                    Self::sec(dispatch * chunks as f64),
                );
                tt[i] = VirtualTime((result.finish[i].max(0.0) * 1e9).round() as u64) + total_ovh;
            }
            self.scratch.ready = ready;
            self.scratch.chunk_log = chunk_log;
            self.scratch.inst_base = inst_base;
            self.scratch.counters = counters;
        } else {
            let partition = static_partition(f.iters, team, f.schedule);
            for i in 0..team {
                let mut cost = nrlt_prog::Cost::ZERO;
                let mut iters = 0u64;
                for range in &partition.chunks[i as usize] {
                    cost += f.iter_cost.range_cost(range.begin, range.end, f.iters);
                    iters += range.len();
                }
                let inst = self.next_instance(loc(i));
                let (dur, extra) = self.pricer(r).price(
                    Priced::StaticShare,
                    loc(i),
                    &cost,
                    iters,
                    f.working_set,
                    ExecPhase::TeamParallel,
                    inst,
                    tt[i as usize],
                );
                let wo = self.observer.on_work(
                    loc(i),
                    &WorkItem { cost, loop_iters: iters, duration: dur, extra_instructions: extra },
                );
                tt[i as usize] = tt[i as usize] + dur + wo;
            }
            if let (Some(obs), Some(ids)) = (self.obs, self.obs_ids.as_ref()) {
                let t_ns = tt.iter().map(|t| t.nanos()).min().unwrap_or(0);
                obs.sample_id(
                    ids.loop_chunks,
                    self.obs_phase(r),
                    t_ns,
                    self.n_events,
                    partition.total_chunks() as i64,
                );
            }
        }

        for i in 0..team {
            tt[i as usize] =
                self.emit(loc(i), tt[i as usize], EventInfo::Leave { region: f.region });
        }
        if !f.nowait {
            let ib = self.implicit_barrier(f.region);
            self.do_omp_barrier(r, ib, tt);
        }
    }

    fn do_omp_barrier(&mut self, r: u32, region: RegionId, tt: &mut [VirtualTime]) {
        let team = tt.len() as u32;
        let loc = |i: u32| Location { rank: r, thread: i };
        for i in 0..team {
            tt[i as usize] = self.emit(loc(i), tt[i as usize], EventInfo::Enter { region });
        }
        let prof_arr: Vec<u64> = if let Some(p) = self.prof {
            p.enter(EventKind::Barrier);
            tt.iter().map(|t| t.nanos()).collect()
        } else {
            Vec::new()
        };
        let max_arr = tt.iter().copied().max().unwrap_or(VirtualTime::ZERO);
        let release = max_arr + Self::sec(self.config.omp.barrier_cost(team));
        let max_piggy = (0..team).map(|i| self.observer.piggyback(loc(i))).max().unwrap_or(0);
        for i in 0..team {
            let wait = max_arr.saturating_since(tt[i as usize]);
            if wait > VirtualDuration::ZERO {
                self.n_spin_conversions += 1;
                self.observer.on_spin(loc(i), wait);
            }
            self.observer.on_runtime(loc(i), RuntimeKind::Omp, release.saturating_since(max_arr));
            self.observer.sync_logical(loc(i), max_piggy);
            let exit = release + Self::sec(self.config.omp.wake_stagger) * i as u64;
            tt[i as usize] = self.emit(loc(i), exit, EventInfo::Leave { region });
        }
        if let Some(p) = self.prof {
            // Virtual cost: total thread-time spent inside the barrier.
            let held: u64 =
                tt.iter().zip(&prof_arr).map(|(t, &a)| t.nanos().saturating_sub(a)).sum();
            p.leave(EventKind::Barrier, held);
        }
    }
}

/// What a priced kernel is, for the engine profile.
#[derive(Debug, Clone, Copy)]
enum Priced {
    /// A serial, replicated, single, master or critical-section kernel
    /// (a `KernelAdvance`).
    Kernel,
    /// One thread's share of a static-schedule loop (a `LoopChunk`).
    StaticShare,
    /// One dynamic or guided chunk (a `LoopChunk`). Its virtual time is
    /// taken from the `f64` seconds the schedule simulation consumes,
    /// scaled back to nanoseconds, not from the duration's own
    /// nanoseconds.
    DynamicChunk,
}

/// The one place the engine prices a kernel: it counts the observer's
/// instrumentation instructions, runs the duration model inside an
/// engine-profiler frame, and records what the observed model saw. It
/// borrows only what pricing reads, so the dynamic-loop closure can hold
/// one while the engine's scratch buffers are on loan.
struct Pricer<'e, O> {
    model: DurationModel<'e>,
    placement: &'e Placement,
    observer: &'e O,
    prof: Option<&'e RunProf>,
    /// Observatory sink, interned names, the rank's phase and the event
    /// sequence number its samples carry; `Some` exactly when `obs` is.
    obs: Option<(&'e RunObserve, &'e ObsIds, ObsPhase, u64)>,
}

impl<O: Observer> Pricer<'_, O> {
    /// Duration of `cost` (covering `iters` loop iterations, 0 for a
    /// plain kernel) on `loc`, started at `start`, plus the extra
    /// instructions the observer's counting charged to it.
    #[allow(clippy::too_many_arguments)]
    fn price(
        &self,
        what: Priced,
        loc: Location,
        cost: &nrlt_prog::Cost,
        iters: u64,
        working_set: u64,
        phase: ExecPhase,
        instance: u64,
        start: VirtualTime,
    ) -> (VirtualDuration, u64) {
        let extra = self.observer.counting_instructions(cost, iters);
        let mut instrumented = *cost;
        instrumented.instructions += extra;
        let kind = match what {
            Priced::Kernel => EventKind::KernelAdvance,
            Priced::StaticShare | Priced::DynamicChunk => EventKind::LoopChunk,
        };
        if let Some(p) = self.prof {
            p.enter(kind);
        }
        let mut probe = KernelProbe::default();
        let d = self.model.kernel_duration_instrumented(
            loc,
            &instrumented,
            working_set,
            phase,
            instance,
            self.obs.is_some().then_some(&mut probe),
            self.prof,
        );
        if let Some((obs, ids, ph, seq)) = self.obs {
            let core = self.placement.core_of(loc).0 as u64;
            record_kernel_obs(
                obs,
                ids,
                &probe,
                cost.mem_bytes,
                loc.rank,
                core,
                instance,
                ph,
                start.nanos(),
                seq,
            );
        }
        if let Some(p) = self.prof {
            let virtual_ns = match what {
                Priced::DynamicChunk => (d.as_secs_f64() * 1e9) as u64,
                Priced::Kernel | Priced::StaticShare => d.nanos(),
            };
            p.leave(kind, virtual_ns);
        }
        (d, extra)
    }
}

/// Record what one probed kernel-duration call saw: contention samples
/// (only for kernels that touch memory) and the noise draws that
/// perturbed it.
#[allow(clippy::too_many_arguments)]
fn record_kernel_obs(
    obs: &RunObserve,
    ids: &ObsIds,
    probe: &KernelProbe,
    mem_bytes: u64,
    rank: u32,
    core: u64,
    instance: u64,
    phase: ObsPhase,
    t_ns: u64,
    seq: u64,
) {
    if mem_bytes > 0 {
        obs.sample_id(
            ids.numa_bw[probe.numa as usize],
            phase,
            t_ns,
            seq,
            probe.active_in_domain as i64,
        );
        obs.sample_id(
            ids.socket_l3[probe.socket as usize],
            phase,
            t_ns,
            seq,
            probe.dram_permille as i64,
        );
    }
    if probe.cpu_noise_ns != 0 {
        obs.noise_id(NoiseKind::CpuJitter, rank, core, instance, phase, t_ns, probe.cpu_noise_ns);
    }
    if probe.mem_noise_ns != 0 {
        obs.noise_id(NoiseKind::MemJitter, rank, core, instance, phase, t_ns, probe.mem_noise_ns);
    }
    if probe.detour_ns > 0 {
        obs.noise_id(
            NoiseKind::OsDetour,
            rank,
            core,
            instance,
            phase,
            t_ns,
            probe.detour_ns as i64,
        );
    }
}
