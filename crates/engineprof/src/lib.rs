//! # nrlt-engineprof — engine self-profiling
//!
//! The telemetry (`nrlt-telemetry`) and observatory (`nrlt-observe`)
//! layers instrument the *simulated application*: phases, wait states,
//! resource contention inside virtual time. This crate instruments the
//! *simulator itself* — the discrete-event engine's hot loop — so the
//! planned engine-speed work can be justified and judged with data
//! instead of guesses (pipit-style KPI reports: named metrics, per-kind
//! cost tables, throughput).
//!
//! Three kinds of facts are collected per run:
//!
//! * **Per-event-kind cost accounting** — for each [`EventKind`]
//!   (kernel advance, loop chunk, pt2pt match, collective, barrier,
//!   noise draw): how many times it fired, how much *virtual* time it
//!   advanced, and how much *wall* time the engine spent processing it,
//!   split into inclusive and exclusive cost (a kernel advance nested
//!   inside a loop chunk is charged exclusively to the kernel, the
//!   chunk keeps only its own bookkeeping cost).
//! * **Occupancy timelines** — exact aggregates (count/sum/max) of
//!   gauge series sampled in the hot loop, keyed by `(series, phase)`:
//!   event-calendar (worklist) depth, matcher queue depths, wildcard
//!   queue depth, remaining loop iterations.
//! * **High-water marks and allocation counts** — peak sizes of the
//!   engine's growable state (pending-request vectors, collective
//!   instances, scratch buffers) and how often hot-loop containers had
//!   to reallocate.
//!
//! ## Strict opt-in, zero work when off
//!
//! The engine takes `Option<&RunProf>`; every instrumentation site is
//! behind `if let Some(p)`. A `None` run constructs no counter struct
//! and performs no accounting work — [`EngineProf::call_count`] proves
//! it (it counts `attach` calls and stays 0).
//!
//! ## Determinism contract
//!
//! Everything *except* wall time is a pure function of the simulated
//! run: counts, virtual nanoseconds, gauge aggregates, high-water
//! marks, allocation counts. The serialized bundle is therefore split
//! in two files: `engineprof.json` holds only the deterministic part
//! (byte-identical across `--jobs` widths and repeats — CI diffs it)
//! and `engineprof.wall.json` holds the wall-clock part (per-kind
//! inclusive/exclusive nanoseconds, events/sec).
//!
//! Aggregation mirrors `nrlt-observe`: one single-threaded [`RunProf`]
//! per experiment cell (cheap `RefCell` interior), [`attach`]ed into a
//! shared [`EngineProf`] sink keyed by run name, so the merged bundle
//! is independent of worker count and completion order.
//!
//! [`attach`]: EngineProf::attach

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub mod export;

pub use export::ProfBundle;

/// The event kinds the engine accounts for, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A kernel advancing virtual time on one location (serial kernels,
    /// per-thread team portions, critical-section bodies).
    KernelAdvance,
    /// One scheduled chunk of an OpenMP worksharing loop (static
    /// per-thread portions and dynamic/guided chunks).
    LoopChunk,
    /// A point-to-point send/recv pair being matched and its wire time
    /// resolved.
    Pt2ptMatch,
    /// A collective instance completing (all participants arrived).
    Collective,
    /// An OpenMP barrier joining a team (including implicit barriers).
    Barrier,
    /// One draw from a noise model stream (CPU jitter, memory jitter,
    /// memory bias, OS detour, network jitter).
    NoiseDraw,
}

impl EventKind {
    /// All kinds in canonical (serialization) order.
    pub const ALL: [EventKind; 6] = [
        EventKind::KernelAdvance,
        EventKind::LoopChunk,
        EventKind::Pt2ptMatch,
        EventKind::Collective,
        EventKind::Barrier,
        EventKind::NoiseDraw,
    ];

    /// Stable snake_case name used in bundles and reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::KernelAdvance => "kernel_advance",
            EventKind::LoopChunk => "loop_chunk",
            EventKind::Pt2ptMatch => "pt2pt_match",
            EventKind::Collective => "collective",
            EventKind::Barrier => "barrier",
            EventKind::NoiseDraw => "noise_draw",
        }
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Deterministic per-kind accounting: how often a kind fired and how
/// much virtual time it advanced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of events of this kind.
    pub count: u64,
    /// Total virtual nanoseconds attributed to this kind.
    pub virtual_ns: u64,
}

/// Wall-clock per-kind accounting (nondeterministic; excluded from the
/// byte-diffed part of the bundle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindWall {
    /// Wall nanoseconds including nested event kinds.
    pub inclusive_ns: u64,
    /// Wall nanoseconds excluding nested event kinds.
    pub exclusive_ns: u64,
}

/// Exact aggregate of one gauge series within one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeAgg {
    /// Number of samples.
    pub count: u64,
    /// Sum of sampled values (mean = sum / count).
    pub sum: i64,
    /// Maximum sampled value.
    pub max: i64,
}

impl GaugeAgg {
    fn record(&mut self, value: i64) {
        self.count += 1;
        self.sum += value;
        if self.count == 1 || value > self.max {
            self.max = value;
        }
    }

    /// Mean sampled value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One wall-profiling stack frame (live state only, never serialized).
#[derive(Debug, Clone, Copy)]
struct Frame {
    kind: EventKind,
    start: Instant,
    child_ns: u64,
}

/// Everything one run collected.
#[derive(Debug, Clone, Default)]
pub struct ProfData {
    /// Total engine events processed (the worklist-pop count).
    pub events: u64,
    /// Deterministic per-kind stats, indexed by [`EventKind::index`].
    pub kinds: [KindStats; 6],
    /// Wall-clock per-kind stats, indexed by [`EventKind::index`].
    pub wall: [KindWall; 6],
    /// Gauge aggregates keyed by `(series, phase)`.
    pub gauges: BTreeMap<(String, String), GaugeAgg>,
    /// High-water marks keyed by name.
    pub hwms: BTreeMap<String, u64>,
    /// Hot-loop allocation (reallocation/growth) counts keyed by site.
    pub allocs: BTreeMap<String, u64>,
    /// Total wall nanoseconds from run construction to `finish`.
    pub total_wall_ns: u64,
    /// Live wall-profiling stack (empty once finished).
    stack: Vec<Frame>,
}

impl ProfData {
    /// Events per wall second, derived from `events` and
    /// `total_wall_ns`; 0 when no wall time was recorded.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.total_wall_ns as f64 / 1e9)
        }
    }
}

/// Per-run profiler handle. Single-threaded by design: each experiment
/// cell runs on one worker, so interior mutability is a cheap
/// `RefCell`; cells aggregate into [`EngineProf`] when done.
#[derive(Debug)]
pub struct RunProf {
    name: String,
    started: Instant,
    data: RefCell<ProfData>,
}

impl RunProf {
    /// Start profiling a run. Wall time counts from here.
    pub fn new(name: impl Into<String>) -> Self {
        RunProf {
            name: name.into(),
            started: Instant::now(),
            data: RefCell::new(ProfData::default()),
        }
    }

    /// The run's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Open a wall-profiling frame for `kind`.
    pub fn enter(&self, kind: EventKind) {
        self.data.borrow_mut().stack.push(Frame { kind, start: Instant::now(), child_ns: 0 });
    }

    /// Close the innermost frame (which must be `kind`), attributing
    /// `virtual_ns` of simulated time to it and splitting wall time
    /// into inclusive/exclusive shares.
    pub fn leave(&self, kind: EventKind, virtual_ns: u64) {
        self.leave_n(kind, 1, virtual_ns);
    }

    /// [`leave`](Self::leave) for a frame that covered `n` events of
    /// `kind` (e.g. several noise channels drawn in one batch). With
    /// `n == 0` nothing happened: the frame is dropped and its wall time
    /// stays with the enclosing frame, as if it had never been opened.
    pub fn leave_n(&self, kind: EventKind, n: u64, virtual_ns: u64) {
        let mut d = self.data.borrow_mut();
        let frame = d.stack.pop().expect("leave without matching enter");
        debug_assert_eq!(frame.kind, kind, "mismatched enter/leave");
        if n == 0 {
            return;
        }
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        let i = kind.index();
        d.kinds[i].count += n;
        d.kinds[i].virtual_ns += virtual_ns;
        d.wall[i].inclusive_ns += elapsed;
        d.wall[i].exclusive_ns += elapsed.saturating_sub(frame.child_ns);
        if let Some(parent) = d.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// Record one sample of gauge `series` within `phase`.
    pub fn gauge(&self, series: &str, phase: &str, value: i64) {
        let mut d = self.data.borrow_mut();
        match d.gauges.get_mut(&(series.to_owned(), phase.to_owned())) {
            Some(agg) => agg.record(value),
            None => {
                let mut agg = GaugeAgg::default();
                agg.record(value);
                d.gauges.insert((series.to_owned(), phase.to_owned()), agg);
            }
        }
    }

    /// Raise the high-water mark `name` to at least `value`.
    pub fn hwm(&self, name: &str, value: u64) {
        let mut d = self.data.borrow_mut();
        match d.hwms.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                d.hwms.insert(name.to_owned(), value);
            }
        }
    }

    /// Count `n` hot-loop allocations at `site`.
    pub fn alloc(&self, site: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut d = self.data.borrow_mut();
        *d.allocs.entry(site.to_owned()).or_insert(0) += n;
    }

    /// Set the total engine event count for this run.
    pub fn set_events(&self, n: u64) {
        self.data.borrow_mut().events = n;
    }

    /// Total engine events recorded so far.
    pub fn events(&self) -> u64 {
        self.data.borrow().events
    }

    /// Finish the run: stamp total wall time (counted from
    /// [`RunProf::new`]) and hand the data back for aggregation. Any
    /// frames still open are discarded (debug builds assert the stack
    /// is empty).
    pub fn finish(self) -> (String, ProfData) {
        let mut d = self.data.into_inner();
        debug_assert!(d.stack.is_empty(), "finish with open frames");
        d.stack.clear();
        d.total_wall_ns = self.started.elapsed().as_nanos() as u64;
        (self.name, d)
    }
}

/// Thread-safe sink the per-run profilers aggregate into. Keyed by run
/// name, so the merged bundle is independent of worker count and
/// completion order.
#[derive(Debug, Default)]
pub struct EngineProf {
    calls: AtomicU64,
    runs: Mutex<BTreeMap<String, ProfData>>,
}

impl EngineProf {
    /// An empty sink.
    pub fn new() -> Self {
        EngineProf::default()
    }

    /// Merge one finished run. Later attaches under the same name win
    /// (runs are uniquely named in practice).
    pub fn attach(&self, name: String, data: ProfData) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.runs.lock().expect("engineprof poisoned").insert(name, data);
    }

    /// How many runs were attached — the zero-overhead proof: a
    /// profiler that is threaded as `None` never attaches anything.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Snapshot of all attached runs, sorted by name.
    pub fn runs(&self) -> BTreeMap<String, ProfData> {
        self.runs.lock().expect("engineprof poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(run: &RunProf) {
        run.enter(EventKind::LoopChunk);
        run.enter(EventKind::KernelAdvance);
        run.leave(EventKind::KernelAdvance, 1_000);
        run.enter(EventKind::NoiseDraw);
        run.leave(EventKind::NoiseDraw, 0);
        run.leave(EventKind::LoopChunk, 1_500);
        run.enter(EventKind::Barrier);
        run.leave(EventKind::Barrier, 200);
        run.gauge("matcher.queued_sends", "main", 3);
        run.gauge("matcher.queued_sends", "main", 1);
        run.hwm("engine.worklist", 4);
        run.hwm("engine.worklist", 2);
        run.alloc("rank.pending", 1);
        run.set_events(7);
    }

    #[test]
    fn per_kind_accounting() {
        let run = RunProf::new("r");
        drive(&run);
        let (name, d) = run.finish();
        assert_eq!(name, "r");
        assert_eq!(d.events, 7);
        let k = &d.kinds[EventKind::KernelAdvance.index()];
        assert_eq!((k.count, k.virtual_ns), (1, 1_000));
        let l = &d.kinds[EventKind::LoopChunk.index()];
        assert_eq!((l.count, l.virtual_ns), (1, 1_500));
        assert_eq!(d.kinds[EventKind::NoiseDraw.index()].count, 1);
        assert_eq!(d.kinds[EventKind::Pt2ptMatch.index()].count, 0);
        // Nesting: the loop chunk's inclusive wall covers its children,
        // its exclusive wall does not.
        let lw = &d.wall[EventKind::LoopChunk.index()];
        let kw = &d.wall[EventKind::KernelAdvance.index()];
        let nw = &d.wall[EventKind::NoiseDraw.index()];
        assert!(lw.inclusive_ns >= kw.inclusive_ns + nw.inclusive_ns);
        assert!(lw.exclusive_ns <= lw.inclusive_ns);
        assert!(lw.inclusive_ns - lw.exclusive_ns >= kw.inclusive_ns + nw.inclusive_ns);
    }

    #[test]
    fn leave_n_counts_a_batch_and_an_empty_frame_bills_the_parent() {
        let run = RunProf::new("r");
        run.enter(EventKind::KernelAdvance);
        run.enter(EventKind::NoiseDraw);
        run.leave_n(EventKind::NoiseDraw, 3, 40);
        run.enter(EventKind::NoiseDraw);
        std::thread::sleep(std::time::Duration::from_millis(2));
        run.leave_n(EventKind::NoiseDraw, 0, 0);
        run.leave(EventKind::KernelAdvance, 100);
        let (_, d) = run.finish();
        let n = &d.kinds[EventKind::NoiseDraw.index()];
        assert_eq!((n.count, n.virtual_ns), (3, 40));
        // The empty frame's 2 ms stayed exclusive to the kernel.
        let kw = &d.wall[EventKind::KernelAdvance.index()];
        assert!(kw.exclusive_ns >= 2_000_000, "{kw:?}");
        assert!(d.wall[EventKind::NoiseDraw.index()].inclusive_ns < kw.exclusive_ns);
    }

    #[test]
    fn gauges_hwms_allocs() {
        let run = RunProf::new("r");
        drive(&run);
        let (_, d) = run.finish();
        let g = &d.gauges[&("matcher.queued_sends".to_owned(), "main".to_owned())];
        assert_eq!((g.count, g.sum, g.max), (2, 4, 3));
        assert_eq!(g.mean(), 2.0);
        assert_eq!(d.hwms["engine.worklist"], 4);
        assert_eq!(d.allocs["rank.pending"], 1);
        assert!(d.total_wall_ns > 0);
        assert!(d.events_per_sec() > 0.0);
    }

    #[test]
    fn gauge_max_handles_negative_first_sample() {
        let run = RunProf::new("r");
        run.gauge("s", "", -5);
        run.gauge("s", "", -9);
        let (_, d) = run.finish();
        let g = &d.gauges[&("s".to_owned(), String::new())];
        assert_eq!((g.count, g.sum, g.max), (2, -14, -5));
    }

    #[test]
    fn attach_is_order_independent() {
        let make = |names: &[&str]| {
            let sink = EngineProf::new();
            for n in names {
                let run = RunProf::new(*n);
                drive(&run);
                let (name, data) = run.finish();
                sink.attach(name, data);
            }
            sink
        };
        let a = make(&["x", "y", "z"]);
        let b = make(&["z", "x", "y"]);
        assert_eq!(a.call_count(), 3);
        let keys: Vec<_> = a.runs().into_keys().collect();
        assert_eq!(keys, b.runs().into_keys().collect::<Vec<_>>());
        assert_eq!(keys, vec!["x", "y", "z"]);
    }

    #[test]
    fn untouched_sink_reports_zero_calls() {
        let sink = EngineProf::new();
        assert_eq!(sink.call_count(), 0);
        assert!(sink.runs().is_empty());
    }
}
