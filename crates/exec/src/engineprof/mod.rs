//! Engine self-profiling.
//!
//! The telemetry (`nrlt-telemetry`) and observatory (`nrlt-observe`)
//! layers instrument the *simulated application*: phases, wait states,
//! resource contention inside virtual time. This module instruments the
//! *simulator itself* — the discrete-event engine's hot loop — so
//! engine-speed work can be justified and judged with data instead of
//! guesses (pipit-style KPI reports: named metrics, per-kind tables).
//!
//! Three kinds of facts are collected per run, all deterministic:
//!
//! * **Per-event-kind accounting** — for each [`EventKind`] (kernel
//!   advance, loop chunk, pt2pt match, collective, barrier, noise draw):
//!   how many times it fired and how much *virtual* time it advanced.
//! * **Occupancy timelines** — exact aggregates (count/sum/max) of
//!   gauge series sampled in the hot loop, keyed by series, then phase:
//!   event-calendar (worklist) depth, matcher queue depths, wildcard
//!   queue depth, remaining loop iterations.
//! * **High-water marks and allocation counts** — peak sizes of the
//!   engine's growable state (pending-request vectors, collective
//!   instances, scratch buffers) and how often hot-loop containers had
//!   to reallocate.
//!
//! ## Wall time comes from the sampler
//!
//! The profiler reads no clock. Where wall time goes is the sampling
//! profiler's question (`nrlt_telemetry::sample`): while a [`RunProf`]
//! is live on a thread that holds a sampler slot, every
//! [`enter`](RunProf::enter) publishes an `engine.<kind>` frame under
//! the engine's per-quantum `engine.rank` frame, and the matching
//! `leave` pops it. Sampled stacks then rank the kinds by exclusive and
//! inclusive samples (`nrlt-report engine` does the join). Without a
//! `RunProf` the sampler keeps per-quantum granularity; without an
//! installed sampler `enter` is one branch.
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
//! Everything recorded is a pure function of the simulated run, so the
//! serialized bundle (`engineprof.json`) is byte-identical across
//! `--jobs` widths and repeats — CI diffs it. Aggregation mirrors
//! `nrlt-observe`: one single-threaded [`RunProf`] per experiment cell
//! (cheap `RefCell` interior), [`attach`]ed into a shared [`EngineProf`]
//! sink keyed by run name, so the merged bundle is independent of
//! worker count and completion order.
//!
//! [`attach`]: EngineProf::attach

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nrlt_telemetry::sample::{self, frames, LeafHandle};

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

    /// The sampler frame published while an event of this kind is
    /// processed (`engine.<name>`).
    pub fn frame(self) -> frames::FrameId {
        match self {
            EventKind::KernelAdvance => frames::ENGINE_KERNEL_ADVANCE,
            EventKind::LoopChunk => frames::ENGINE_LOOP_CHUNK,
            EventKind::Pt2ptMatch => frames::ENGINE_PT2PT_MATCH,
            EventKind::Collective => frames::ENGINE_COLLECTIVE,
            EventKind::Barrier => frames::ENGINE_BARRIER,
            EventKind::NoiseDraw => frames::ENGINE_NOISE_DRAW,
        }
    }
}

/// Per-kind accounting: how often a kind fired and how much virtual
/// time it advanced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of events of this kind.
    pub count: u64,
    /// Total virtual nanoseconds attributed to this kind.
    pub virtual_ns: u64,
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
}

/// Everything one run collected.
#[derive(Debug, Clone, Default)]
pub struct ProfData {
    /// Total engine events processed (the worklist-pop count).
    pub events: u64,
    /// Per-kind stats, indexed by [`EventKind::index`].
    pub kinds: [KindStats; 6],
    /// Gauge aggregates keyed by series, then phase.
    pub gauges: BTreeMap<String, BTreeMap<String, GaugeAgg>>,
    /// High-water marks keyed by name.
    pub hwms: BTreeMap<String, u64>,
    /// Hot-loop allocation (reallocation/growth) counts keyed by site.
    pub allocs: BTreeMap<String, u64>,
}

/// `map[key]`, inserting a default value under an owned copy of `key`
/// only when the key is new — the hot loop's repeat lookups allocate
/// nothing.
fn entry<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// Per-run profiler handle. Single-threaded by design: each experiment
/// cell runs on one worker, so interior mutability is a cheap
/// `RefCell`; cells aggregate into [`EngineProf`] when done.
#[derive(Debug)]
pub struct RunProf {
    name: String,
    /// The constructing thread's sampler slot (`None` when no sampling
    /// profiler is installed): kind frames publish through it.
    leaf: Option<LeafHandle>,
    data: RefCell<ProfData>,
}

impl RunProf {
    /// Start profiling a run. Construct it on the thread that drives the
    /// engine: kind frames publish into that thread's sampler slot.
    pub fn new(name: impl Into<String>) -> Self {
        RunProf {
            name: name.into(),
            leaf: sample::leaf_handle(),
            data: RefCell::new(ProfData::default()),
        }
    }

    /// Start processing an event of `kind`: publishes its sampler frame.
    pub fn enter(&self, kind: EventKind) {
        if let Some(leaf) = &self.leaf {
            leaf.push(kind.frame());
        }
    }

    /// Finish the innermost [`enter`](Self::enter)ed event, counting one
    /// `kind` event that advanced `virtual_ns` of simulated time.
    pub fn leave(&self, kind: EventKind, virtual_ns: u64) {
        self.leave_n(kind, 1, virtual_ns);
    }

    /// [`leave`](Self::leave) for a frame that covered `n` events of
    /// `kind` (e.g. several noise channels drawn in one batch). With
    /// `n == 0` nothing is counted; the frame still pops.
    pub(crate) fn leave_n(&self, kind: EventKind, n: u64, virtual_ns: u64) {
        if let Some(leaf) = &self.leaf {
            leaf.pop();
        }
        if n == 0 {
            return;
        }
        let stats = &mut self.data.borrow_mut().kinds[kind.index()];
        stats.count += n;
        stats.virtual_ns += virtual_ns;
    }

    /// Record one sample of gauge `series` within `phase`.
    pub fn gauge(&self, series: &str, phase: &str, value: i64) {
        let d = &mut *self.data.borrow_mut();
        entry(entry(&mut d.gauges, series), phase).record(value);
    }

    /// Raise the high-water mark `name` to at least `value`.
    pub fn hwm(&self, name: &str, value: u64) {
        let d = &mut *self.data.borrow_mut();
        let v = entry(&mut d.hwms, name);
        *v = (*v).max(value);
    }

    /// Count `n` hot-loop allocations at `site`.
    pub fn alloc(&self, site: &str, n: u64) {
        if n == 0 {
            return;
        }
        *entry(&mut self.data.borrow_mut().allocs, site) += n;
    }

    /// Set the total engine event count for this run.
    pub fn set_events(&self, n: u64) {
        self.data.borrow_mut().events = n;
    }

    /// Finish the run and hand the data back for aggregation.
    pub fn finish(self) -> (String, ProfData) {
        (self.name, self.data.into_inner())
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
        let count = |k: EventKind| (d.kinds[k.index()].count, d.kinds[k.index()].virtual_ns);
        assert_eq!(count(EventKind::KernelAdvance), (1, 1_000));
        assert_eq!(count(EventKind::LoopChunk), (1, 1_500));
        assert_eq!(count(EventKind::NoiseDraw), (1, 0));
        assert_eq!(count(EventKind::Barrier), (1, 200));
        assert_eq!(count(EventKind::Pt2ptMatch), (0, 0));
    }

    #[test]
    fn leave_n_counts_a_batch_and_an_empty_frame_counts_nothing() {
        let run = RunProf::new("r");
        run.enter(EventKind::KernelAdvance);
        run.enter(EventKind::NoiseDraw);
        run.leave_n(EventKind::NoiseDraw, 3, 40);
        run.enter(EventKind::NoiseDraw);
        run.leave_n(EventKind::NoiseDraw, 0, 0);
        run.leave(EventKind::KernelAdvance, 100);
        let (_, d) = run.finish();
        let n = &d.kinds[EventKind::NoiseDraw.index()];
        assert_eq!((n.count, n.virtual_ns), (3, 40));
        let k = &d.kinds[EventKind::KernelAdvance.index()];
        assert_eq!((k.count, k.virtual_ns), (1, 100));
    }

    #[test]
    fn kind_frames_are_registered_engine_frames() {
        for kind in EventKind::ALL {
            assert_eq!(frames::name(kind.frame()), format!("engine.{}", kind.name()));
        }
    }

    #[test]
    fn gauges_hwms_allocs() {
        let run = RunProf::new("r");
        drive(&run);
        let (_, d) = run.finish();
        let g = &d.gauges["matcher.queued_sends"]["main"];
        assert_eq!((g.count, g.sum, g.max), (2, 4, 3));
        assert_eq!(d.hwms["engine.worklist"], 4);
        assert_eq!(d.allocs["rank.pending"], 1);
    }

    #[test]
    fn gauge_max_handles_negative_first_sample() {
        let run = RunProf::new("r");
        run.gauge("s", "", -5);
        run.gauge("s", "", -9);
        let (_, d) = run.finish();
        let g = &d.gauges["s"][""];
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
