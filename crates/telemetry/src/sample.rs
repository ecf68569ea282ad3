//! Cooperative wall-clock sampling profiler.
//!
//! The span layer of this crate ([`crate::Telemetry`]) records *every*
//! span open/close under a mutex — exact, but expensive enough that a
//! fully traced pipeline run costs tens of percent of wall time. This
//! module is the always-on complement: worker threads *publish* their
//! current frame path into a lock-free per-thread slot (a fixed-size
//! frame array guarded by a generation counter — a seqlock), and a
//! background sampler thread snapshots every slot at a configurable
//! rate (default [`DEFAULT_RATE_HZ`] = 97 Hz, prime so the sampler does
//! not phase-lock with periodic pipeline work). Each snapshot folds the
//! observed stack into a collapsed-stack histogram, which exports in
//! the folded format of flamegraph tools such as
//! [inferno](https://github.com/jonhoo/inferno): `a;b;c <count>`.
//!
//! The cost model is the whole point:
//!
//! * **publishing** a frame is two atomic increments and two relaxed
//!   stores on a cache line owned by the publishing thread — no locks,
//!   no allocation, independent of the sampling rate;
//! * **sampling** costs one background thread waking ~100 times per
//!   second to read at most [`MAX_SLOTS`] cache lines — well under 1%
//!   of one core;
//! * **disabled** (no profiler installed), [`frame`] is one relaxed
//!   atomic load and a thread-local check, and *no slot is ever
//!   published* — the opt-in contract every instrumented layer of this
//!   workspace already follows, test-asserted via [`SampleProf::publishes`].
//!
//! Frame names come from the fixed registry in [`frames`] — publication
//! sites pass a `FrameId`, never a string, so the hot path moves no
//! bytes and every sampled stack is guaranteed to resolve to a
//! registered name (the structure invariant the tests pin: sampled
//! frame names ⊆ the registry). Sample *counts* are inherently
//! nondeterministic — they belong in wall sidecars
//! (`sampleprof.wall.json`), never in deterministic artifacts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Default sampling rate in Hz. 97 is prime: a sampler that ticks at a
/// divisor of common loop periods would alias, systematically hitting
/// (or missing) the same frame.
pub const DEFAULT_RATE_HZ: u32 = 97;

/// Maximum number of concurrently registered threads.
pub const MAX_SLOTS: usize = 64;

/// Maximum published stack depth per slot; deeper frames are recorded
/// as [`frames::TRUNCATED`].
pub const MAX_FRAMES: usize = 24;

/// The frame registry: every frame path element the pipeline can
/// publish. Publication sites use the `FrameId` constants; the sampler
/// resolves them back through [`frames::name`]. Keeping the registry
/// static is what makes publication allocation-free and lets tests
/// assert that every sampled frame name is registered.
pub mod frames {
    /// Identifier of a registered frame (an index into [`NAMES`]).
    pub type FrameId = u16;

    /// An uninstrumented reference repetition.
    pub const EXPERIMENT_REFERENCE: FrameId = 0;
    /// One measured (mode, repetition) cell.
    pub const MODE_CELL: FrameId = 1;
    /// One instrumented measurement run (`nrlt-measure`).
    pub const MEASURE_RUN: FrameId = 2;
    /// The discrete-event engine's event loop (`nrlt-exec`).
    pub const ENGINE_RUN: FrameId = 3;
    /// One rank's scheduling quantum inside the engine.
    pub const ENGINE_RANK: FrameId = 4;
    /// Trace finalization in the measurement observer
    /// (`crates/measure/observer.rs`).
    pub const TRACE_BUILD: FrameId = 5;
    /// Trace replay during analysis.
    pub const ANALYZE_REPLAY: FrameId = 6;
    /// Point-to-point wait-state detection.
    pub const ANALYZE_P2P: FrameId = 7;
    /// Collective wait-state detection.
    pub const ANALYZE_COLLECTIVES: FrameId = 8;
    /// OpenMP barrier wait-state detection.
    pub const ANALYZE_OMP: FrameId = 9;
    /// Idle-thread accounting.
    pub const ANALYZE_IDLE: FrameId = 10;
    /// Delay-cost (root-cause) analysis.
    pub const ANALYZE_DELAY: FrameId = 11;
    /// Deterministic result merge after the cell fan-out.
    pub const EXPERIMENT_MERGE: FrameId = 12;
    /// Harness-level work outside any experiment (report rendering,
    /// bundle writing).
    pub const HARNESS: FrameId = 13;
    /// Spilling trace chunks to the out-of-core segment store
    /// (`crates/trace/segment.rs`).
    pub const TRACE_SPILL: FrameId = 14;
    /// K-way merge over per-location cursors during streaming analysis.
    pub const ANALYZE_MERGE: FrameId = 15;
    /// Engine event kinds, published under [`ENGINE_RANK`] only while
    /// an engine profiler (`nrlt_exec::engineprof::RunProf`) is live:
    /// a kernel advancing virtual time.
    pub const ENGINE_KERNEL_ADVANCE: FrameId = 16;
    /// One OpenMP worksharing-loop chunk.
    pub const ENGINE_LOOP_CHUNK: FrameId = 17;
    /// A point-to-point send/recv match.
    pub const ENGINE_PT2PT_MATCH: FrameId = 18;
    /// A collective instance completing.
    pub const ENGINE_COLLECTIVE: FrameId = 19;
    /// An OpenMP barrier joining a team.
    pub const ENGINE_BARRIER: FrameId = 20;
    /// Noise-model draws.
    pub const ENGINE_NOISE_DRAW: FrameId = 21;
    /// Pseudo-frame appended when a stack exceeded [`super::MAX_FRAMES`].
    pub const TRUNCATED: FrameId = 22;

    /// Display names, indexed by `FrameId`.
    pub const NAMES: [&str; 23] = [
        "experiment.reference",
        "experiment.mode_cell",
        "measure.run",
        "engine.run",
        "engine.rank",
        "measure.trace_build",
        "analysis.replay",
        "analysis.p2p",
        "analysis.collectives",
        "analysis.omp_barriers",
        "analysis.idle_threads",
        "analysis.delay_costs",
        "experiment.merge",
        "harness",
        "measure.trace_spill",
        "analysis.merge",
        "engine.kernel_advance",
        "engine.loop_chunk",
        "engine.pt2pt_match",
        "engine.collective",
        "engine.barrier",
        "engine.noise_draw",
        "(truncated)",
    ];

    /// The display name of a frame id (`"(unregistered)"` for ids
    /// outside the registry — sampled stacks never contain those by
    /// construction, but the resolver is total anyway).
    pub fn name(id: FrameId) -> &'static str {
        NAMES.get(id as usize).copied().unwrap_or("(unregistered)")
    }
}

use frames::FrameId;

/// One per-thread publication slot: a seqlock-guarded frame array.
///
/// Writers (the owning thread) bump `gen` to odd, mutate, bump back to
/// even. The sampler retries a read whose generation was odd or changed
/// — a torn stack is *dropped*, never recorded.
struct Slot {
    gen: AtomicU32,
    depth: AtomicU32,
    frames: [AtomicU16; MAX_FRAMES],
    active: AtomicBool,
    pushes: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        // `AtomicU16` is not Copy; `[const { ... }; N]` repeats the
        // expression per element instead of copying one value.
        Slot {
            gen: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: [const { AtomicU16::new(0) }; MAX_FRAMES],
            active: AtomicBool::new(false),
            pushes: AtomicU64::new(0),
        }
    }

    fn push(&self, id: FrameId) {
        self.gen.fetch_add(1, Ordering::AcqRel);
        let d = self.depth.load(Ordering::Relaxed) as usize;
        if d < MAX_FRAMES {
            self.frames[d].store(id, Ordering::Relaxed);
        }
        self.depth.store(d as u32 + 1, Ordering::Relaxed);
        self.gen.fetch_add(1, Ordering::AcqRel);
        self.pushes.fetch_add(1, Ordering::Relaxed);
    }

    fn pop(&self) {
        self.gen.fetch_add(1, Ordering::AcqRel);
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Seqlock-read the current stack. `None` when the slot is
    /// inactive, empty, or was written concurrently on every retry.
    fn snapshot(&self) -> Option<Vec<FrameId>> {
        for _ in 0..8 {
            let g1 = self.gen.load(Ordering::Acquire);
            if g1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            if !self.active.load(Ordering::Acquire) {
                return None;
            }
            let depth = self.depth.load(Ordering::Relaxed) as usize;
            if depth == 0 {
                return None;
            }
            let shown = depth.min(MAX_FRAMES);
            let mut stack: Vec<FrameId> =
                (0..shown).map(|i| self.frames[i].load(Ordering::Relaxed)).collect();
            if depth > MAX_FRAMES {
                stack.push(frames::TRUNCATED);
            }
            let g2 = self.gen.load(Ordering::Acquire);
            if g1 == g2 {
                return Some(stack);
            }
        }
        None
    }

    /// Release for reuse (registration CAS on `active` claims it).
    fn release(&self) {
        self.gen.fetch_add(1, Ordering::AcqRel);
        self.depth.store(0, Ordering::Relaxed);
        self.active.store(false, Ordering::Release);
        self.gen.fetch_add(1, Ordering::AcqRel);
    }
}

struct ProfInner {
    interval: Duration,
    rate_hz: u32,
    slots: Vec<Slot>,
    stop: AtomicBool,
    /// Sampler ticks taken (including ticks where every slot was idle).
    ticks: AtomicU64,
    /// Stacks recorded into the folded histogram.
    samples: AtomicU64,
    /// Seqlock reads abandoned after exhausting retries.
    torn: AtomicU64,
    folded: Mutex<BTreeMap<Vec<FrameId>, u64>>,
    sampler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ProfInner {
    fn tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        let mut local: Vec<Vec<FrameId>> = Vec::new();
        for slot in &self.slots {
            if !slot.active.load(Ordering::Relaxed) {
                continue;
            }
            let before = slot.gen.load(Ordering::Acquire);
            match slot.snapshot() {
                Some(stack) => local.push(stack),
                // A failed snapshot of an active slot with a moving
                // generation counter is a torn read, not an idle slot.
                None => {
                    if slot.gen.load(Ordering::Acquire) != before {
                        self.torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if !local.is_empty() {
            let mut folded = self.folded.lock().expect("sampler poisoned");
            for stack in local {
                self.samples.fetch_add(1, Ordering::Relaxed);
                *folded.entry(stack).or_insert(0) += 1;
            }
        }
    }

    /// Stop and join the sampler thread (idempotent). The folded
    /// histogram keeps everything sampled so far.
    fn stop_sampler(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = self.sampler.lock().expect("sampler poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// The sampling-profiler handle. Clone-free sharing happens through the
/// process-wide [`SampleProf::install`] guard; the handle itself is
/// cheap to move and all methods take `&self`.
pub struct SampleProf {
    inner: Arc<ProfInner>,
}

impl Default for SampleProf {
    fn default() -> Self {
        SampleProf::new()
    }
}

impl SampleProf {
    /// A profiler sampling at [`DEFAULT_RATE_HZ`].
    pub fn new() -> SampleProf {
        SampleProf::with_rate(DEFAULT_RATE_HZ)
    }

    /// A profiler sampling at `rate_hz` (clamped to 1..=1000).
    pub fn with_rate(rate_hz: u32) -> SampleProf {
        let rate_hz = rate_hz.clamp(1, 1000);
        SampleProf {
            inner: Arc::new(ProfInner {
                interval: Duration::from_nanos(1_000_000_000 / rate_hz as u64),
                rate_hz,
                slots: (0..MAX_SLOTS).map(|_| Slot::new()).collect(),
                stop: AtomicBool::new(false),
                ticks: AtomicU64::new(0),
                samples: AtomicU64::new(0),
                torn: AtomicU64::new(0),
                folded: Mutex::new(BTreeMap::new()),
                sampler: Mutex::new(None),
            }),
        }
    }

    /// The configured sampling rate in Hz.
    pub fn rate_hz(&self) -> u32 {
        self.inner.rate_hz
    }

    /// Install this profiler as the process's active sampler and start
    /// the background sampler thread. Threads that subsequently call
    /// [`frame`] lazily register a slot here; the guard uninstalls (and
    /// stops the sampler) on drop. Installing while another profiler is
    /// installed replaces it for *new* registrations; already-attached
    /// threads re-resolve on their next [`frame`] call via the epoch.
    #[must_use = "the profiler uninstalls when the guard drops"]
    pub fn install(&self) -> InstallGuard {
        {
            let mut active = ACTIVE.lock().expect("sampler registry poisoned");
            *active = Some(Arc::downgrade(&self.inner));
        }
        EPOCH.fetch_add(1, Ordering::Release);
        self.start();
        InstallGuard { inner: Arc::clone(&self.inner) }
    }

    /// Start the sampler thread (no-op when already running).
    fn start(&self) {
        let mut sampler = self.inner.sampler.lock().expect("sampler poisoned");
        if sampler.is_some() {
            return;
        }
        self.inner.stop.store(false, Ordering::Release);
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("nrlt-sampler".into())
            .spawn(move || {
                while !inner.stop.load(Ordering::Acquire) {
                    std::thread::sleep(inner.interval);
                    inner.tick();
                }
            })
            .expect("cannot spawn sampler thread");
        *sampler = Some(handle);
    }

    /// Sampler wake-ups so far (including idle ticks).
    pub fn ticks(&self) -> u64 {
        self.inner.ticks.load(Ordering::Relaxed)
    }

    /// Stacks folded into the histogram so far.
    pub fn samples(&self) -> u64 {
        self.inner.samples.load(Ordering::Relaxed)
    }

    /// Snapshot reads dropped because a writer was mid-update.
    pub fn torn(&self) -> u64 {
        self.inner.torn.load(Ordering::Relaxed)
    }

    /// Total frame publications into this profiler's slots. The opt-in
    /// contract test: a run without [`SampleProf::install`] leaves this
    /// at 0 — no thread ever published a slot.
    pub fn publishes(&self) -> u64 {
        self.inner.slots.iter().map(|s| s.pushes.load(Ordering::Relaxed)).sum()
    }

    /// Number of currently registered thread slots.
    pub fn active_slots(&self) -> usize {
        self.inner.slots.iter().filter(|s| s.active.load(Ordering::Relaxed)).count()
    }

    /// The folded histogram resolved to frame names: one entry per
    /// distinct sampled stack, sorted by stack for deterministic
    /// iteration (counts are wall-clock data and inherently not).
    pub fn stack_counts(&self) -> BTreeMap<Vec<&'static str>, u64> {
        let folded = self.inner.folded.lock().expect("sampler poisoned");
        folded
            .iter()
            .map(|(stack, &n)| (stack.iter().map(|&id| frames::name(id)).collect(), n))
            .collect()
    }

    /// The top `n` sampled stacks by count (stack rendered `a;b;c`),
    /// count-descending with the rendered stack as tiebreak.
    pub fn top_stacks(&self, n: usize) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> =
            self.stack_counts().into_iter().map(|(stack, c)| (stack.join(";"), c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }
}

/// Keeps a [`SampleProf`] installed; uninstalls and stops the sampler
/// thread on drop.
pub struct InstallGuard {
    inner: Arc<ProfInner>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        {
            let mut active = ACTIVE.lock().expect("sampler registry poisoned");
            // Only uninstall ourselves — a newer install wins.
            if let Some(current) = active.as_ref().and_then(Weak::upgrade) {
                if Arc::ptr_eq(&current, &self.inner) {
                    *active = None;
                }
            }
        }
        EPOCH.fetch_add(1, Ordering::Release);
        self.inner.stop_sampler();
    }
}

/// The process-wide active profiler. A `Weak` so a leaked guard can
/// never keep slots alive past their profiler; bumping [`EPOCH`] makes
/// every thread re-resolve lazily.
static ACTIVE: Mutex<Option<Weak<ProfInner>>> = Mutex::new(None);
static EPOCH: AtomicU64 = AtomicU64::new(1);

/// A thread's registration with a profiler; releases the slot on drop
/// (which thread-local destruction triggers at thread exit).
struct SlotRef {
    inner: Arc<ProfInner>,
    idx: usize,
}

impl SlotRef {
    fn slot(&self) -> &Slot {
        &self.inner.slots[self.idx]
    }
}

impl Drop for SlotRef {
    fn drop(&mut self) {
        self.slot().release();
    }
}

#[derive(Default)]
struct ThreadState {
    epoch: u64,
    slot: Option<SlotRef>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Re-resolve the thread's slot after an epoch change: drop the old
/// registration, claim a fresh slot in the currently installed
/// profiler (if any).
fn refresh(state: &mut ThreadState, epoch: u64) {
    state.slot = None; // releases via Drop before re-claiming
    state.epoch = epoch;
    let inner = {
        let active = ACTIVE.lock().expect("sampler registry poisoned");
        active.as_ref().and_then(Weak::upgrade)
    };
    let Some(inner) = inner else { return };
    for (idx, slot) in inner.slots.iter().enumerate() {
        if slot.active.compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed).is_ok() {
            state.slot = Some(SlotRef { inner, idx });
            return;
        }
    }
    // All slots taken: this thread publishes nothing (counted nowhere —
    // MAX_SLOTS is far above any realistic worker count).
}

/// Publish frame `id` on this thread until the returned guard drops.
///
/// With no profiler installed this is one atomic load, one
/// thread-local access, and a branch — the "disabled" cost every
/// pipeline layer pays at its (coarse) publication sites. With a
/// profiler installed, the first call per thread registers a slot;
/// subsequent calls are two atomic increments and two stores.
pub fn frame(id: FrameId) -> FrameGuard {
    THREAD.with(|cell| {
        let mut state = cell.borrow_mut();
        let epoch = EPOCH.load(Ordering::Acquire);
        if state.epoch != epoch {
            refresh(&mut state, epoch);
        }
        match &state.slot {
            Some(slot_ref) => {
                slot_ref.slot().push(id);
                FrameGuard { registered: Some(Arc::clone(&slot_ref.inner)) }
            }
            None => FrameGuard { registered: None },
        }
    })
}

/// True when this thread currently holds a publication slot. The
/// disabled-run contract test asserts this stays false without an
/// installed profiler.
#[cfg(test)]
fn attached() -> bool {
    THREAD.with(|cell| cell.borrow().slot.is_some())
}

/// RAII guard of one published frame; pops it on drop.
#[must_use = "the frame unpublishes when the guard drops"]
pub struct FrameGuard {
    registered: Option<Arc<ProfInner>>,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        let Some(inner) = self.registered.take() else { return };
        THREAD.with(|cell| {
            let state = cell.borrow();
            if let Some(slot_ref) = &state.slot {
                if Arc::ptr_eq(&slot_ref.inner, &inner) {
                    slot_ref.slot().pop();
                }
                // Epoch moved between push and pop: the old slot was
                // already released wholesale (depth reset), nothing to
                // undo.
            }
        });
    }
}

/// A direct handle to this thread's slot, for hot layers that want to
/// publish frames without paying the thread-local lookup per call
/// (e.g. once per engine scheduling quantum). Resolves to `None` when
/// no profiler is installed — the `None` branch is the entire disabled
/// cost of a publication site using it.
pub fn leaf_handle() -> Option<LeafHandle> {
    THREAD.with(|cell| {
        let mut state = cell.borrow_mut();
        let epoch = EPOCH.load(Ordering::Acquire);
        if state.epoch != epoch {
            refresh(&mut state, epoch);
        }
        state
            .slot
            .as_ref()
            .map(|slot_ref| LeafHandle { inner: Arc::clone(&slot_ref.inner), idx: slot_ref.idx })
    })
}

/// See [`leaf_handle`]. Push/pop pairs must stay balanced on the
/// owning thread; the handle must not outlive the thread's
/// registration scope (resolve it fresh per run).
pub struct LeafHandle {
    inner: Arc<ProfInner>,
    idx: usize,
}

impl std::fmt::Debug for LeafHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeafHandle").field("slot", &self.idx).finish_non_exhaustive()
    }
}

impl LeafHandle {
    /// Push `id` onto the owning thread's published stack.
    pub fn push(&self, id: FrameId) {
        self.inner.slots[self.idx].push(id);
    }

    /// Pop the most recent frame.
    pub fn pop(&self) {
        self.inner.slots[self.idx].pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installing a profiler mutates process-global state; tests that
    /// install serialize on this.
    static INSTALL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_frame_publishes_nothing() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let prof = SampleProf::new(); // constructed but never installed
        {
            let _f = frame(frames::ENGINE_RUN);
            let _g = frame(frames::ENGINE_RANK);
            assert!(!attached());
        }
        assert_eq!(prof.publishes(), 0);
        assert_eq!(prof.active_slots(), 0);
        assert!(prof.stack_counts().is_empty());
    }

    #[test]
    fn installed_frames_are_published_and_sampled() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let prof = SampleProf::with_rate(1000);
        let guard = prof.install();
        {
            let _a = frame(frames::MODE_CELL);
            assert!(attached());
            let _b = frame(frames::MEASURE_RUN);
            let _c = frame(frames::ENGINE_RUN);
            // Hold the stack long enough for several sampler ticks.
            let deadline = std::time::Instant::now() + Duration::from_millis(400);
            while prof.samples() == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        prof.inner.stop_sampler();
        drop(guard);
        assert!(prof.publishes() >= 3);
        assert!(prof.samples() > 0, "sampler must observe the held stack");
        let counts = prof.stack_counts();
        let expected: Vec<&str> = vec!["experiment.mode_cell", "measure.run", "engine.run"];
        assert!(counts.keys().any(|stack| *stack == expected), "expected full stack in {counts:?}");
        // Structure invariant: every sampled frame resolves to the registry.
        for stack in counts.keys() {
            for name in stack {
                assert!(frames::NAMES.contains(name), "unregistered frame {name}");
            }
        }
    }

    #[test]
    fn uninstall_detaches_threads_lazily() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let prof = SampleProf::with_rate(1000);
        let guard = prof.install();
        {
            let _a = frame(frames::HARNESS);
            assert!(attached());
        }
        drop(guard);
        // Next frame call re-resolves: no profiler, no slot.
        {
            let _a = frame(frames::HARNESS);
            assert!(!attached());
        }
        assert_eq!(prof.active_slots(), 0, "slot must be released on epoch change");
    }

    #[test]
    fn worker_threads_get_their_own_slots_and_release_on_exit() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let prof = SampleProf::with_rate(1000);
        let guard = prof.install();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let _f = frame(frames::MODE_CELL);
                        assert!(attached());
                        std::thread::sleep(Duration::from_millis(20));
                    })
                })
                .collect();
            // The scope itself stops waiting once each closure returns,
            // possibly before the thread-local destructors that release
            // the slots have run; a native join waits for those too.
            for w in workers {
                w.join().expect("worker panicked");
            }
        });
        // Every worker thread has exited: their thread-local destructors
        // released every slot.
        assert_eq!(prof.active_slots(), 0);
        assert!(prof.publishes() >= 4);
        prof.inner.stop_sampler();
        drop(guard);
    }

    #[test]
    fn deep_stacks_truncate_with_a_marker() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let prof = SampleProf::with_rate(1000);
        let guard = prof.install();
        let _guards: Vec<FrameGuard> =
            (0..MAX_FRAMES + 3).map(|_| frame(frames::ENGINE_RANK)).collect();
        let deadline = std::time::Instant::now() + Duration::from_millis(400);
        while prof.samples() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        prof.inner.stop_sampler();
        let counts = prof.stack_counts();
        assert!(
            counts.keys().any(|s| s.last() == Some(&"(truncated)")),
            "over-deep stack must end in the truncation marker: {counts:?}"
        );
        drop(_guards);
        drop(guard);
    }

    #[test]
    fn leaf_handle_matches_frame_publication() {
        let _serial = INSTALL_LOCK.lock().unwrap();
        let prof = SampleProf::with_rate(1000);
        let guard = prof.install();
        assert!(leaf_handle().is_none() || attached());
        let _root = frame(frames::ENGINE_RUN);
        let leaf = leaf_handle().expect("installed profiler must hand out a leaf handle");
        leaf.push(frames::ENGINE_RANK);
        leaf.pop();
        prof.inner.stop_sampler();
        drop(guard);
        assert!(prof.publishes() >= 2);
    }

    #[test]
    fn top_stacks_rank_by_count() {
        let prof = SampleProf::new();
        {
            let mut folded = prof.inner.folded.lock().unwrap();
            folded.insert(vec![frames::ENGINE_RUN], 5);
            folded.insert(vec![frames::MODE_CELL, frames::MEASURE_RUN], 9);
        }
        let top = prof.top_stacks(10);
        assert_eq!(top[0], ("experiment.mode_cell;measure.run".to_owned(), 9));
        assert_eq!(top[1], ("engine.run".to_owned(), 5));
        assert_eq!(prof.top_stacks(1).len(), 1);
    }
}
