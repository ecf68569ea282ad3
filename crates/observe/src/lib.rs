//! # nrlt-observe — the virtual-time resource observatory
//!
//! The simulation pipeline already observes *itself* (wall-clock spans
//! and counters in `nrlt-telemetry`) and its *results* (the severity
//! explorer in `nrlt-report`). This crate observes the **simulated
//! machine**: which resource was contended when, where every injected
//! noise draw landed, and which chain of events produced each wait
//! state the analysis finds.
//!
//! Everything recorded here is derived from **virtual time** and the
//! deterministic event order of the engine — never from host clocks —
//! so a bundle is byte-identical across repeats and `--jobs` widths.
//! Three record families:
//!
//! * **Counter timelines** — resource occupancy sampled at event
//!   granularity: per-NUMA-domain bandwidth occupancy and per-socket L3
//!   pressure (from the duration model), network link utilisation and
//!   match-queue/wildcard-queue depths (from the MPI simulation), loop
//!   team occupancy (from the OpenMP schedule simulation), and
//!   per-location progress watermarks at phase boundaries.
//! * **Noise attribution** — every [`NoiseModel`] draw that perturbed
//!   the run (CPU jitter, OS detours, memory jitter, network jitter)
//!   tagged with (core, instance, magnitude), so the total injected
//!   perturbation decomposes per rank and per phase.
//! * **Wait-state provenance** — for each wait state the analysis
//!   finds, the delaying location, call paths, the chain of events
//!   leading to it, and how much injected noise falls into the causal
//!   window.
//!
//! The contract mirrors `Option<&Telemetry>`: every recording entry
//! point takes `Option<&RunObserve>`, and a `None` run performs **zero
//! observability work** (asserted by test — results are bit-identical
//! with the layer compiled in but disabled).
//!
//! [`NoiseModel`]: https://docs.rs/nrlt-sim

#![warn(missing_docs)]

pub mod export;
pub mod query;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cap on raw timeline samples kept per run after compaction. Exceeding
/// samples are thinned with a deterministic stride; the per-(series,
/// phase) aggregates remain exact either way.
pub const SAMPLE_CAP: usize = 128;
/// Cap on raw noise draws kept per run after compaction (aggregates
/// stay exact).
pub const DRAW_CAP: usize = 128;
/// Cap on wait-state provenance records kept per (run, metric), keeping
/// the most severe.
pub const WAIT_CAP: usize = 24;
/// In-flight cap on raw samples/draws held during a run. When a stream
/// exceeds it, every second retained element is dropped and the keep
/// stride doubles — deterministic geometric decimation, so memory stays
/// bounded on runs with tens of millions of events. Aggregates are
/// never decimated; window joins against decimated draws are lower
/// bounds (the `dropped` record says when that happened).
pub const LIVE_CAP: usize = 65_536;

/// Which noise channel a draw came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NoiseKind {
    /// Multiplicative jitter on the CPU part of a kernel.
    CpuJitter,
    /// OS detours stealing the core during a kernel.
    OsDetour,
    /// Multiplicative jitter (and persistent bias) on the memory part.
    MemJitter,
    /// Multiplicative jitter on a message or collective transfer.
    NetJitter,
}

impl NoiseKind {
    /// Stable name used in exports and queries.
    pub fn name(self) -> &'static str {
        match self {
            NoiseKind::CpuJitter => "cpu_jitter",
            NoiseKind::OsDetour => "os_detour",
            NoiseKind::MemJitter => "mem_jitter",
            NoiseKind::NetJitter => "net_jitter",
        }
    }

    /// Parse a name produced by [`NoiseKind::name`].
    pub(crate) fn from_name(s: &str) -> Option<NoiseKind> {
        match s {
            "cpu_jitter" => Some(NoiseKind::CpuJitter),
            "os_detour" => Some(NoiseKind::OsDetour),
            "mem_jitter" => Some(NoiseKind::MemJitter),
            "net_jitter" => Some(NoiseKind::NetJitter),
            _ => None,
        }
    }

    /// All kinds, in declaration order (= dense aggregate-table order).
    const ALL: [NoiseKind; 4] =
        [NoiseKind::CpuJitter, NoiseKind::OsDetour, NoiseKind::MemJitter, NoiseKind::NetJitter];

    fn index(self) -> usize {
        match self {
            NoiseKind::CpuJitter => 0,
            NoiseKind::OsDetour => 1,
            NoiseKind::MemJitter => 2,
            NoiseKind::NetJitter => 3,
        }
    }
}

/// One counter-timeline sample. The two time axes are recorded
/// side by side: `t_ns` is virtual (simulated) time, `seq` is the
/// engine's deterministic event sequence number — the "logical" axis,
/// meaningful even for quantities (queue depths) that exist in engine
/// order rather than at a simulated instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Counter series name, e.g. `numa0.bw_threads`.
    pub series: String,
    /// Program phase open at the owning rank when sampled (empty
    /// outside any phase).
    pub phase: String,
    /// Virtual time of the sample, nanoseconds.
    pub t_ns: u64,
    /// Engine event sequence number at the sample.
    pub seq: u64,
    /// Counter value (integer; permille for fractional quantities).
    pub value: i64,
}

/// Exact aggregate of one (series, phase) cell over a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesAgg {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of sample values.
    pub sum: i64,
    /// Maximum sample value.
    pub max: i64,
}

/// One noise draw that perturbed the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoiseDraw {
    /// Channel the draw came from.
    pub kind: NoiseKind,
    /// Rank whose timing it perturbed.
    pub rank: u32,
    /// Core the perturbed location was pinned to (or the source rank's
    /// master core for network draws).
    pub core: u64,
    /// Noise-stream instance key (kernel sequence number or message
    /// sequence).
    pub instance: u64,
    /// Program phase open at the rank when drawn.
    pub phase: String,
    /// Virtual time the perturbed interval started, nanoseconds.
    pub t_ns: u64,
    /// Signed time injected, nanoseconds (negative draws sped the
    /// interval up).
    pub magnitude_ns: i64,
}

/// Exact aggregate of the noise injected into one (kind, rank, phase)
/// cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NoiseAgg {
    /// Number of draws.
    pub count: u64,
    /// Sum of signed magnitudes, nanoseconds.
    pub total_ns: i64,
    /// Sum of positive magnitudes only (injected delay), nanoseconds.
    pub delay_ns: u64,
}

/// One link of a wait state's causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// What the link is (`comp`, `mpi`, `barrier`, `wait`).
    pub what: String,
    /// Call path of the link.
    pub path: String,
    /// Location index executing the link.
    pub loc: usize,
    /// Link start (trace clock units).
    pub start: u64,
    /// Link end (trace clock units).
    pub end: u64,
}

/// Provenance of one wait state found by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitProvenance {
    /// Wait metric name (e.g. `delay_mpi_latesender`).
    pub metric: String,
    /// Waiting location index.
    pub waiter_loc: usize,
    /// Call path of the waiting instance.
    pub waiter_path: String,
    /// Enter timestamp of the waiting instance (trace clock units).
    pub waiter_enter: u64,
    /// Wait severity (trace clock units).
    pub severity: u64,
    /// Location whose late arrival released the waiter.
    pub delayer_loc: usize,
    /// Call path of the delaying instance.
    pub delayer_path: String,
    /// Enter timestamp of the delaying instance.
    pub delayer_enter: u64,
    /// Injected noise (positive magnitudes) on the delayer's rank
    /// inside the causal window, nanoseconds. Zero for logical-clock
    /// traces, whose timestamps are not commensurable with noise times.
    pub noise_ns: u64,
    /// The chain of events that produced the wait, oldest first.
    pub chain: Vec<ChainLink>,
}

/// Exact aggregate of the wait states in one (metric, call path) cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitAgg {
    /// Number of wait instances.
    pub count: u64,
    /// Sum of severities (trace clock units).
    pub severity: u64,
    /// Sum of injected noise in the causal windows, nanoseconds.
    pub noise_ns: u64,
}

/// Everything observed during one run (one pipeline cell), in its
/// exported form: series and phase names materialised as strings. Built
/// by `RunObserve::finish` from the interned raw records the hot path
/// accumulates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunData {
    /// Raw counter samples in record order (thinned at compaction).
    pub samples: Vec<Sample>,
    /// Exact per-(series, phase) aggregates.
    pub series_aggs: BTreeMap<(String, String), SeriesAgg>,
    /// Raw noise draws in record order (thinned at compaction).
    pub draws: Vec<NoiseDraw>,
    /// Exact per-(kind, rank, phase) noise aggregates.
    pub noise_aggs: BTreeMap<(NoiseKind, u32, String), NoiseAgg>,
    /// Wait-state provenance records (capped per metric at compaction).
    pub waits: Vec<WaitProvenance>,
    /// Exact per-(metric, waiter call path) wait totals.
    pub wait_aggs: BTreeMap<(String, String), WaitAgg>,
    /// Raw samples dropped by decimation (aggregates still count them).
    pub dropped_samples: u64,
    /// Raw draws dropped by decimation (aggregates still count them).
    pub dropped_draws: u64,
    /// Provenance records dropped by the per-metric cap.
    pub dropped_waits: u64,
}

/// Interned counter-series name, obtained from [`RunObserve::series`].
/// Recording by id skips the per-sample name formatting and string
/// hashing that dominated the observed hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

/// Interned program-phase name, obtained from [`RunObserve::phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseId(u32);

/// First-seen-order string interner. Ids are only meaningful within one
/// run; the exported [`RunData`] carries the materialised names, so the
/// bundle is independent of interning order.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// [`Sample`] with interned names — `Copy`, no per-record allocation.
#[derive(Debug, Clone, Copy)]
struct RawSample {
    series: u32,
    phase: u32,
    t_ns: u64,
    seq: u64,
    value: i64,
}

/// [`NoiseDraw`] with an interned phase — `Copy`.
#[derive(Debug, Clone, Copy)]
struct RawDraw {
    kind: NoiseKind,
    rank: u32,
    core: u64,
    instance: u64,
    phase: u32,
    t_ns: u64,
    magnitude_ns: i64,
}

/// Live recording state: interned raw streams plus integer-keyed
/// aggregates. The hot path never allocates once the name tables are
/// warm; [`RawRun::materialize`] turns it into the exported [`RunData`].
#[derive(Debug, Default)]
struct RawRun {
    series_names: Interner,
    phase_names: Interner,
    samples: Vec<RawSample>,
    /// Dense `[series][phase]` aggregate table, grown on demand. Ids
    /// are dense by construction, so the per-sample update is two
    /// indexed loads — no map lookup. `count == 0` marks untouched
    /// cells (every recorded sample increments its cell's count).
    series_aggs: Vec<Vec<SeriesAgg>>,
    draws: Vec<RawDraw>,
    /// Window-join index over `draws`, built on the first query and
    /// dropped by every recorded draw.
    noise_index: Option<Vec<RankNoise>>,
    /// Dense `[rank][phase][kind]` noise aggregates, grown on demand.
    noise_aggs: Vec<Vec<[NoiseAgg; 4]>>,
    waits: Vec<WaitProvenance>,
    wait_aggs: BTreeMap<(String, String), WaitAgg>,
    dropped_samples: u64,
    dropped_draws: u64,
    dropped_waits: u64,
    // Live-decimation state: total records seen and the current
    // geometric keep stride per raw stream.
    sample_pos: u64,
    sample_stride: u64,
    draw_pos: u64,
    draw_stride: u64,
}

impl RawRun {
    fn record_sample(&mut self, sample: RawSample) {
        let (s, p) = (sample.series as usize, sample.phase as usize);
        if self.series_aggs.len() <= s {
            self.series_aggs.resize_with(s + 1, Vec::new);
        }
        let row = &mut self.series_aggs[s];
        if row.len() <= p {
            row.resize_with(p + 1, SeriesAgg::default);
        }
        let agg = &mut row[p];
        agg.count += 1;
        agg.sum += sample.value;
        agg.max = agg.max.max(sample.value);
        let stride = self.sample_stride.max(1);
        if self.sample_pos.is_multiple_of(stride) {
            self.samples.push(sample);
            if self.samples.len() >= LIVE_CAP {
                self.dropped_samples += halve(&mut self.samples);
                self.sample_stride = stride * 2;
            }
        } else {
            self.dropped_samples += 1;
        }
        self.sample_pos += 1;
    }

    fn record_draw(&mut self, draw: RawDraw) {
        let (r, p) = (draw.rank as usize, draw.phase as usize);
        if self.noise_aggs.len() <= r {
            self.noise_aggs.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.noise_aggs[r];
        if row.len() <= p {
            row.resize_with(p + 1, Default::default);
        }
        let agg = &mut row[p][draw.kind.index()];
        agg.count += 1;
        agg.total_ns += draw.magnitude_ns;
        agg.delay_ns += draw.magnitude_ns.max(0) as u64;
        self.noise_index = None;
        let stride = self.draw_stride.max(1);
        if self.draw_pos.is_multiple_of(stride) {
            self.draws.push(draw);
            if self.draws.len() >= LIVE_CAP {
                self.dropped_draws += halve(&mut self.draws);
                self.draw_stride = stride * 2;
            }
        } else {
            self.dropped_draws += 1;
        }
        self.draw_pos += 1;
    }

    /// Sum of positive magnitudes of the retained draws on `rank` with
    /// `t_ns` inside `[from_ns, to_ns]`: two binary searches and two
    /// prefix sums over the rank's index.
    fn noise_in_window(&mut self, rank: u32, from_ns: u64, to_ns: u64) -> u64 {
        let draws = &self.draws;
        let index = self.noise_index.get_or_insert_with(|| RankNoise::build(draws));
        let Some(r) = index.get(rank as usize) else {
            return 0;
        };
        let lo = r.t_ns.partition_point(|&t| t < from_ns);
        let hi = r.t_ns.partition_point(|&t| t <= to_ns);
        // An empty window (`from_ns > to_ns`) has `hi <= lo`.
        r.delay_ns[hi].saturating_sub(r.delay_ns[lo])
    }

    /// Keep the top [`WAIT_CAP`] waits per metric by (severity desc,
    /// record order). Selecting a top-K under a total order is stable
    /// under incremental application, so calling this both live (at
    /// [`LIVE_CAP`]) and at compaction yields the same final set as one
    /// call at the end.
    fn cap_waits(&mut self) {
        let mut by_metric: BTreeMap<String, u64> = BTreeMap::new();
        let mut order: Vec<usize> = (0..self.waits.len()).collect();
        order.sort_by(|&a, &b| {
            let (wa, wb) = (&self.waits[a], &self.waits[b]);
            (&wa.metric, std::cmp::Reverse(wa.severity), a).cmp(&(
                &wb.metric,
                std::cmp::Reverse(wb.severity),
                b,
            ))
        });
        let mut keep = vec![false; self.waits.len()];
        for &i in &order {
            let seen = by_metric.entry(self.waits[i].metric.clone()).or_insert(0);
            if (*seen as usize) < WAIT_CAP {
                keep[i] = true;
                *seen += 1;
            } else {
                self.dropped_waits += 1;
            }
        }
        let mut i = 0;
        self.waits.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Thin raw samples/draws to the caps with a deterministic stride,
    /// keep only the most severe waits per metric, and materialise the
    /// interned records into the exported string-keyed form. Aggregates
    /// are untouched (exact over the full run); the rebuilt maps sort by
    /// name, so the result is byte-identical to what direct string-keyed
    /// recording produced.
    fn materialize(mut self) -> RunData {
        self.dropped_samples += thin(&mut self.samples, SAMPLE_CAP);
        self.dropped_draws += thin(&mut self.draws, DRAW_CAP);
        self.cap_waits();
        let series = &self.series_names;
        let phases = &self.phase_names;
        RunData {
            samples: self
                .samples
                .iter()
                .map(|s| Sample {
                    series: series.name(s.series).to_owned(),
                    phase: phases.name(s.phase).to_owned(),
                    t_ns: s.t_ns,
                    seq: s.seq,
                    value: s.value,
                })
                .collect(),
            series_aggs: self
                .series_aggs
                .iter()
                .enumerate()
                .flat_map(|(s, row)| {
                    row.iter().enumerate().filter(|(_, agg)| agg.count > 0).map(move |(p, agg)| {
                        (
                            (series.name(s as u32).to_owned(), phases.name(p as u32).to_owned()),
                            agg.clone(),
                        )
                    })
                })
                .collect(),
            draws: self
                .draws
                .iter()
                .map(|d| NoiseDraw {
                    kind: d.kind,
                    rank: d.rank,
                    core: d.core,
                    instance: d.instance,
                    phase: phases.name(d.phase).to_owned(),
                    t_ns: d.t_ns,
                    magnitude_ns: d.magnitude_ns,
                })
                .collect(),
            noise_aggs: self
                .noise_aggs
                .iter()
                .enumerate()
                .flat_map(|(r, row)| {
                    row.iter().enumerate().flat_map(move |(p, cell)| {
                        NoiseKind::ALL.iter().filter(|k| cell[k.index()].count > 0).map(move |&k| {
                            (
                                (k, r as u32, phases.name(p as u32).to_owned()),
                                cell[k.index()].clone(),
                            )
                        })
                    })
                })
                .collect(),
            waits: self.waits,
            wait_aggs: self.wait_aggs,
            dropped_samples: self.dropped_samples,
            dropped_draws: self.dropped_draws,
            dropped_waits: self.dropped_waits,
        }
    }
}

/// One rank's retained draws for window joins: start times sorted
/// ascending, and `delay_ns[i]`, the summed positive magnitude of the
/// first `i` of them (one entry longer than `t_ns`).
#[derive(Debug)]
struct RankNoise {
    t_ns: Vec<u64>,
    delay_ns: Vec<u64>,
}

impl RankNoise {
    /// Index `draws` per rank, dense by rank id.
    fn build(draws: &[RawDraw]) -> Vec<RankNoise> {
        let mut by_rank: Vec<Vec<(u64, u64)>> = Vec::new();
        for d in draws {
            let r = d.rank as usize;
            if by_rank.len() <= r {
                by_rank.resize_with(r + 1, Vec::new);
            }
            by_rank[r].push((d.t_ns, d.magnitude_ns.max(0) as u64));
        }
        by_rank
            .into_iter()
            .map(|mut rows| {
                rows.sort_unstable_by_key(|&(t, _)| t);
                let mut delay_ns = Vec::with_capacity(rows.len() + 1);
                let mut sum = 0u64;
                delay_ns.push(sum);
                for &(_, ns) in &rows {
                    sum += ns;
                    delay_ns.push(sum);
                }
                RankNoise { t_ns: rows.into_iter().map(|(t, _)| t).collect(), delay_ns }
            })
            .collect()
    }
}

/// Drop every second element (keeping index 0, 2, 4, …); returns how
/// many were dropped.
fn halve<T>(v: &mut Vec<T>) -> u64 {
    let before = v.len();
    let mut i = 0;
    v.retain(|_| {
        let k = i % 2 == 0;
        i += 1;
        k
    });
    (before - v.len()) as u64
}

/// Keep at most `cap` elements with a deterministic stride; returns how
/// many were dropped.
fn thin<T>(v: &mut Vec<T>, cap: usize) -> u64 {
    if v.len() <= cap {
        return 0;
    }
    let stride = v.len().div_ceil(cap);
    let before = v.len();
    let mut i = 0;
    v.retain(|_| {
        let k = i % stride == 0;
        i += 1;
        k
    });
    (before - v.len()) as u64
}

/// Per-run recorder handed into one pipeline cell (engine run +
/// analysis). Single-threaded by construction — each cell runs on one
/// worker — hence the interior [`RefCell`].
#[derive(Debug)]
pub struct RunObserve {
    name: String,
    data: RefCell<RawRun>,
}

impl RunObserve {
    /// Start recording a run named `name`. Names key the bundle's
    /// deterministic merge: derive them from stable identities
    /// (instance, mode, repetition), never from timing.
    pub fn new(name: impl Into<String>) -> RunObserve {
        RunObserve { name: name.into(), data: RefCell::new(RawRun::default()) }
    }

    /// Intern a counter-series name. Recorders on hot paths intern each
    /// name once up front and record by id; interning the same name
    /// again returns the same id.
    pub fn series(&self, name: &str) -> SeriesId {
        SeriesId(self.data.borrow_mut().series_names.intern(name))
    }

    /// Intern a program-phase name (the empty string is the valid
    /// "outside any phase" name).
    pub fn phase(&self, name: &str) -> PhaseId {
        PhaseId(self.data.borrow_mut().phase_names.intern(name))
    }

    /// Record one counter sample by interned ids — the allocation-free
    /// hot path.
    pub fn sample_id(&self, series: SeriesId, phase: PhaseId, t_ns: u64, seq: u64, value: i64) {
        self.data.borrow_mut().record_sample(RawSample {
            series: series.0,
            phase: phase.0,
            t_ns,
            seq,
            value,
        });
    }

    /// Record a batch of counter samples sharing one (phase, time, seq)
    /// point — one borrow of the recording state for the whole batch.
    /// Used by per-event multi-series recorders (e.g. queue depths).
    pub fn sample_batch_id(&self, phase: PhaseId, t_ns: u64, seq: u64, values: &[(SeriesId, i64)]) {
        let mut data = self.data.borrow_mut();
        for &(series, value) in values {
            data.record_sample(RawSample { series: series.0, phase: phase.0, t_ns, seq, value });
        }
    }

    /// Record one noise draw by interned phase id — the allocation-free
    /// hot path.
    #[allow(clippy::too_many_arguments)]
    pub fn noise_id(
        &self,
        kind: NoiseKind,
        rank: u32,
        core: u64,
        instance: u64,
        phase: PhaseId,
        t_ns: u64,
        magnitude_ns: i64,
    ) {
        self.data.borrow_mut().record_draw(RawDraw {
            kind,
            rank,
            core,
            instance,
            phase: phase.0,
            t_ns,
            magnitude_ns,
        });
    }

    /// Record the provenance of one wait state.
    pub fn wait(&self, prov: WaitProvenance) {
        let mut data = self.data.borrow_mut();
        let agg =
            data.wait_aggs.entry((prov.metric.clone(), prov.waiter_path.clone())).or_default();
        agg.count += 1;
        agg.severity += prov.severity;
        agg.noise_ns += prov.noise_ns;
        data.waits.push(prov);
        if data.waits.len() >= LIVE_CAP {
            data.cap_waits();
        }
    }

    /// Sum of positive noise magnitudes injected into `rank` within
    /// `[from_ns, to_ns]` — the analysis joins wait windows against
    /// this. O(log draws) per call once the index is built; a draw
    /// recorded after a query rebuilds it on the next one.
    pub fn noise_in_window(&self, rank: u32, from_ns: u64, to_ns: u64) -> u64 {
        self.data.borrow_mut().noise_in_window(rank, from_ns, to_ns)
    }

    /// Finish recording: compact and materialise the run's data.
    pub(crate) fn finish(self) -> (String, RunData) {
        (self.name, self.data.into_inner().materialize())
    }
}

/// The observatory: a shared, thread-safe sink collecting finished
/// runs. Mirrors `Telemetry`: [`Observe::call_count`] proves that a
/// pipeline run without a handle performs zero observability work.
#[derive(Debug, Default)]
pub struct Observe {
    calls: AtomicU64,
    runs: Mutex<BTreeMap<String, RunData>>,
}

impl Observe {
    /// Fresh, empty observatory.
    pub fn new() -> Observe {
        Observe::default()
    }

    /// Attach a finished run. Runs are keyed by name, so the resulting
    /// bundle is independent of attach order (worker scheduling).
    pub fn attach(&self, run: RunObserve) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let (name, data) = run.finish();
        let prev = self.runs.lock().expect("observe lock").insert(name, data);
        debug_assert!(prev.is_none(), "duplicate observe run name");
    }

    /// How many runs have been attached. The zero-work proof: a
    /// pipeline run with `None` handles leaves this at 0 **and** leaves
    /// no [`RunObserve`] allocated anywhere.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Snapshot of all attached runs, sorted by name.
    pub(crate) fn runs(&self) -> BTreeMap<String, RunData> {
        self.runs.lock().expect("observe lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_are_exact_after_thinning() {
        let run = RunObserve::new("r");
        for i in 0..1000u64 {
            run.sample_id(run.series("numa0.bw_threads"), run.phase("cg"), i, i, (i % 7) as i64);
        }
        let (_, data) = run.finish();
        assert!(data.samples.len() <= SAMPLE_CAP);
        assert_eq!(data.dropped_samples, 1000 - data.samples.len() as u64);
        let agg = &data.series_aggs[&("numa0.bw_threads".to_owned(), "cg".to_owned())];
        assert_eq!(agg.count, 1000);
        assert_eq!(agg.sum, (0..1000).map(|i| (i % 7) as i64).sum::<i64>());
        assert_eq!(agg.max, 6);
    }

    #[test]
    fn noise_window_join() {
        let run = RunObserve::new("r");
        run.noise_id(NoiseKind::OsDetour, 1, 3, 0, run.phase(""), 100, 50);
        run.noise_id(NoiseKind::MemJitter, 1, 3, 1, run.phase(""), 200, -20);
        run.noise_id(NoiseKind::OsDetour, 2, 4, 0, run.phase(""), 150, 99);
        assert_eq!(run.noise_in_window(1, 0, 300), 50); // negative draw ignored
        assert_eq!(run.noise_in_window(1, 150, 300), 0);
        assert_eq!(run.noise_in_window(2, 0, 300), 99);
    }

    impl RawRun {
        /// The linear filter the window-join index replaced: the oracle
        /// the index must match exactly.
        fn noise_in_window_scan(&self, rank: u32, from_ns: u64, to_ns: u64) -> u64 {
            self.draws
                .iter()
                .filter(|d| d.rank == rank && d.t_ns >= from_ns && d.t_ns <= to_ns)
                .map(|d| d.magnitude_ns.max(0) as u64)
                .sum()
        }
    }

    /// splitmix64: a dependency-free stream for the randomised tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_draw(run: &RunObserve, state: &mut u64, ranks: u64, span: u64) {
        // Rank 2 never draws: its queries must come back 0.
        let rank = match next(state) % ranks {
            2 => 0,
            r => r,
        } as u32;
        let t = next(state) % span;
        let magnitude = (next(state) % 2_000) as i64 - 500;
        run.noise_id(NoiseKind::CpuJitter, rank, 0, 0, run.phase(""), t, magnitude);
    }

    /// Compare index and scan over random windows, windows whose bounds
    /// sit exactly on draw times, reversed windows, and ranks without
    /// draws (2, and one past the largest rank).
    fn assert_index_matches_scan(
        run: &RunObserve,
        state: &mut u64,
        ranks: u32,
        span: u64,
        queries: usize,
    ) {
        let times: Vec<u64> = run.data.borrow().draws.iter().map(|d| d.t_ns).collect();
        for _ in 0..queries {
            let rank = (next(state) % (ranks as u64 + 1)) as u32;
            let (a, b) = if times.is_empty() || next(state).is_multiple_of(2) {
                (next(state) % (span + 10), next(state) % (span + 10))
            } else {
                let pick = |s: &mut u64| times[(next(s) % times.len() as u64) as usize];
                (pick(state), pick(state))
            };
            for (from, to) in [(a.min(b), a.max(b)), (a.max(b), a.min(b)), (a, a), (0, u64::MAX)] {
                let want = run.data.borrow().noise_in_window_scan(rank, from, to);
                assert_eq!(run.noise_in_window(rank, from, to), want, "rank {rank} [{from}, {to}]");
            }
        }
    }

    #[test]
    fn noise_index_matches_the_linear_scan() {
        let mut state = 7;
        let run = RunObserve::new("r");
        assert_index_matches_scan(&run, &mut state, 4, 1_000, 400);
        for _ in 0..3_000 {
            random_draw(&run, &mut state, 4, 1_000);
        }
        assert_index_matches_scan(&run, &mut state, 4, 1_000, 400);
        assert_eq!(run.noise_in_window(2, 0, u64::MAX), 0);
        assert_eq!(run.noise_in_window(9, 0, u64::MAX), 0);
    }

    #[test]
    fn a_draw_recorded_after_a_query_is_joined() {
        let run = RunObserve::new("r");
        run.noise_id(NoiseKind::OsDetour, 1, 3, 0, run.phase(""), 100, 50);
        assert_eq!(run.noise_in_window(1, 0, 300), 50);
        run.noise_id(NoiseKind::OsDetour, 1, 3, 1, run.phase(""), 300, 7);
        run.noise_id(NoiseKind::NetJitter, 3, 3, 2, run.phase(""), 300, 11);
        assert_eq!(run.noise_in_window(1, 0, 300), 57);
        assert_eq!(run.noise_in_window(1, 300, 300), 7);
        assert_eq!(run.noise_in_window(3, 0, 300), 11);
        let mut state = 11;
        for _ in 0..50 {
            random_draw(&run, &mut state, 5, 400);
            assert_index_matches_scan(&run, &mut state, 5, 400, 20);
        }
    }

    #[test]
    fn noise_index_follows_live_decimation() {
        let mut state = 13;
        let run = RunObserve::new("r");
        let mut halvings = 0;
        for i in 0..(LIVE_CAP * 2 + 100) {
            let before = run.data.borrow().draws.len();
            random_draw(&run, &mut state, 6, 1 << 20);
            if run.data.borrow().draws.len() < before {
                halvings += 1;
                assert_index_matches_scan(&run, &mut state, 6, 1 << 20, 25);
            } else if i.is_multiple_of(16_384) {
                assert_index_matches_scan(&run, &mut state, 6, 1 << 20, 5);
            }
        }
        assert_eq!(halvings, 2);
        assert_index_matches_scan(&run, &mut state, 6, 1 << 20, 25);
    }

    #[test]
    fn wait_cap_keeps_most_severe() {
        let run = RunObserve::new("r");
        for i in 0..(WAIT_CAP as u64 + 10) {
            run.wait(WaitProvenance {
                metric: "delay_mpi_latesender".into(),
                waiter_loc: 0,
                waiter_path: "p".into(),
                waiter_enter: i,
                severity: i,
                delayer_loc: 1,
                delayer_path: "q".into(),
                delayer_enter: 0,
                noise_ns: 0,
                chain: Vec::new(),
            });
        }
        let (_, data) = run.finish();
        assert_eq!(data.waits.len(), WAIT_CAP);
        assert_eq!(data.dropped_waits, 10);
        // Most severe survived.
        assert!(data.waits.iter().any(|w| w.severity == WAIT_CAP as u64 + 9));
        assert!(!data.waits.iter().any(|w| w.severity < 10));
    }

    #[test]
    fn live_decimation_bounds_memory_and_keeps_aggregates_exact() {
        let run = RunObserve::new("r");
        let total = LIVE_CAP as u64 * 3;
        for i in 0..total {
            run.sample_id(run.series("numa0.bw_threads"), run.phase("cg"), i, i, 1);
            run.noise_id(NoiseKind::CpuJitter, 0, 0, i, run.phase("cg"), i, 2);
            // The live buffers never reach LIVE_CAP.
            assert!(run.data.borrow().samples.len() < LIVE_CAP);
            assert!(run.data.borrow().draws.len() < LIVE_CAP);
        }
        let (_, data) = run.finish();
        assert!(data.samples.len() <= SAMPLE_CAP);
        assert_eq!(data.dropped_samples + data.samples.len() as u64, total);
        assert_eq!(data.dropped_draws + data.draws.len() as u64, total);
        let agg = &data.series_aggs[&("numa0.bw_threads".to_owned(), "cg".to_owned())];
        assert_eq!(agg.count, total);
        assert_eq!(agg.sum, total as i64);
        let nagg = &data.noise_aggs[&(NoiseKind::CpuJitter, 0, "cg".to_owned())];
        assert_eq!(nagg.count, total);
        assert_eq!(nagg.delay_ns, total * 2);
    }

    #[test]
    fn interned_recording_matches_string_recording() {
        // Interning per call and interning once up front must record
        // the same run: the same name always maps to the same id.
        let by_name = RunObserve::new("r");
        let by_id = RunObserve::new("r");
        let series = by_id.series("numa0.bw_threads");
        let wire = by_id.series("net.network.wire_ns");
        let cg = by_id.phase("cg");
        let none = by_id.phase("");
        for i in 0..500u64 {
            by_name.sample_id(
                by_name.series("numa0.bw_threads"),
                by_name.phase("cg"),
                i,
                i,
                i as i64,
            );
            by_id.sample_id(series, cg, i, i, i as i64);
            by_name.sample_id(by_name.series("net.network.wire_ns"), by_name.phase(""), i, i, 7);
            by_id.sample_id(wire, none, i, i, 7);
            by_name.noise_id(NoiseKind::OsDetour, 1, 2, i, by_name.phase("cg"), i, 9);
            by_id.noise_id(NoiseKind::OsDetour, 1, 2, i, cg, i, 9);
        }
        assert_eq!(by_name.noise_in_window(1, 0, 499), by_id.noise_in_window(1, 0, 499));
        assert_eq!(by_name.finish(), by_id.finish());
    }

    #[test]
    fn attach_is_order_independent() {
        let a = Observe::new();
        let b = Observe::new();
        let mk = |name: &str| {
            let r = RunObserve::new(name);
            r.sample_id(r.series("s"), r.phase(""), 1, 1, 1);
            r
        };
        a.attach(mk("x"));
        a.attach(mk("y"));
        b.attach(mk("y"));
        b.attach(mk("x"));
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.call_count(), 2);
    }
}
