//! The tracing observer: Score-P woven into the replay engine.
//!
//! Maintains one clock per location — the physical virtual-time clock or
//! a Lamport counter driven by the selected effort model — translates
//! engine events into trace records, applies filter rules, and charges
//! the measurement's own costs back into the execution.

use crate::filter::FilterRules;
use crate::modes::ClockMode;
use crate::params::{EffortParams, HwCounterSource, OverheadParams};
use nrlt_exec::{EventInfo, ExecConfig, Observer, RuntimeKind, WorkItem};
use nrlt_prog::{Cost, Program, RegionKind, RegionTable};
use nrlt_sim::{
    jitter_factor, Location, Placement, RngFactory, StreamKind, VirtualDuration, VirtualTime,
};
use nrlt_telemetry::Telemetry;
use nrlt_trace::{
    ClockKind, Definitions, Event, EventKind, LocationDef, RegionDef, RegionRef, RegionRole,
    SegmentWriter, Trace, TraceData, NO_ROOT,
};
use std::sync::Arc;

/// Events per stream between simulated buffer flushes (Score-P flushes
/// its per-thread trace buffer when it fills; we count, not charge).
const FLUSH_EVERY: usize = 4096;

/// Resident bytes per buffered event that the `--trace-budget`
/// accounting charges: one 32-byte [`Event`] row plus one byte of
/// slack. It stays 33 so that chunk sizes, the resident column of the
/// `scale` table and `trace.resident_mib` keep their values.
pub const BYTES_PER_EVENT: u64 = 33;

// A growing `Event` must not make the budget undercount.
const _: () = assert!(std::mem::size_of::<Event>() as u64 <= BYTES_PER_EVENT);

/// Smallest per-location chunk the spill path will use. Below this the
/// per-chunk bookkeeping dominates and nothing is saved.
const MIN_CHUNK_EVENTS: usize = 64;
/// Largest per-location chunk (1M events ≈ 33 MiB resident).
const MAX_CHUNK_EVENTS: usize = 1 << 20;

/// Out-of-core trace spilling, attached to a [`TracingObserver`] when a
/// `--trace-budget` caps resident event storage.
struct SpillState {
    writer: SegmentWriter,
    /// Events per location at which a stream spills one chunk.
    chunk_events: usize,
    /// Synchronous mid-run spills (recording stalled on the write).
    stalls: u64,
}

/// What the spill path did during one run, for the engineprof gauges
/// and telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillSummary {
    /// Chunks (segments) written.
    pub chunks: u64,
    /// Encoded bytes written.
    pub bytes: u64,
    /// Events spilled.
    pub events: u64,
    /// Synchronous mid-run spills (final flush excluded).
    pub stalls: u64,
    /// The per-location chunk capacity derived from the budget.
    pub chunk_events: usize,
}

/// Per-location chunk capacity for a resident-byte `budget` across
/// `n_locations` streams, clamped to sane bounds.
pub(crate) fn chunk_events_for_budget(budget: u64, n_locations: usize) -> usize {
    let per_loc = budget / BYTES_PER_EVENT / (n_locations.max(1) as u64);
    (per_loc as usize).clamp(MIN_CHUNK_EVENTS, MAX_CHUNK_EVENTS)
}

/// Full measurement configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureConfig {
    /// Timer mode.
    pub mode: ClockMode,
    /// Region filter rules.
    pub filter: FilterRules,
    /// Physical cost parameters (defaults from the mode).
    pub overhead: OverheadParams,
    /// Effort-model constants.
    pub effort: EffortParams,
}

impl MeasureConfig {
    /// Default configuration for a mode, without filters.
    pub fn new(mode: ClockMode) -> Self {
        MeasureConfig {
            mode,
            filter: FilterRules::none(),
            overhead: OverheadParams::for_mode(mode),
            effort: EffortParams::default(),
        }
    }

    /// Attach filter rules.
    pub fn with_filter(mut self, filter: FilterRules) -> Self {
        self.filter = filter;
        self
    }
}

/// Per-location measurement state.
#[derive(Debug, Clone, Default)]
struct LocState {
    /// Lamport counter (logical modes).
    counter: u64,
    /// Work cost accumulated since the last recorded event.
    pending_cost: Cost,
    /// OpenMP loop iterations accumulated since the last event.
    pending_iters: u64,
    /// Virtual instructions retired in runtime code / spinning since the
    /// last event (lt_hwctr).
    pending_rt_instr: u64,
    /// OpenMP runtime calls since the last event (lt_bb / lt_stmt X/Y
    /// constants).
    pending_omp_calls: u64,
    /// Hardware-counter read sequence (jitter stream key).
    read_seq: u64,
    /// Cached spin-loop rate factor (lt_hwctr). The jitter stream is
    /// keyed `(HwCounter, idx, u64::MAX)` — constant per location — so
    /// the first draw's value is reused for every later spin.
    spin_factor: Option<f64>,
    /// Pre-drawn hwctr jitter factors for the next read sequences.
    hw_batch: HwJitterBatch,
}

/// Four hardware-counter jitter factors drawn ahead of time.
///
/// Each factor still comes from its own keyed stream
/// `(HwCounter, location, read_seq)` — the batch only *warms* four
/// streams in one interleaved ChaCha pass, so the values are
/// bit-identical to four scalar draws and the stream positions never
/// depend on batching.
#[derive(Debug, Clone)]
struct HwJitterBatch {
    factors: [f64; 4],
    /// Next factor to hand out; 4 means "empty, refill".
    next: usize,
}

impl Default for HwJitterBatch {
    fn default() -> HwJitterBatch {
        HwJitterBatch { factors: [1.0; 4], next: 4 }
    }
}

/// Pre-converted overhead charges for the per-event combinations the
/// observer emits. Every [`TracingObserver::charge`] call site passes a
/// fixed combination of the (constant) [`OverheadParams`] fields, so the
/// `f64 → VirtualDuration` conversions and nanosecond attributions are
/// computed once per run instead of once per event. Burst charges scale
/// with the call count and stay on the dynamic path.
#[derive(Debug, Clone, Copy)]
struct ChargeTable {
    /// `sec(record_event)` and its attribution.
    record: VirtualDuration,
    record_ns: u64,
    /// `sec(filter_check)` and its attribution.
    filter: VirtualDuration,
    filter_ns: u64,
    /// `sec(record_event + piggyback_message)` (summed *before* the
    /// conversion, exactly like the dynamic path) and the piggyback
    /// attribution.
    record_piggy: VirtualDuration,
    piggy_ns: u64,
}

impl ChargeTable {
    fn new(o: &OverheadParams) -> ChargeTable {
        let sec = VirtualDuration::from_secs_f64;
        ChargeTable {
            record: sec(o.record_event),
            record_ns: sec(o.record_event).nanos(),
            filter: sec(o.filter_check),
            filter_ns: sec(o.filter_check).nanos(),
            record_piggy: sec(o.record_event + o.piggyback_message),
            piggy_ns: sec(o.piggyback_message).nanos(),
        }
    }
}

/// Trace definition tables and sizing shared across the runs of one
/// sweep.
///
/// The region and location tables depend only on the program and the
/// machine layout — not on the seed, clock mode, or repetition — so an
/// experiment builds one `SharedDefs` per configuration and every
/// repetition's observer clones the `Arc`s instead of rebuilding (and
/// reallocating) the tables. The event estimate pre-sizes each
/// per-location stream so recording does not grow buffers from empty.
#[derive(Debug, Clone)]
pub struct SharedDefs {
    regions: Arc<Vec<RegionDef>>,
    locations: Arc<Vec<LocationDef>>,
    threads_per_rank: u32,
    events_per_stream: usize,
}

impl SharedDefs {
    /// Build the tables for `regions` under `exec_config`, pre-sizing
    /// streams from `program`'s event estimate.
    pub(crate) fn new(
        program: &Program,
        regions: &RegionTable,
        exec_config: &ExecConfig,
    ) -> SharedDefs {
        SharedDefs::tables(regions, exec_config, program.events_per_location_estimate())
    }

    fn tables(
        regions: &RegionTable,
        exec_config: &ExecConfig,
        events_per_stream: usize,
    ) -> SharedDefs {
        let placement = Placement::new(exec_config.machine.clone(), exec_config.layout.clone());
        let layout = &exec_config.layout;
        let locations: Vec<LocationDef> = layout
            .iter_locations()
            .map(|loc| LocationDef {
                rank: loc.rank,
                thread: loc.thread,
                core: placement.core_of(loc).0,
            })
            .collect();
        let region_defs: Vec<RegionDef> = regions
            .iter()
            .map(|(_, r)| RegionDef { name: r.name.clone(), role: role_of(r.kind) })
            .collect();
        SharedDefs {
            regions: Arc::new(region_defs),
            locations: Arc::new(locations),
            threads_per_rank: layout.threads_per_rank,
            events_per_stream,
        }
    }

    /// Number of locations.
    pub(crate) fn n_locations(&self) -> usize {
        self.locations.len()
    }
}

/// The Score-P analog: implements [`Observer`] and produces a [`Trace`].
pub struct TracingObserver<'a> {
    config: MeasureConfig,
    regions: &'a RegionTable,
    /// region id -> filtered?
    filtered: Vec<bool>,
    /// Pre-converted per-event overhead charges.
    charges: ChargeTable,
    states: Vec<LocState>,
    streams: Vec<nrlt_trace::EventStream>,
    defs: Definitions,
    rng: RngFactory,
    /// Instructions per second of one core (for hwctr conversions).
    instr_rate: f64,
    /// Self-telemetry sink; counters below accumulate locally and are
    /// flushed once in [`TracingObserver::into_trace`] so the per-event
    /// path stays free of locks — and free of any work when `None`.
    tel: Option<&'a Telemetry>,
    spill: Option<SpillState>,
    n_recorded: u64,
    n_filtered: u64,
    n_flushes: u64,
    n_hw_refills: u64,
    ovh_record_ns: u64,
    ovh_filter_ns: u64,
    ovh_piggyback_ns: u64,
}

impl<'a> TracingObserver<'a> {
    /// An observer without telemetry over freshly built, unsized
    /// definition tables: the unit tests' shorthand.
    #[cfg(test)]
    fn new(config: MeasureConfig, regions: &'a RegionTable, exec_config: &ExecConfig) -> Self {
        let shared = SharedDefs::tables(regions, exec_config, 0);
        Self::with_shared(config, regions, &shared, exec_config, None)
    }

    /// Build an observer for `regions` (from `nrlt_exec::prepare_regions`)
    /// under `exec_config`, over pre-built [`SharedDefs`]: the definition
    /// tables are `Arc`-shared (no per-run rebuild) and the event streams
    /// start at the program's estimated capacity.
    ///
    /// `tel` is an optional self-telemetry sink: it counts recorded vs
    /// filtered events, simulated buffer flushes, and the overhead
    /// charged back into the run per category.
    pub(crate) fn with_shared(
        config: MeasureConfig,
        regions: &'a RegionTable,
        shared: &SharedDefs,
        exec_config: &ExecConfig,
        tel: Option<&'a Telemetry>,
    ) -> Self {
        let filtered = regions.iter().map(|(_, r)| config.filter.is_filtered(&r.name)).collect();
        let clock = match config.mode {
            ClockMode::Tsc => ClockKind::Physical,
            m => ClockKind::Logical { model: m.name().to_owned() },
        };
        let n = shared.n_locations();
        let spec = &exec_config.machine.spec;
        TracingObserver {
            instr_rate: spec.core_freq_hz * spec.ipc,
            charges: ChargeTable::new(&config.overhead),
            config,
            regions,
            filtered,
            states: vec![LocState::default(); n],
            streams: Trace::presized_streams(n, shared.events_per_stream),
            defs: Definitions {
                regions: shared.regions.clone(),
                locations: shared.locations.clone(),
                threads_per_rank: shared.threads_per_rank,
                clock,
            },
            rng: RngFactory::new(exec_config.seed),
            tel,
            spill: None,
            n_recorded: 0,
            n_filtered: 0,
            n_flushes: 0,
            n_hw_refills: 0,
            ovh_record_ns: 0,
            ovh_filter_ns: 0,
            ovh_piggyback_ns: 0,
        }
    }

    /// Cap resident event storage at roughly `budget` bytes: streams
    /// spill fixed-capacity event chunks to a temp segment file once
    /// they fill, and [`TracingObserver::into_trace_data`] returns a
    /// [`TraceData::Spilled`]. Must be called before any event is
    /// recorded (the pre-sized streams are replaced by chunk-sized
    /// ones).
    pub(crate) fn enable_spill(&mut self, budget: u64) {
        debug_assert!(self.streams.iter().all(nrlt_trace::EventStream::is_empty));
        let n = self.streams.len();
        let chunk_events = chunk_events_for_budget(budget, n);
        let path = nrlt_trace::temp_segment_path("spill");
        let writer = SegmentWriter::create(&path).expect("create trace spill segment");
        // The estimate-sized reservations would defeat the budget;
        // restart from one chunk per location.
        self.streams = Trace::presized_streams(n, chunk_events);
        self.spill = Some(SpillState { writer, chunk_events, stalls: 0 });
    }

    /// Consume the observer, yielding the recorded trace — resident or
    /// spilled depending on [`TracingObserver::enable_spill`] — plus a
    /// summary of what the spill path did (all zeros on the resident
    /// path).
    pub(crate) fn into_trace_data(mut self) -> (TraceData, SpillSummary) {
        let Some(mut spill) = self.spill.take() else {
            return (TraceData::Resident(self.into_trace()), SpillSummary::default());
        };
        // Final flush: everything still resident goes to the file so the
        // cursor order (chunks per location, in spill order) is the full
        // event order.
        {
            let _frame = nrlt_telemetry::sample::frame(nrlt_telemetry::sample::frames::TRACE_SPILL);
            for (idx, stream) in self.streams.iter_mut().enumerate() {
                spill.writer.spill(idx as u32, stream).expect("trace spill write");
            }
        }
        let stats = spill.writer.stats();
        let summary = SpillSummary {
            chunks: stats.chunks,
            bytes: stats.bytes,
            events: stats.events,
            stalls: spill.stalls,
            chunk_events: spill.chunk_events,
        };
        let n_locations = self.streams.len();
        let _frame = nrlt_telemetry::sample::frame(nrlt_telemetry::sample::frames::TRACE_BUILD);
        if let Some(t) = self.tel {
            self.flush_counters(t);
            t.add("measure.spill_chunks", summary.chunks);
            t.add("measure.spill_bytes", summary.bytes);
            t.add("measure.spill_stalls", summary.stalls);
        }
        let trace =
            spill.writer.finish(self.defs, n_locations).expect("finish trace spill segment");
        (TraceData::Spilled(trace), summary)
    }

    /// Flush the locally accumulated counters to the telemetry sink.
    fn flush_counters(&self, t: &Telemetry) {
        t.add("measure.events_recorded", self.n_recorded);
        t.add("measure.events_filtered", self.n_filtered);
        t.add("measure.buffer_flushes", self.n_flushes);
        t.add("measure.hwctr_batch_refills", self.n_hw_refills);
        t.add("measure.overhead.record_ns", self.ovh_record_ns);
        t.add("measure.overhead.filter_ns", self.ovh_filter_ns);
        t.add("measure.overhead.piggyback_ns", self.ovh_piggyback_ns);
    }

    /// Consume the observer, yielding the recorded resident trace.
    fn into_trace(self) -> Trace {
        debug_assert!(self.spill.is_none(), "spilled runs use into_trace_data");
        let _frame = nrlt_telemetry::sample::frame(nrlt_telemetry::sample::frames::TRACE_BUILD);
        if let Some(t) = self.tel {
            self.flush_counters(t);
            for s in &self.streams {
                t.observe("measure.stream_events", s.len() as u64);
            }
        }
        Trace { defs: self.defs, streams: self.streams }
    }

    fn loc_index(&self, loc: Location) -> usize {
        (loc.rank * self.defs.threads_per_rank + loc.thread) as usize
    }

    /// Drain the pending effort into an increment (without the +1 per
    /// event), applying hwctr jitter.
    fn drain_pending(&mut self, idx: usize) -> u64 {
        let st = &mut self.states[idx];
        let raw = match self.config.mode {
            ClockMode::Tsc | ClockMode::Lt1 => 0,
            ClockMode::LtLoop => st.pending_iters,
            ClockMode::LtBb => {
                st.pending_cost.basic_blocks
                    + self.config.effort.omp_call_basic_blocks * st.pending_omp_calls
            }
            ClockMode::LtStmt => {
                st.pending_cost.statements
                    + self.config.effort.omp_call_statements * st.pending_omp_calls
            }
            ClockMode::LtHwctr => {
                let base = match self.config.effort.hwctr_source {
                    HwCounterSource::Instructions => {
                        st.pending_cost.instructions + st.pending_rt_instr
                    }
                    // A traffic counter does not tick while spinning or
                    // inside (compute-only) runtime code.
                    HwCounterSource::MemoryTraffic => st.pending_cost.mem_bytes,
                    HwCounterSource::Combined { bytes_weight } => {
                        st.pending_cost.instructions
                            + st.pending_rt_instr
                            + (st.pending_cost.mem_bytes as f64 * bytes_weight) as u64
                    }
                };
                if base > 0 && self.config.effort.hwctr_sigma > 0.0 {
                    let seq = st.read_seq;
                    st.read_seq += 1;
                    if st.hw_batch.next == 4 {
                        let kind = StreamKind::HwCounter;
                        let e = idx as u64;
                        let mut streams = self.rng.stream4([
                            (kind, e, seq),
                            (kind, e, seq + 1),
                            (kind, e, seq + 2),
                            (kind, e, seq + 3),
                        ]);
                        for (k, s) in streams.iter_mut().enumerate() {
                            st.hw_batch.factors[k] =
                                jitter_factor(s, self.config.effort.hwctr_sigma);
                        }
                        st.hw_batch.next = 0;
                        self.n_hw_refills += 1;
                    }
                    let f = st.hw_batch.factors[st.hw_batch.next];
                    st.hw_batch.next += 1;
                    (base as f64 * f).round().max(0.0) as u64
                } else {
                    base
                }
            }
        };
        st.pending_cost = Cost::ZERO;
        st.pending_iters = 0;
        st.pending_rt_instr = 0;
        st.pending_omp_calls = 0;
        raw
    }

    /// Timestamp for the next event on `loc` (advances logical clocks).
    fn timestamp(&mut self, idx: usize, now: VirtualTime) -> u64 {
        match self.config.mode {
            ClockMode::Tsc => {
                // Physical timestamps still flush pending state so a later
                // switch of interpretation stays consistent.
                self.drain_pending(idx);
                now.nanos()
            }
            _ => {
                let inc = self.drain_pending(idx) + 1;
                self.states[idx].counter += inc;
                self.states[idx].counter
            }
        }
    }

    fn push(&mut self, idx: usize, time: u64, kind: EventKind) {
        self.streams[idx].push(Event { time, kind });
        if self.streams[idx].len().is_multiple_of(FLUSH_EVERY) {
            self.n_flushes += 1;
        }
        if let Some(spill) = &mut self.spill {
            if self.streams[idx].len() >= spill.chunk_events {
                // Synchronous spill: recording stalls on the write, so
                // resident storage never exceeds one chunk per location.
                spill.writer.spill(idx as u32, &mut self.streams[idx]).expect("trace spill write");
                spill.stalls += 1;
            }
        }
    }

    fn sec(v: f64) -> VirtualDuration {
        VirtualDuration::from_secs_f64(v)
    }

    /// Charge overhead back into the run, attributing it per category
    /// (plain field adds — no telemetry work happens here). Only burst
    /// events, whose charge scales with the call count, still take this
    /// dynamic path; everything else uses the pre-converted table.
    fn charge(&mut self, record: f64, filter: f64, piggyback: f64) -> VirtualDuration {
        self.ovh_record_ns += Self::sec(record).nanos();
        self.ovh_filter_ns += Self::sec(filter).nanos();
        self.ovh_piggyback_ns += Self::sec(piggyback).nanos();
        Self::sec(record + filter + piggyback)
    }

    /// Charge one filtered-event check.
    fn charge_filter(&mut self) -> VirtualDuration {
        self.ovh_filter_ns += self.charges.filter_ns;
        self.charges.filter
    }

    /// Charge one recorded event.
    fn charge_record(&mut self) -> VirtualDuration {
        self.ovh_record_ns += self.charges.record_ns;
        self.charges.record
    }

    /// Charge one recorded event plus a piggyback message.
    fn charge_record_piggy(&mut self) -> VirtualDuration {
        self.ovh_record_ns += self.charges.record_ns;
        self.ovh_piggyback_ns += self.charges.piggy_ns;
        self.charges.record_piggy
    }
}

/// Map program region kinds to trace roles.
fn role_of(kind: RegionKind) -> RegionRole {
    match kind {
        RegionKind::User => RegionRole::Function,
        RegionKind::Mpi => RegionRole::MpiApi,
        RegionKind::OmpParallel => RegionRole::OmpParallel,
        RegionKind::OmpLoop => RegionRole::OmpLoop,
        RegionKind::OmpImplicitBarrier => RegionRole::OmpImplicitBarrier,
        RegionKind::OmpBarrier => RegionRole::OmpBarrier,
        RegionKind::OmpCritical => RegionRole::OmpCritical,
        RegionKind::OmpSingle => RegionRole::OmpSingle,
        RegionKind::OmpMaster => RegionRole::OmpMaster,
        RegionKind::OmpFork => RegionRole::OmpFork,
    }
}

impl<'a> Observer for TracingObserver<'a> {
    fn counting_instructions(&self, work_cost: &Cost, loop_iters: u64) -> u64 {
        let o = &self.config.overhead;
        let per_block = o.instr_per_basic_block * work_cost.basic_blocks;
        // Counter increments are hoisted/batched inside worksharing
        // loops — but only where control flow is regular enough (few
        // basic blocks per instruction). Branchy loop bodies keep the
        // full per-block cost.
        let regular = work_cost.basic_blocks * 6 <= work_cost.instructions;
        let per_block = if loop_iters > 0 && regular {
            per_block / o.loop_hoist_divisor.max(1)
        } else {
            per_block
        };
        per_block + o.instr_per_loop_iter * loop_iters
    }

    fn on_work(&mut self, loc: Location, work: &WorkItem) -> VirtualDuration {
        let idx = self.loc_index(loc);
        let st = &mut self.states[idx];
        st.pending_cost = st.pending_cost.saturating_add(&work.cost);
        st.pending_iters += work.loop_iters;
        // The hardware counter also retires the counting code's own
        // instructions; the application-level models do not count them.
        if self.config.mode == ClockMode::LtHwctr {
            st.pending_rt_instr += work.extra_instructions;
        }
        VirtualDuration::ZERO
    }

    fn on_runtime(&mut self, loc: Location, kind: RuntimeKind, duration: VirtualDuration) {
        let idx = self.loc_index(loc);
        let st = &mut self.states[idx];
        if kind == RuntimeKind::Omp {
            st.pending_omp_calls += 1;
        }
        if self.config.mode == ClockMode::LtHwctr {
            st.pending_rt_instr += (duration.as_secs_f64()
                * self.instr_rate
                * self.config.effort.runtime_ipc_fraction)
                .round() as u64;
        }
    }

    fn on_spin(&mut self, loc: Location, duration: VirtualDuration) {
        if self.config.mode == ClockMode::LtHwctr {
            let idx = self.loc_index(loc);
            // The spin-loop instruction rate is itself noisy: it varies
            // per location and per repetition. The stream key is constant
            // per location, so the factor is drawn once and cached.
            let rate_factor = if self.config.effort.spin_rate_sigma > 0.0 {
                match self.states[idx].spin_factor {
                    Some(f) => f,
                    None => {
                        let mut rng = self.rng.stream(StreamKind::HwCounter, idx as u64, u64::MAX);
                        let f = jitter_factor(&mut rng, self.config.effort.spin_rate_sigma);
                        self.states[idx].spin_factor = Some(f);
                        f
                    }
                }
            } else {
                1.0
            };
            self.states[idx].pending_rt_instr += (duration.as_secs_f64()
                * self.instr_rate
                * self.config.effort.spin_ipc_fraction
                * rate_factor)
                .round() as u64;
        }
    }

    fn on_event(&mut self, loc: Location, now: VirtualTime, info: &EventInfo) -> VirtualDuration {
        let idx = self.loc_index(loc);
        match *info {
            EventInfo::Enter { region } => {
                if self.filtered[region.0 as usize] {
                    self.n_filtered += 1;
                    return self.charge_filter();
                }
                let ts = self.timestamp(idx, now);
                self.push(idx, ts, EventKind::Enter { region: RegionRef(region.0) });
                self.n_recorded += 1;
                self.charge_record()
            }
            EventInfo::Leave { region } => {
                if self.filtered[region.0 as usize] {
                    self.n_filtered += 1;
                    return self.charge_filter();
                }
                let ts = self.timestamp(idx, now);
                self.push(idx, ts, EventKind::Leave { region: RegionRef(region.0) });
                self.n_recorded += 1;
                self.charge_record()
            }
            EventInfo::Burst { callee, calls, phys_start } => {
                let (record_event, filter_check) =
                    (self.config.overhead.record_event, self.config.overhead.filter_check);
                if self.filtered[callee.0 as usize] {
                    // Runtime filtering still checks every call.
                    self.n_filtered += 2 * calls;
                    return self.charge(0.0, filter_check * (2 * calls) as f64, 0.0);
                }
                let (start, end) = match self.config.mode {
                    ClockMode::Tsc => {
                        self.drain_pending(idx);
                        (phys_start.nanos(), now.nanos())
                    }
                    _ => {
                        // The kernel's accumulated work happened inside the
                        // calls; the calls themselves contribute two events
                        // each.
                        let inside = self.drain_pending(idx);
                        let total = inside + 2 * calls.max(1);
                        let st = &mut self.states[idx];
                        let start = st.counter + 1;
                        st.counter += total;
                        (start, st.counter)
                    }
                };
                self.push(
                    idx,
                    end,
                    EventKind::CallBurst { region: RegionRef(callee.0), count: calls, start },
                );
                self.n_recorded += 1;
                self.charge(record_event * (2 * calls) as f64, 0.0, 0.0)
            }
            EventInfo::SendPost { peer, tag, bytes } => {
                let ts = self.timestamp(idx, now);
                self.push(idx, ts, EventKind::SendPost { peer, tag, bytes });
                self.n_recorded += 1;
                self.charge_record_piggy()
            }
            EventInfo::RecvPost { peer, tag, bytes } => {
                let ts = self.timestamp(idx, now);
                self.push(idx, ts, EventKind::RecvPost { peer, tag, bytes });
                self.n_recorded += 1;
                self.charge_record()
            }
            EventInfo::RecvComplete { peer, tag, bytes } => {
                let ts = self.timestamp(idx, now);
                self.push(idx, ts, EventKind::RecvComplete { peer, tag, bytes });
                self.n_recorded += 1;
                self.charge_record_piggy()
            }
            EventInfo::CollectiveEnd { op, bytes, root } => {
                let ts = self.timestamp(idx, now);
                self.push(
                    idx,
                    ts,
                    EventKind::CollectiveEnd {
                        op,
                        bytes,
                        root: if root == NO_ROOT { NO_ROOT } else { root },
                    },
                );
                self.n_recorded += 1;
                self.charge_record_piggy()
            }
        }
    }

    fn piggyback(&mut self, loc: Location) -> u64 {
        if self.config.mode == ClockMode::Tsc {
            return 0;
        }
        let idx = self.loc_index(loc);
        // Apply the pending effort first so the attached value reflects
        // the clock at the send event (Lamport step 2a).
        let inc = self.drain_pending(idx);
        self.states[idx].counter += inc;
        self.states[idx].counter
    }

    fn sync_logical(&mut self, loc: Location, incoming: u64) {
        if self.config.mode == ClockMode::Tsc {
            return;
        }
        let idx = self.loc_index(loc);
        let st = &mut self.states[idx];
        st.counter = st.counter.max(incoming + 1);
    }

    fn cache_footprint_per_location(&self) -> u64 {
        self.config.overhead.buffer_footprint
    }

    fn desync(&self) -> f64 {
        self.config.overhead.desync
    }
}

// `regions` is only read; keeping the reference documents that the table
// must outlive the observer and stay in sync with the engine's ids.
impl std::fmt::Debug for TracingObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracingObserver")
            .field("mode", &self.config.mode)
            .field("locations", &self.states.len())
            .field("regions", &self.regions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrlt_prog::RegionId;
    use nrlt_sim::JobLayout;

    fn setup(mode: ClockMode) -> (RegionTable, ExecConfig) {
        let mut t = RegionTable::new();
        t.intern("main", RegionKind::User);
        t.intern("tiny", RegionKind::User);
        let _ = mode;
        (t, ExecConfig::jureca(1, JobLayout::block(1, 1), 1))
    }

    #[test]
    fn lt1_increments_once_per_event() {
        let (t, cfg) = setup(ClockMode::Lt1);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Lt1), &t, &cfg);
        let loc = Location::master(0);
        let r = RegionId(0);
        obs.on_event(loc, VirtualTime(100), &EventInfo::Enter { region: r });
        obs.on_event(loc, VirtualTime(200), &EventInfo::Leave { region: r });
        let trace = obs.into_trace();
        assert_eq!(trace.streams[0].time(0), 1);
        assert_eq!(trace.streams[0].time(1), 2);
    }

    #[test]
    fn tsc_records_physical_time() {
        let (t, cfg) = setup(ClockMode::Tsc);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Tsc), &t, &cfg);
        let loc = Location::master(0);
        obs.on_event(loc, VirtualTime(12345), &EventInfo::Enter { region: RegionId(0) });
        let trace = obs.into_trace();
        assert_eq!(trace.streams[0].time(0), 12345);
        assert_eq!(trace.defs.clock, ClockKind::Physical);
    }

    #[test]
    fn lt_loop_counts_iterations() {
        let (t, cfg) = setup(ClockMode::LtLoop);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::LtLoop), &t, &cfg);
        let loc = Location::master(0);
        obs.on_work(
            loc,
            &WorkItem {
                cost: Cost::scalar(1000),
                loop_iters: 50,
                duration: VirtualDuration(10),
                extra_instructions: 0,
            },
        );
        obs.on_event(loc, VirtualTime(1), &EventInfo::Enter { region: RegionId(0) });
        let trace = obs.into_trace();
        assert_eq!(trace.streams[0].time(0), 51); // 50 iters + 1
    }

    #[test]
    fn lt_bb_counts_blocks_and_omp_calls() {
        let (t, cfg) = setup(ClockMode::LtBb);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::LtBb), &t, &cfg);
        let loc = Location::master(0);
        let cost = Cost::ZERO.with_basic_blocks(40);
        obs.on_work(
            loc,
            &WorkItem { cost, loop_iters: 0, duration: VirtualDuration(10), extra_instructions: 0 },
        );
        obs.on_runtime(loc, RuntimeKind::Omp, VirtualDuration(100));
        obs.on_event(loc, VirtualTime(1), &EventInfo::Enter { region: RegionId(0) });
        let trace = obs.into_trace();
        assert_eq!(trace.streams[0].time(0), 40 + 100 + 1); // bb + X + event
    }

    #[test]
    fn lt_stmt_uses_y_constant() {
        let (t, cfg) = setup(ClockMode::LtStmt);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::LtStmt), &t, &cfg);
        let loc = Location::master(0);
        obs.on_runtime(loc, RuntimeKind::Omp, VirtualDuration(100));
        obs.on_event(loc, VirtualTime(1), &EventInfo::Enter { region: RegionId(0) });
        let trace = obs.into_trace();
        assert_eq!(trace.streams[0].time(0), 4300 + 1);
    }

    #[test]
    fn lt_hwctr_counts_spin_instructions() {
        let (t, cfg) = setup(ClockMode::LtHwctr);
        let mut mc = MeasureConfig::new(ClockMode::LtHwctr);
        mc.effort.hwctr_sigma = 0.0; // deterministic for the assertion
        mc.effort.spin_rate_sigma = 0.0;
        let mut obs = TracingObserver::new(mc, &t, &cfg);
        let loc = Location::master(0);
        obs.on_spin(loc, VirtualDuration::from_micros(10));
        obs.on_event(loc, VirtualTime(1), &EventInfo::Enter { region: RegionId(0) });
        let trace = obs.into_trace();
        // 10us at 2.25GHz × 2 IPC × 0.6 = 27000 instructions.
        assert_eq!(trace.streams[0].time(0), 27_000 + 1);
    }

    #[test]
    fn filtered_regions_produce_no_events_but_cost_a_check() {
        let (t, cfg) = setup(ClockMode::Tsc);
        let mc = MeasureConfig::new(ClockMode::Tsc).with_filter(FilterRules::from_rules(["tiny"]));
        let mut obs = TracingObserver::new(mc, &t, &cfg);
        let loc = Location::master(0);
        let ovh = obs.on_event(loc, VirtualTime(1), &EventInfo::Enter { region: RegionId(1) });
        assert!(ovh > VirtualDuration::ZERO);
        assert!(ovh < VirtualDuration(10));
        let trace = obs.into_trace();
        assert!(trace.streams[0].is_empty());
    }

    #[test]
    fn burst_spans_counter_range() {
        let (t, cfg) = setup(ClockMode::Lt1);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Lt1), &t, &cfg);
        let loc = Location::master(0);
        obs.on_event(loc, VirtualTime(0), &EventInfo::Enter { region: RegionId(0) });
        obs.on_event(
            loc,
            VirtualTime(100),
            &EventInfo::Burst { callee: RegionId(1), calls: 10, phys_start: VirtualTime(1) },
        );
        let trace = obs.into_trace();
        match trace.streams[0].kind(1) {
            EventKind::CallBurst { count, start, .. } => {
                assert_eq!(count, 10);
                assert_eq!(start, 2); // after the Enter at 1
                assert_eq!(trace.streams[0].time(1), 1 + 20); // 10 calls × 2 events
            }
            ref other => panic!("expected burst, got {other:?}"),
        }
    }

    #[test]
    fn piggyback_and_sync_respect_lamport() {
        let (t, cfg) = setup(ClockMode::Lt1);
        let cfg2 = ExecConfig::jureca(1, JobLayout::block(2, 1), 1);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Lt1), &t, &cfg2);
        let _ = cfg;
        let a = Location::master(0);
        let b = Location::master(1);
        // a does some events, then sends.
        obs.on_event(a, VirtualTime(0), &EventInfo::Enter { region: RegionId(0) });
        obs.on_event(a, VirtualTime(1), &EventInfo::Leave { region: RegionId(0) });
        let pig = obs.piggyback(a);
        let send_ts = {
            obs.on_event(a, VirtualTime(2), &EventInfo::SendPost { peer: 1, tag: 0, bytes: 1 });
            obs.into_trace().streams[0].last().unwrap().time
        };
        assert!(send_ts > pig);
        // Receiver merges then records: its completion must be after the send.
        let (t2, _) = setup(ClockMode::Lt1);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Lt1), &t2, &cfg2);
        obs.sync_logical(b, pig);
        obs.on_event(b, VirtualTime(9), &EventInfo::RecvComplete { peer: 0, tag: 0, bytes: 1 });
        let recv_ts = obs.into_trace().streams[1].last().unwrap().time;
        assert!(recv_ts > send_ts, "clock condition: {recv_ts} > {send_ts}");
    }

    #[test]
    fn spilled_run_yields_identical_events() {
        let run = |budget: Option<u64>| -> Vec<(u64, Event)> {
            let (t, cfg) = setup(ClockMode::Lt1);
            let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Lt1), &t, &cfg);
            if let Some(b) = budget {
                obs.enable_spill(b);
            }
            let loc = Location::master(0);
            for i in 0..500u64 {
                let r = RegionId((i % 2) as u32);
                obs.on_event(loc, VirtualTime(2 * i), &EventInfo::Enter { region: r });
                obs.on_event(loc, VirtualTime(2 * i + 1), &EventInfo::Leave { region: r });
            }
            let (data, summary) = obs.into_trace_data();
            if budget.is_some() {
                assert!(summary.chunks > 1, "tiny budget must spill multiple chunks");
                assert!(summary.stalls > 0);
                assert_eq!(summary.events, 1000);
            } else {
                assert_eq!(summary, SpillSummary::default());
            }
            assert_eq!(data.total_events(), 1000);
            let view = data.view();
            view.events(0).map(|e| (e.time, e)).collect()
        };
        let resident = run(None);
        let spilled = run(Some(1)); // clamps to the minimum chunk size
        assert_eq!(resident, spilled);
    }

    #[test]
    fn tsc_piggyback_is_zero() {
        let (t, cfg) = setup(ClockMode::Tsc);
        let mut obs = TracingObserver::new(MeasureConfig::new(ClockMode::Tsc), &t, &cfg);
        assert_eq!(obs.piggyback(Location::master(0)), 0);
        obs.sync_logical(Location::master(0), 999); // no-op
        let trace = obs.into_trace();
        assert!(trace.streams[0].is_empty());
    }
}
