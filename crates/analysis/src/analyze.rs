//! The analysis driver: trace in, profile out.
//!
//! Mirrors Scalasca's pipeline: replay every location, match
//! communication, detect wait-state patterns, account idle threads, and
//! attribute delay costs. The delay phase — the expensive part — runs on
//! scoped worker threads (`std::thread::scope`) with deterministic
//! chunked merging, so repeated analyses of the same trace produce
//! bit-identical profiles.
//!
//! When handed a [`Telemetry`] handle, the driver records one span per
//! phase, per-pattern hit counters, replay throughput, and per-worker
//! timing of the delay phase. With `None`, no telemetry work happens.

use crate::delay::{delay_for_wait_into, DelayContribution, DelayScratch};
use crate::idle::master_serial_chunks;
use crate::patterns::{
    gather_barriers, gather_collectives, late_receiver_severity, late_sender_severity,
    match_messages, wait_nxn_severity, MatchedMessage,
};
use crate::replay::{replay_view, CausalWindow, LocalReplay, SegClass};
use nrlt_observe::{ChainLink, RunObserve, WaitProvenance, WaitRow};
use nrlt_profile::{CallPathId, Metric, Profile};
use nrlt_telemetry::sample::frames;
use nrlt_telemetry::{Phase, Telemetry};
use nrlt_trace::{ClockKind, Trace, TraceView};
use std::collections::BTreeMap;
use std::time::Instant;

/// Longest causal chain kept per wait-state provenance record — the
/// most recent events on the delayer before the wait (older links are
/// summarised by the window itself).
const CHAIN_CAP: usize = 8;

/// Analysis options.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Run the delay-cost phase (root-cause attribution).
    pub delay_costs: bool,
    /// Worker threads for the delay phase (0 = available parallelism).
    pub workers: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { delay_costs: true, workers: 0 }
    }
}

/// Analyze a resident trace with default options and no probes.
pub fn analyze(trace: &Trace) -> Profile {
    analyze_view(&TraceView::Resident(trace), &AnalysisConfig::default(), None, None)
}

/// One wait state scheduled for delay attribution and provenance.
struct WaitInstance {
    metric: Metric,
    /// The waiter's causal window, ending at its enter.
    waiter: CausalWindow,
    waiter_path: CallPathId,
    /// The delayer's causal window, ending at its enter.
    delayer: CausalWindow,
    delayer_path: CallPathId,
    severity: u64,
}

/// Analyze a [`TraceView`] — the streaming entry point. A spilled view
/// is replayed through bounded per-location segment cursors, so the
/// analysis holds O(locations × chunk) of raw events at a time; the
/// per-location replay products (segments, instances, sync lists) stay
/// resident, exactly as on the in-memory path, which keeps the result
/// byte-identical between the two.
///
/// Both probes are optional and do zero work when `None`:
///
/// * `tel` records one span per phase, per-pattern hit counters, replay
///   throughput, and per-worker timing of the delay phase;
/// * `obs` records exact per-(metric, call path) totals of the wait
///   states found, with — for physical-clock traces — how much injected
///   noise falls into their causal windows, and the provenance of the
///   most severe ones (waiter/delayer call paths and the chain of events
///   on the delayer that produced the wait).
pub fn analyze_view(
    view: &TraceView<'_>,
    config: &AnalysisConfig,
    tel: Option<&Telemetry>,
    obs: Option<&RunObserve>,
) -> Profile {
    let mut phase = Phase::new(tel, "analysis", "analyze.replay", frames::ANALYZE_REPLAY);
    let (profile, locals, waits) = find_waits(view, config, tel, &mut phase);
    if let Some(o) = obs {
        let defs = view.defs();
        let physical = defs.clock == ClockKind::Physical;
        let tpr = defs.threads_per_rank as usize;
        record_wait_provenance(o, physical, &profile, &locals, &waits, tpr);
    }
    profile
}

/// Every pass of [`analyze_view`] but the provenance: the profile, and
/// the replay products and wait states the provenance pass reads.
/// `phase` is the analysis span, already open on the replay.
fn find_waits(
    view: &TraceView<'_>,
    config: &AnalysisConfig,
    tel: Option<&Telemetry>,
    phase: &mut Phase<'_>,
) -> (Profile, Vec<LocalReplay>, Vec<WaitInstance>) {
    let defs = view.defs();
    let replay_start = tel.map(|_| Instant::now());
    let (tree, locals) = replay_view(view);
    if let (Some(t), Some(start)) = (tel, replay_start) {
        // Replay throughput: events per wall millisecond of the replay.
        let replay_ns = start.elapsed().as_nanos() as u64;
        t.add("analysis.replay.events", view.total_events() as u64);
        if let Some(rate) =
            (view.total_events() as u64).saturating_mul(1_000_000).checked_div(replay_ns)
        {
            t.set("analysis.replay.events_per_ms", rate);
        }
    }
    let tpr = defs.threads_per_rank;
    let n_ranks = defs.n_ranks();
    let mut profile = Profile::new(
        defs.clock.name().to_owned(),
        defs.regions.clone(),
        tree,
        defs.locations.clone(),
    );
    let mut waits: Vec<WaitInstance> = Vec::new();

    // --- computation, management, visits --------------------------------
    // Millions of segments funnel into a handful of (metric, path, loc)
    // cells; accumulate densely and flush each cell with one add.
    let n_paths = profile.call_tree.len();
    let n_locs = locals.len();
    {
        let mut acc = DenseAdds::new(
            vec![Metric::Comp, Metric::OmpManagement, Metric::Visits],
            n_paths,
            n_locs,
        );
        for (loc, r) in locals.iter().enumerate() {
            for s in &r.segments {
                let lane = match s.class {
                    SegClass::Comp => 0,
                    SegClass::Management => 1,
                };
                acc.add(lane, s.path, loc, s.dur() as f64);
            }
            for &(path, count) in &r.visits {
                acc.add(2, path, loc, count as f64);
            }
        }
        acc.flush(&mut profile);
    }

    // --- point-to-point patterns -----------------------------------------
    phase.next("analyze.p2p", frames::ANALYZE_P2P);
    let messages = match_messages(&locals, tpr);
    if let Some(t) = tel {
        t.add("analysis.messages_matched", messages.len() as u64);
    }
    // Late sender: group messages by completing instance. Ordered maps:
    // nothing on a result path may depend on hash iteration order.
    let mut by_recv_instance: BTreeMap<(usize, usize), Vec<&MatchedMessage>> = BTreeMap::new();
    // Late receiver: group by sending instance.
    let mut by_send_instance: BTreeMap<(usize, usize), Vec<&MatchedMessage>> = BTreeMap::new();
    for m in &messages {
        by_recv_instance.entry((m.recv_loc, m.recv_instance)).or_default().push(m);
        by_send_instance.entry((m.send_loc, m.send_instance)).or_default().push(m);
    }

    let (mut late_senders, mut late_receivers) = (0, 0);
    for (loc, r) in locals.iter().enumerate() {
        for (idx, mi) in r.mpi_instances.iter().enumerate() {
            if mi.collective.is_some() {
                continue; // handled below
            }
            let dur = mi.dur();
            let mut classified = 0u64;
            if let Some(msgs) = by_recv_instance.get(&(loc, idx)) {
                let send_ts: Vec<u64> = msgs.iter().map(|m| m.send_enter).collect();
                let ls = late_sender_severity(mi.enter, mi.leave, &send_ts);
                if ls > 0 {
                    late_senders += 1;
                    profile.add(Metric::LateSender, mi.path, loc, ls as f64);
                    classified += ls;
                    // Delay: the latest sender is the culprit.
                    let culprit =
                        msgs.iter().max_by_key(|m| m.send_enter).expect("non-empty message group");
                    waits.push(WaitInstance {
                        metric: Metric::DelayP2p,
                        waiter: CausalWindow::before(&locals, loc, mi.enter),
                        waiter_path: mi.path,
                        delayer: CausalWindow::before(
                            &locals,
                            culprit.send_loc,
                            culprit.send_enter,
                        ),
                        delayer_path: locals[culprit.send_loc].mpi_instances[culprit.send_instance]
                            .path,
                        severity: ls,
                    });
                }
            }
            if let Some(msgs) = by_send_instance.get(&(loc, idx)) {
                let lr = msgs
                    .iter()
                    .map(|m| late_receiver_severity(mi.enter, mi.leave, m.recv_post))
                    .max()
                    .unwrap_or(0);
                // Only meaningful when the send actually blocked; tiny
                // values on eager sends are classified as plain p2p time.
                let lr = lr.min(dur - classified.min(dur));
                if lr > dur / 20 && lr > 0 {
                    late_receivers += 1;
                    profile.add(Metric::LateReceiver, mi.path, loc, lr as f64);
                    classified += lr;
                }
            }
            profile.add(Metric::MpiP2p, mi.path, loc, dur.saturating_sub(classified) as f64);
        }
    }
    add_hits(tel, "analysis.patterns.late_sender", late_senders);
    add_hits(tel, "analysis.patterns.late_receiver", late_receivers);

    // --- collectives -------------------------------------------------------
    phase.next("analyze.collectives", frames::ANALYZE_COLLECTIVES);
    let collectives = gather_collectives(&locals, tpr);
    if let Some(t) = tel {
        t.add("analysis.collectives", collectives.len() as u64);
    }
    let mut nxn_waits = 0;
    for inst in &collectives {
        let latest = inst
            .members
            .iter()
            .map(|&(loc, idx)| locals[loc].mpi_instances[idx].enter)
            .max()
            .unwrap_or(0);
        let (delayer_loc, delayer_idx) = inst
            .members
            .iter()
            .max_by_key(|&&(loc, idx)| (locals[loc].mpi_instances[idx].enter, loc))
            .copied()
            .expect("collective has members");
        let delayer_mi = &locals[delayer_loc].mpi_instances[delayer_idx];
        let delayer = CausalWindow::before(&locals, delayer_loc, delayer_mi.enter);
        let is_nxn = inst.op.is_nxn() || inst.op == nrlt_trace::CollectiveOp::Barrier;
        for &(loc, idx) in &inst.members {
            let mi = &locals[loc].mpi_instances[idx];
            let dur = mi.dur();
            if is_nxn {
                let wait = wait_nxn_severity(mi.enter, mi.leave, latest);
                if wait > 0 {
                    nxn_waits += 1;
                    profile.add(Metric::WaitNxN, mi.path, loc, wait as f64);
                    waits.push(WaitInstance {
                        metric: Metric::DelayN2n,
                        waiter: CausalWindow::before(&locals, loc, mi.enter),
                        waiter_path: mi.path,
                        delayer,
                        delayer_path: delayer_mi.path,
                        severity: wait,
                    });
                }
                profile.add(Metric::MpiCollective, mi.path, loc, (dur - wait) as f64);
            } else {
                profile.add(Metric::MpiCollective, mi.path, loc, dur as f64);
            }
        }
    }
    add_hits(tel, "analysis.patterns.wait_nxn", nxn_waits);

    // --- OpenMP barriers ----------------------------------------------------
    phase.next("analyze.omp_barriers", frames::ANALYZE_OMP);
    {
        let mut acc = DenseAdds::new(
            vec![Metric::OmpBarrierWait, Metric::OmpBarrierOverhead],
            n_paths,
            n_locs,
        );
        let mut barrier_waits = 0;
        for rank in 0..n_ranks {
            for members in gather_barriers(&locals, &profile.call_tree, rank, tpr).iter() {
                let latest = members
                    .iter()
                    .map(|&(loc, i)| locals[loc].barriers[i].enter)
                    .max()
                    .unwrap_or(0);
                let (delayer_loc, delayer_idx) = members
                    .iter()
                    .max_by_key(|&&(loc, i)| (locals[loc].barriers[i].enter, loc))
                    .copied()
                    .expect("barrier has members");
                let delayer_b = &locals[delayer_loc].barriers[delayer_idx];
                let delayer = locals[delayer_loc].barrier_window(delayer_loc, delayer_b);
                for &(loc, i) in members {
                    let b = &locals[loc].barriers[i];
                    let dur = b.leave - b.enter;
                    let wait = latest.saturating_sub(b.enter).min(dur);
                    if wait > 0 {
                        barrier_waits += 1;
                        acc.add(0, b.path, loc, wait as f64);
                        waits.push(WaitInstance {
                            metric: Metric::DelayBarrier,
                            waiter: locals[loc].barrier_window(loc, b),
                            waiter_path: b.path,
                            delayer,
                            delayer_path: delayer_b.path,
                            severity: wait,
                        });
                    }
                    acc.add(1, b.path, loc, (dur - wait) as f64);
                }
            }
        }
        add_hits(tel, "analysis.patterns.omp_barrier_wait", barrier_waits);
        acc.flush(&mut profile);
    }

    // --- idle threads ---------------------------------------------------------
    phase.next("analyze.idle_threads", frames::ANALYZE_IDLE);
    if tpr > 1 {
        let mut acc = DenseAdds::new(vec![Metric::IdleThreads], n_paths, n_locs);
        for rank in 0..n_ranks {
            let master = (rank * tpr) as usize;
            let chunks = master_serial_chunks(&locals[master]);
            for worker in 1..tpr {
                let loc = master + worker as usize;
                for c in &chunks {
                    acc.add(0, c.path, loc, c.ticks as f64);
                }
            }
        }
        acc.flush(&mut profile);
    }

    // --- delay costs -----------------------------------------------------------
    phase.next("analyze.delay_costs", frames::ANALYZE_DELAY);
    if let Some(t) = tel {
        t.add("analysis.wait_instances", waits.len() as u64);
    }
    if config.delay_costs && !waits.is_empty() {
        let contributions = compute_delays(&waits, &locals, n_paths, config.workers, tel);
        // Sole writer of the three delay metrics, so the flat ordered
        // contribution list can be pre-summed densely (see DenseAdds).
        let mut acc = DenseAdds::new(
            vec![Metric::DelayP2p, Metric::DelayN2n, Metric::DelayBarrier],
            n_paths,
            n_locs,
        );
        for (metric, (path, loc, v)) in contributions {
            let lane = match metric {
                Metric::DelayP2p => 0,
                Metric::DelayN2n => 1,
                _ => 2,
            };
            acc.add(lane, path, loc, v);
        }
        acc.flush(&mut profile);
    }
    (profile, locals, waits)
}

/// Add `n` hits of a wait-state pattern to its telemetry counter, once
/// per analysis. A pattern that never occurred leaves its counter
/// unset, as it always has.
fn add_hits(tel: Option<&Telemetry>, name: &str, n: u64) {
    if let Some(t) = tel.filter(|_| n > 0) {
        t.add(name, n);
    }
}

/// Record the run's wait states into the observatory. Every wait adds
/// to the exact per-(metric, waiter path) totals, with the injected
/// noise its delayer's causal window contains; only the waits
/// [`RunObserve::select_waits`] keeps get a provenance record: the
/// waiter/delayer call paths, the delayer's window (the one the delay
/// costs read) and the chain of events inside it. Noise joins only make
/// sense on physical traces — logical timestamps are not commensurable
/// with nanoseconds, so there `noise_ns` stays 0 (which the noise-share
/// query reports as such).
fn record_wait_provenance(
    obs: &RunObserve,
    physical: bool,
    profile: &Profile,
    locals: &[LocalReplay],
    waits: &[WaitInstance],
    tpr: usize,
) {
    let noise_ns = |w: &WaitInstance| {
        let d = w.delayer;
        if physical {
            obs.noise_in_window((d.loc / tpr.max(1)) as u32, d.from, d.to)
        } else {
            0
        }
    };
    let rows = waits.iter().map(|w| WaitRow {
        metric: w.metric.name(),
        waiter_path: w.waiter_path.0,
        severity: w.severity,
        noise_ns: noise_ns(w),
    });
    let kept = obs.select_waits(rows, |path| profile.path_string(CallPathId(path)));
    for w in kept.into_iter().map(|i| &waits[i]) {
        let d = w.delayer;
        let mut chain = delayer_chain(profile, &locals[d.loc], d);
        let waiter_path = profile.path_string(w.waiter_path);
        chain.push(ChainLink {
            what: "wait".to_owned(),
            path: waiter_path.clone(),
            loc: w.waiter.loc,
            start: w.waiter.to,
            end: w.waiter.to + w.severity,
        });
        obs.keep_wait(WaitProvenance {
            metric: w.metric.name().to_owned(),
            waiter_loc: w.waiter.loc,
            waiter_path,
            waiter_enter: w.waiter.to,
            severity: w.severity,
            delayer_loc: d.loc,
            delayer_path: profile.path_string(w.delayer_path),
            delayer_enter: d.to,
            noise_ns: noise_ns(w),
            chain,
        });
    }
}

/// The delayer's activity inside its window `[from, to)`, oldest first,
/// capped at [`CHAIN_CAP`] most recent links.
///
/// Segments, MPI instances and barriers are each time-ordered and
/// non-overlapping, so in each list the links that start before `to`
/// form a prefix and those of them that end after `from` a suffix of
/// it. Walking that suffix back from its end for at most [`CHAIN_CAP`]
/// links finds every link the cap can keep: a link preceded in its own
/// list by `CHAIN_CAP` later ones sorts below all of them. The tails are
/// concatenated in list order and stably sorted, so ties keep the order
/// a sort of all three whole lists gives them.
fn delayer_chain(profile: &Profile, delayer: &LocalReplay, window: CausalWindow) -> Vec<ChainLink> {
    let CausalWindow { loc: delayer_loc, from, to } = window;
    let mut links: Vec<(&'static str, CallPathId, u64, u64)> = Vec::with_capacity(3 * CHAIN_CAP);
    links.extend(window_tail(&delayer.segments, |s| (s.start, s.end), from, to).iter().map(|s| {
        let what = match s.class {
            SegClass::Comp => "comp",
            SegClass::Management => "mgmt",
        };
        (what, s.path, s.start, s.end)
    }));
    links.extend(
        window_tail(&delayer.mpi_instances, |m| (m.enter, m.leave), from, to)
            .iter()
            .map(|m| ("mpi", m.path, m.enter, m.leave)),
    );
    links.extend(
        window_tail(&delayer.barriers, |b| (b.enter, b.leave), from, to)
            .iter()
            .map(|b| ("barrier", b.path, b.enter, b.leave)),
    );
    links.sort_by_key(|&(_, _, start, end)| (start, end));
    let kept = &links[links.len().saturating_sub(CHAIN_CAP)..];
    kept.iter()
        .map(|&(what, path, start, end)| ChainLink {
            what: what.to_owned(),
            path: profile.path_string(path),
            loc: delayer_loc,
            start,
            end,
        })
        .collect()
}

/// The last (at most [`CHAIN_CAP`]) items of a time-ordered,
/// non-overlapping list with `start < to` and `end > from`, in list
/// order: one binary search and a bounded walk back.
fn window_tail<T>(items: &[T], span: impl Fn(&T) -> (u64, u64), from: u64, to: u64) -> &[T] {
    let end = items.partition_point(|x| span(x).0 < to);
    let mut start = end;
    while start > 0 && end - start < CHAIN_CAP && span(&items[start - 1]).1 > from {
        start -= 1;
    }
    &items[start..end]
}

/// Dense `(metric lane, call path, location)` accumulator for the
/// million-iteration analysis loops, flushed into the profile with a
/// single `Profile::add` per touched cell instead of one ordered-map
/// lookup per iteration.
///
/// Bit-identity argument: a cell accumulates its values in the same
/// order the direct adds would have applied them, starting from 0.0 —
/// exactly like a fresh profile cell — and `0.0 + x == x` for the
/// non-negative values these loops produce. Only loops that are the sole
/// writer of their metrics may batch this way.
struct DenseAdds {
    metrics: Vec<Metric>,
    n_paths: usize,
    n_locs: usize,
    vals: Vec<f64>,
    seen: Vec<bool>,
    /// Flat cell indices in first-touch order.
    touched: Vec<usize>,
}

impl DenseAdds {
    fn new(metrics: Vec<Metric>, n_paths: usize, n_locs: usize) -> DenseAdds {
        let cells = metrics.len() * n_paths * n_locs;
        DenseAdds {
            metrics,
            n_paths,
            n_locs,
            vals: vec![0.0; cells],
            seen: vec![false; cells],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, lane: usize, path: CallPathId, loc: usize, value: f64) {
        let i = (lane * self.n_paths + path.0 as usize) * self.n_locs + loc;
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(i);
        }
        self.vals[i] += value;
    }

    fn flush(&mut self, profile: &mut Profile) {
        let per_lane = self.n_paths * self.n_locs;
        for &i in &self.touched {
            let (lane, rest) = (i / per_lane, i % per_lane);
            let (path, loc) = (rest / self.n_locs, rest % self.n_locs);
            profile.add(self.metrics[lane], CallPathId(path as u32), loc, self.vals[i]);
            self.vals[i] = 0.0;
            self.seen[i] = false;
        }
        self.touched.clear();
    }
}

/// Compute delay contributions for all wait instances in parallel,
/// merging deterministically (chunked by instance index).
fn compute_delays(
    waits: &[WaitInstance],
    locals: &[LocalReplay],
    n_paths: usize,
    workers: usize,
    tel: Option<&Telemetry>,
) -> Vec<(Metric, DelayContribution)> {
    let n_workers = if workers == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(16)
    } else {
        workers
    };
    let chunk_size = waits.len().div_ceil(n_workers).max(1);
    let chunks: Vec<&[WaitInstance]> = waits.chunks(chunk_size).collect();
    if let Some(t) = tel {
        t.set("analysis.delay.workers", chunks.len() as u64);
    }
    let mut results: Vec<Vec<(Metric, DelayContribution)>> = Vec::with_capacity(chunks.len());
    // When the whole analysis already runs on a fan-out worker track,
    // derive disjoint sub-tracks so concurrent cells don't interleave.
    let base_track = nrlt_telemetry::current_track() * 16;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(worker, chunk)| {
                scope.spawn(move || {
                    // `Telemetry` is `Sync`; each worker records on its
                    // own track so the spans render side by side.
                    let _span = tel.map(|t| {
                        t.span_track(
                            format!("delay worker {worker}"),
                            "analysis",
                            base_track + worker as u32 + 1,
                        )
                    });
                    // Dense scratch reused across the chunk: no per-wait
                    // map or vector allocations.
                    let mut scratch = DelayScratch::new(n_paths, locals.len());
                    let mut tmp: Vec<DelayContribution> = Vec::new();
                    let mut out: Vec<(Metric, DelayContribution)> = Vec::new();
                    for w in chunk.iter() {
                        delay_for_wait_into(
                            locals,
                            w.waiter,
                            w.delayer,
                            w.severity,
                            &mut scratch,
                            &mut tmp,
                        );
                        out.extend(tmp.drain(..).map(|c| (w.metric, c)));
                    }
                    if let Some(t) = tel {
                        t.add("analysis.delay.instances", chunk.len() as u64);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("delay worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{gather_barriers, gather_collectives, match_messages};
    use crate::replay::{replay, BarrierRec, MpiInstance, Segment};
    use nrlt_exec::ExecConfig;
    use nrlt_measure::{
        measure, measure_prepared_spilled, prepare_measure, ClockMode, FilterRules, MeasureConfig,
    };
    use nrlt_miniapps::BenchmarkInstance;
    use nrlt_observe::export::ObserveBundle;
    use nrlt_observe::{Observe, WaitAgg, WAIT_CAP};
    use nrlt_profile::CallTree;
    use nrlt_trace::{RegionDef, RegionRef, RegionRole};
    use std::collections::BTreeSet;

    /// The full scan `delayer_chain` replaced: every link of all three
    /// lists that overlaps the window, stably sorted, the last
    /// [`CHAIN_CAP`] kept. The oracle the bounded walk must match.
    fn delayer_chain_scan(
        profile: &Profile,
        delayer: &LocalReplay,
        delayer_loc: usize,
        from: u64,
        to: u64,
    ) -> Vec<ChainLink> {
        let mut chain: Vec<ChainLink> = Vec::new();
        let mut push = |what: &str, path: CallPathId, start: u64, end: u64| {
            if end > from && start < to {
                chain.push(ChainLink {
                    what: what.to_owned(),
                    path: profile.path_string(path),
                    loc: delayer_loc,
                    start,
                    end,
                });
            }
        };
        for s in &delayer.segments {
            let what = match s.class {
                SegClass::Comp => "comp",
                SegClass::Management => "mgmt",
            };
            push(what, s.path, s.start, s.end);
        }
        for mi in &delayer.mpi_instances {
            push("mpi", mi.path, mi.enter, mi.leave);
        }
        for b in &delayer.barriers {
            push("barrier", b.path, b.enter, b.leave);
        }
        chain.sort_by_key(|l| (l.start, l.end));
        if chain.len() > CHAIN_CAP {
            chain.drain(..chain.len() - CHAIN_CAP);
        }
        chain
    }

    fn assert_chain_matches_scan(
        profile: &Profile,
        delayer: &LocalReplay,
        loc: usize,
        from: u64,
        to: u64,
    ) -> usize {
        let want = delayer_chain_scan(profile, delayer, loc, from, to);
        let window = CausalWindow { loc, from, to };
        assert_eq!(delayer_chain(profile, delayer, window), want, "loc {loc} [{from}, {to})");
        want.len()
    }

    /// The distinct causal windows `(delayer location, from, to)` of the
    /// trace's waits, chosen as `analyze_view` chooses them: the latest
    /// sender into each receiving MPI instance, the latest arrival at
    /// each collective and at each team barrier. Every instance counts,
    /// waiting or not, so this is a superset of the windows the
    /// provenance pass visits.
    fn wait_windows(
        locals: &[LocalReplay],
        tree: &CallTree,
        tpr: u32,
    ) -> BTreeSet<(usize, u64, u64)> {
        let mut windows = BTreeSet::new();
        let window = |w: CausalWindow| (w.loc, w.from, w.to);
        let mut latest_send: BTreeMap<(usize, usize), (u64, usize)> = BTreeMap::new();
        for m in match_messages(locals, tpr) {
            // The last of equally late senders, as `max_by_key` picks.
            let latest = latest_send
                .entry((m.recv_loc, m.recv_instance))
                .or_insert((m.send_enter, m.send_loc));
            if m.send_enter >= latest.0 {
                *latest = (m.send_enter, m.send_loc);
            }
        }
        windows.extend(
            latest_send.values().map(|&(to, loc)| window(CausalWindow::before(locals, loc, to))),
        );
        for inst in gather_collectives(locals, tpr) {
            let (to, loc) = inst
                .members
                .iter()
                .map(|&(loc, i)| (locals[loc].mpi_instances[i].enter, loc))
                .max()
                .expect("collective has members");
            windows.insert(window(CausalWindow::before(locals, loc, to)));
        }
        for rank in 0..locals.len() as u32 / tpr {
            for members in gather_barriers(locals, tree, rank, tpr).iter() {
                let (to, loc) = members
                    .iter()
                    .map(|&(loc, i)| (locals[loc].barriers[i].enter, loc))
                    .max()
                    .expect("barrier has members");
                windows.insert(window(CausalWindow::before_any_sync(locals, loc, to)));
            }
        }
        windows
    }

    /// Check the chain of every wait window of `instance`'s physical
    /// (`tsc`) and logical (`lt_stmt`) traces against the full scan, and
    /// every barrier window start recorded during replay against
    /// [`CausalWindow::before`].
    fn check_every_wait_window(instance: BenchmarkInstance) {
        for mode in [ClockMode::Tsc, ClockMode::LtStmt] {
            let cfg = ExecConfig::jureca(instance.nodes, instance.layout.clone(), 1000);
            let mcfg = MeasureConfig::new(mode)
                .with_filter(FilterRules::from_rules(instance.filter_rules.iter().cloned()));
            let (trace, _) = measure(&instance.program, &cfg, &mcfg);
            let (tree, locals) = replay(&trace);
            let profile = Profile::new(
                mode.to_string(),
                trace.defs.regions.clone(),
                tree,
                trace.defs.locations.clone(),
            );
            for (loc, r) in locals.iter().enumerate() {
                for b in &r.barriers {
                    let want = CausalWindow::before_any_sync(&locals, loc, b.enter);
                    let got = r.barrier_window(loc, b);
                    assert_eq!(got, want, "{} {mode} loc {loc}", instance.name);
                }
            }
            let windows = wait_windows(&locals, &profile.call_tree, trace.defs.threads_per_rank);
            let mut capped = 0;
            for &(loc, from, to) in &windows {
                if assert_chain_matches_scan(&profile, &locals[loc], loc, from, to) == CHAIN_CAP {
                    capped += 1;
                }
            }
            assert!(capped > 0, "{} {mode}: no window fills the cap", instance.name);
        }
    }

    #[test]
    fn chain_matches_the_full_scan_on_minife_1() {
        check_every_wait_window(nrlt_miniapps::minife_1());
    }

    #[test]
    fn chain_matches_the_full_scan_on_lulesh_2() {
        check_every_wait_window(nrlt_miniapps::lulesh_2());
    }

    #[test]
    fn chain_matches_the_full_scan_on_tealeaf_1() {
        check_every_wait_window(nrlt_miniapps::tealeaf_1());
    }

    /// Hand-made lists over times `0..=40`: back-to-back segments, a
    /// run of zero-length MPI instances, barriers, and three links with
    /// the same `(start, end)` key, one per list. Every window, including
    /// `from = 0`, empty ones and ones holding more than [`CHAIN_CAP`]
    /// links, must give the full scan's chain.
    #[test]
    fn chain_matches_the_full_scan_on_edge_windows() {
        let regions = vec![
            RegionDef { name: "main".into(), role: RegionRole::Function },
            RegionDef { name: "MPI_Wait".into(), role: RegionRole::MpiApi },
            RegionDef { name: "barrier".into(), role: RegionRole::OmpBarrier },
        ];
        let mut tree = CallTree::new();
        let main = tree.intern(None, RegionRef(0));
        let mpi = tree.intern(Some(main), RegionRef(1));
        let barrier = tree.intern(Some(main), RegionRef(2));
        let profile = Profile::new("tsc".into(), regions, tree, Vec::new());
        let seg = |start, end, class| Segment { path: main, class, start, end, in_parallel: false };
        let mpi_at = |enter, leave| MpiInstance { path: mpi, enter, leave, collective: None };
        let barrier_at = |enter, leave| BarrierRec { path: barrier, syncs_before: 0, enter, leave };
        let mut r = LocalReplay::default();
        for t in (0..20).step_by(2) {
            let class = if t % 4 == 0 { SegClass::Comp } else { SegClass::Management };
            r.segments.push(seg(t, t + 2, class));
        }
        r.segments.push(seg(25, 30, SegClass::Comp));
        r.segments.push(seg(30, 31, SegClass::Comp));
        r.mpi_instances.extend((20..25).map(|t| mpi_at(t, t)));
        r.mpi_instances.push(mpi_at(25, 30));
        r.mpi_instances.push(mpi_at(33, 33));
        r.mpi_instances.push(mpi_at(33, 36));
        r.barriers.extend([barrier_at(5, 5), barrier_at(25, 30), barrier_at(30, 30)]);
        r.barriers.extend([barrier_at(31, 33), barrier_at(33, 33), barrier_at(36, 40)]);
        let mut longest = 0;
        for from in 0..=41 {
            for to in 0..=41 {
                let n = assert_chain_matches_scan(&profile, &r, 3, from, to);
                longest = longest.max(n);
            }
        }
        assert_eq!(longest, CHAIN_CAP);
        // The shared key keeps list order: segment, MPI, barrier.
        let chain = delayer_chain(&profile, &r, CausalWindow { loc: 3, from: 24, to: 26 });
        let tied: Vec<&str> = chain.iter().filter(|l| l.start == 25).map(|l| &*l.what).collect();
        assert_eq!(tied, ["comp", "mpi", "barrier"]);
        assert!(delayer_chain(&profile, &r, CausalWindow { loc: 3, from: 10, to: 10 }).is_empty());
        assert!(delayer_chain(&profile, &r, CausalWindow { loc: 3, from: 12, to: 8 }).is_empty());
    }

    /// The provenance pass before the selection: a record for every
    /// wait, totals summed per record under string keys, and the
    /// [`WAIT_CAP`] most severe records per metric kept by a stable sort
    /// of them all, in record order. Returns the kept records, the
    /// totals and the number dropped.
    fn record_every_wait_then_cap(
        obs: &RunObserve,
        profile: &Profile,
        locals: &[LocalReplay],
        waits: &[WaitInstance],
        tpr: usize,
    ) -> (Vec<WaitProvenance>, BTreeMap<(String, String), WaitAgg>, u64) {
        let mut records = Vec::new();
        let mut totals: BTreeMap<(String, String), WaitAgg> = BTreeMap::new();
        for w in waits {
            let d = w.delayer;
            let noise_ns = obs.noise_in_window((d.loc / tpr) as u32, d.from, d.to);
            let mut chain = delayer_chain(profile, &locals[d.loc], d);
            let waiter_path = profile.path_string(w.waiter_path);
            chain.push(ChainLink {
                what: "wait".to_owned(),
                path: waiter_path.clone(),
                loc: w.waiter.loc,
                start: w.waiter.to,
                end: w.waiter.to + w.severity,
            });
            let agg = totals.entry((w.metric.name().to_owned(), waiter_path.clone())).or_default();
            agg.count += 1;
            agg.severity += w.severity;
            agg.noise_ns += noise_ns;
            records.push(WaitProvenance {
                metric: w.metric.name().to_owned(),
                waiter_loc: w.waiter.loc,
                waiter_path,
                waiter_enter: w.waiter.to,
                severity: w.severity,
                delayer_loc: d.loc,
                delayer_path: profile.path_string(w.delayer_path),
                delayer_enter: d.to,
                noise_ns,
                chain,
            });
        }
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by_key(|&i| (&records[i].metric, std::cmp::Reverse(records[i].severity)));
        let mut keep = vec![false; records.len()];
        let mut per_metric: BTreeMap<&str, usize> = BTreeMap::new();
        for &i in &order {
            let seen = per_metric.entry(&records[i].metric).or_insert(0);
            if *seen < WAIT_CAP {
                keep[i] = true;
                *seen += 1;
            }
        }
        let dropped = keep.iter().filter(|&&k| !k).count() as u64;
        let kept = records.into_iter().zip(keep).filter(|&(_, k)| k).map(|(w, _)| w).collect();
        (kept, totals, dropped)
    }

    /// On a physical LULESH-2 run, where every pattern drops waits past
    /// the cap, the observatory keeps exactly the records, totals and
    /// drop count that recording every wait and then capping gives.
    #[test]
    fn provenance_matches_recording_every_wait_on_lulesh_2() {
        let instance = nrlt_miniapps::lulesh_2();
        let cfg = ExecConfig::jureca(instance.nodes, instance.layout.clone(), 1000);
        let mcfg = MeasureConfig::new(ClockMode::Tsc)
            .with_filter(FilterRules::from_rules(instance.filter_rules.iter().cloned()));
        let prep = prepare_measure(&instance.program, &cfg);
        let run = RunObserve::new("LULESH-2:tsc:rep0");
        let (trace, _) = measure_prepared_spilled(
            &instance.program,
            &prep,
            &cfg,
            &mcfg,
            None,
            None,
            Some(&run),
            None,
        );
        let view = trace.view();
        let tpr = view.defs().threads_per_rank as usize;
        let config = AnalysisConfig { delay_costs: false, workers: 1 };
        let mut phase = Phase::new(None, "analysis", "analyze.replay", frames::ANALYZE_REPLAY);
        let (profile, locals, waits) = find_waits(&view, &config, None, &mut phase);
        drop(phase);
        let (want_waits, want_aggs, want_dropped) =
            record_every_wait_then_cap(&run, &profile, &locals, &waits, tpr);
        analyze_view(&view, &config, None, Some(&run));
        let obs = Observe::new();
        obs.attach(run);
        let got = &ObserveBundle::from_observe(&obs).runs["LULESH-2:tsc:rep0"];
        assert_eq!(got.waits, want_waits);
        assert_eq!(got.wait_aggs, want_aggs);
        assert_eq!(got.dropped_waits, want_dropped);
        let metrics: BTreeSet<&str> = got.waits.iter().map(|w| w.metric.as_str()).collect();
        assert!(metrics.len() >= 2, "{metrics:?}");
        assert_eq!(got.waits.len(), metrics.len() * WAIT_CAP);
        assert!(got.wait_aggs.values().any(|a| a.noise_ns > 0));
    }
}
