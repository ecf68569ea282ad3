//! # nrlt-telemetry — self-telemetry for the simulation pipeline
//!
//! The pipeline of this reproduction (discrete-event engine →
//! measurement → trace → replay analysis → profile) observes *simulated*
//! executions; this crate observes the pipeline itself. It provides a
//! global-free, explicitly-threaded [`Telemetry`] handle with
//!
//! * **spans** — host wall-clock intervals with nesting, grouped into
//!   tracks (one per worker thread where relevant),
//! * **counters** — monotonic `u64` counters and settable gauges,
//! * **histograms** — log-scale (power-of-two bucket) distributions,
//!
//! and two exporters:
//!
//! * [`export::metrics_jsonl`] — machine-readable JSON-lines dump
//!   (rendered for humans by `nrlt-report inspect`),
//! * [`chrome::pipeline_trace_json`] — Chrome trace-event format
//!   (loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)).
//!
//! Everything is opt-in: instrumented layers take `Option<&Telemetry>`
//! and perform no telemetry work (not even an atomic increment) when
//! handed `None`. There are no globals, no threads, and no external
//! dependencies; time comes from `std::time::Instant`.

#![warn(missing_docs)]

pub mod chrome;
pub mod export;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod sample;

pub use hist::Histogram;
pub use manifest::{git_rev, write_exports, Manifest, RunInfo};
pub use sample::SampleProf;

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Default track for spans opened on this thread (see [`set_track`]).
    static CURRENT_TRACK: Cell<u32> = const { Cell::new(0) };
}

/// The track spans opened on this thread default to (0 unless inside a
/// [`set_track`] scope).
pub fn current_track() -> u32 {
    CURRENT_TRACK.with(Cell::get)
}

/// Route this thread's [`Telemetry::span`] / [`Telemetry::span_cat`]
/// calls onto `track` until the returned guard drops (then the previous
/// track is restored). Worker threads in a parallel fan-out use this so
/// their spans — including those recorded by layers that never heard of
/// the fan-out — land on per-worker tracks instead of interleaving on
/// track 0.
#[must_use = "the track resets when the guard drops"]
pub fn set_track(track: u32) -> TrackGuard {
    let previous = CURRENT_TRACK.with(|t| t.replace(track));
    TrackGuard { previous }
}

/// Guard of a [`set_track`] scope; restores the previous track on drop.
pub struct TrackGuard {
    previous: u32,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        CURRENT_TRACK.with(|t| t.set(self.previous));
    }
}

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Display name.
    pub name: String,
    /// Category (Chrome trace `cat` field), e.g. `"pipeline"`.
    pub cat: String,
    /// Track the span belongs to (0 = the main pipeline thread; workers
    /// use their worker index + 1).
    pub track: u32,
    /// Nesting depth within the track at the time the span opened.
    pub depth: u32,
    /// Start, in nanoseconds since the handle's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; 0 while the span is still open.
    pub dur_ns: u64,
    /// False while the span is still open.
    pub closed: bool,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    stacks: BTreeMap<u32, Vec<usize>>,
}

/// The telemetry handle. Cheap to share by reference across threads
/// (`&Telemetry` is `Send + Sync`); all recording methods take `&self`.
pub struct Telemetry {
    epoch: Instant,
    calls: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh handle; its epoch (span time zero) is now.
    pub fn new() -> Self {
        Telemetry {
            epoch: Instant::now(),
            calls: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Nanoseconds since the handle was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// How many recording calls (spans opened, counter adds, histogram
    /// observations) this handle has received. The opt-in tests use this
    /// to prove that a `None`-telemetry run performs zero telemetry work.
    pub fn call_count(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    // ---- spans ---------------------------------------------------------

    /// Open a span on the thread's current track (track 0 unless inside
    /// a [`set_track`] scope), category `"pipeline"`. The span closes
    /// when the returned guard drops.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        self.span_track(name, "pipeline", current_track())
    }

    /// Open a span with an explicit category on the thread's current
    /// track.
    pub fn span_cat(&self, name: impl Into<String>, cat: &str) -> Span<'_> {
        self.span_track(name, cat, current_track())
    }

    /// Open a span on an explicit track (for worker threads).
    pub fn span_track(&self, name: impl Into<String>, cat: &str, track: u32) -> Span<'_> {
        self.bump();
        let start_ns = self.elapsed_ns();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        let stack = inner.stacks.entry(track).or_default();
        let depth = stack.len() as u32;
        let idx = inner.spans.len();
        inner.spans.push(SpanRecord {
            name: name.into(),
            cat: cat.to_owned(),
            track,
            depth,
            start_ns,
            dur_ns: 0,
            closed: false,
        });
        inner.stacks.entry(track).or_default().push(idx);
        Span { tel: self, idx, track }
    }

    fn close_span(&self, idx: usize, track: u32) {
        let end = self.elapsed_ns();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        if let Some(stack) = inner.stacks.get_mut(&track) {
            if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.remove(pos);
            }
        }
        let rec = &mut inner.spans[idx];
        rec.dur_ns = end.saturating_sub(rec.start_ns);
        rec.closed = true;
    }

    // ---- counters ------------------------------------------------------

    /// Add `delta` to the monotonic counter `name` (creating it at 0).
    pub fn add(&self, name: &str, delta: u64) {
        self.bump();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        match inner.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increment the counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn set(&self, name: &str, value: u64) {
        self.bump();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        inner.counters.insert(name.to_owned(), value);
    }

    /// Raise the gauge `name` to at least `value`.
    pub fn set_max(&self, name: &str, value: u64) {
        self.bump();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        let v = inner.counters.entry(name.to_owned()).or_insert(0);
        *v = (*v).max(value);
    }

    // ---- histograms ----------------------------------------------------

    /// Record `value` into the log-scale histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.bump();
        let mut inner = self.inner.lock().expect("telemetry poisoned");
        if let Some(h) = inner.hists.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new();
            h.observe(value);
            inner.hists.insert(name.to_owned(), h);
        }
    }

    // ---- snapshots -----------------------------------------------------

    /// Snapshot of all counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let inner = self.inner.lock().expect("telemetry poisoned");
        inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// One counter's current value, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().expect("telemetry poisoned");
        inner.counters.get(name).copied()
    }

    /// Snapshot of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let inner = self.inner.lock().expect("telemetry poisoned");
        inner.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Snapshot of all spans in open order. Open spans report the
    /// duration they have accumulated so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let now = self.elapsed_ns();
        let inner = self.inner.lock().expect("telemetry poisoned");
        inner
            .spans
            .iter()
            .map(|s| {
                let mut s = s.clone();
                if !s.closed {
                    s.dur_ns = now.saturating_sub(s.start_ns);
                }
                s
            })
            .collect()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("telemetry poisoned");
        f.debug_struct("Telemetry")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.hists.len())
            .field("spans", &inner.spans.len())
            .field("calls", &self.call_count())
            .finish()
    }
}

/// RAII guard of an open span; closes the span on drop.
#[must_use = "a span measures the scope it lives in"]
pub struct Span<'a> {
    tel: &'a Telemetry,
    idx: usize,
    track: u32,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.tel.close_span(self.idx, self.track);
    }
}

/// One pipeline phase, fed to whichever sinks are installed: a span on
/// the optional [`Telemetry`] handle and the matching sampling-profiler
/// frame ([`sample::frame`]). Both end when the guard drops or when
/// [`Phase::next`] moves on. With `None` telemetry and no profiler
/// installed, a phase does no recording work.
#[must_use = "a phase measures the scope it lives in"]
pub struct Phase<'a> {
    tel: Option<&'a Telemetry>,
    cat: &'static str,
    span: Option<Span<'a>>,
    frame: Option<sample::FrameGuard>,
}

impl<'a> Phase<'a> {
    /// Open span `name` (category `cat`) on `tel` and publish `frame`.
    pub fn new(
        tel: Option<&'a Telemetry>,
        cat: &'static str,
        name: impl Into<String>,
        frame: sample::frames::FrameId,
    ) -> Phase<'a> {
        Phase {
            tel,
            cat,
            span: tel.map(|t| t.span_cat(name, cat)),
            frame: Some(sample::frame(frame)),
        }
    }

    /// End the current phase and start the next one, in the same
    /// category. Frame pops are positional, so the old frame is popped
    /// before the next one is published.
    pub fn next(&mut self, name: impl Into<String>, frame: sample::frames::FrameId) {
        self.span = None;
        self.frame = None;
        self.span = self.tel.map(|t| t.span_cat(name, self.cat));
        self.frame = Some(sample::frame(frame));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add("a", 2);
        t.incr("a");
        t.set("b", 7);
        t.set_max("b", 3);
        t.set_max("b", 11);
        assert_eq!(t.counter("a"), Some(3));
        assert_eq!(t.counter("b"), Some(11));
        assert_eq!(t.counter("missing"), None);
        assert!(t.call_count() >= 5);
    }

    #[test]
    fn spans_nest_and_close() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert!(spans.iter().all(|s| s.closed));
        // The inner span is contained in the outer one.
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].start_ns + spans[1].dur_ns <= spans[0].start_ns + spans[0].dur_ns);
    }

    #[test]
    fn tracks_have_independent_depth() {
        let t = Telemetry::new();
        let _a = t.span_track("w0", "worker", 1);
        let b = t.span_track("w1", "worker", 2);
        drop(b);
        let spans = t.spans();
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 0);
    }

    #[test]
    fn set_track_scopes_and_restores() {
        let t = Telemetry::new();
        assert_eq!(current_track(), 0);
        {
            let _g = set_track(3);
            assert_eq!(current_track(), 3);
            let _s = t.span("on three");
            {
                let _g2 = set_track(5);
                let _s2 = t.span_cat("on five", "worker");
            }
            assert_eq!(current_track(), 3);
        }
        assert_eq!(current_track(), 0);
        let spans = t.spans();
        assert_eq!(spans[0].track, 3);
        assert_eq!(spans[1].track, 5);
        // Independent tracks: both spans sit at depth 0 of their track.
        assert_eq!(spans[1].depth, 0);
    }

    #[test]
    fn phase_next_closes_the_old_span_before_opening_the_next() {
        let t = Telemetry::new();
        {
            let mut phase = Phase::new(Some(&t), "analysis", "a", sample::frames::ANALYZE_REPLAY);
            phase.next("b", sample::frames::ANALYZE_P2P);
        }
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(spans.iter().all(|s| s.closed && s.depth == 0 && s.cat == "analysis"));
        assert!(spans[1].start_ns >= spans[0].start_ns + spans[0].dur_ns);
    }

    #[test]
    fn open_spans_report_partial_duration() {
        let t = Telemetry::new();
        let _open = t.span("open");
        let spans = t.spans();
        assert!(!spans[0].closed);
    }
}
