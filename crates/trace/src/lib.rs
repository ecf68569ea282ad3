//! # nrlt-trace — trace data model and binary format
//!
//! The trace layer between measurement and analysis, playing the role
//! OTF2 plays for Score-P and Scalasca: definition tables (regions,
//! locations, clock), per-location event streams, and a compact
//! versioned binary encoding.
//!
//! Timestamps are bare `u64`s on purpose. Under the physical clock they
//! are virtual nanoseconds; under a logical clock they are Lamport
//! counter values. Nothing downstream needs to know which — that is the
//! paper's point: Scalasca's wait-state analysis runs unchanged on
//! logical traces.

#![warn(missing_docs)]

pub mod defs;
pub mod event;
pub mod io;
pub mod segment;
pub mod store;
pub mod stream;

pub use defs::{
    ClockKind, Definitions, LocationDef, LocationRef, RegionDef, RegionRef, RegionRole,
};
pub use event::{CollectiveOp, Event, EventKind, NO_ROOT};
pub use io::{decode, encode, DecodeError};
pub use segment::{
    temp_segment_path, MergedEvents, SegmentCursor, SegmentError, SegmentIndex, SegmentWriter,
    SpillStats, SpilledTrace,
};
pub use store::{LocationEvents, TraceData, TraceView};
pub use stream::EventStream;

/// A complete trace: definitions plus one event stream per location.
///
/// Stream `i` belongs to location `LocationRef(i)`; streams are sorted by
/// (rank, thread) and timestamps are non-decreasing within each stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Definition tables.
    pub defs: Definitions,
    /// Event streams, one per location, in [`LocationRef`] order.
    pub streams: Vec<EventStream>,
}

impl Trace {
    /// Pre-sized event streams for `n_locations` locations, each with
    /// room for `events_per_stream` events. Recording a trace appends
    /// millions of events per location; growing each stream from empty
    /// costs a reallocation cascade per stream, so writers that can
    /// estimate the event count (the measurement system walks the
    /// program once) should start from this.
    pub fn presized_streams(n_locations: usize, events_per_stream: usize) -> Vec<EventStream> {
        // Cap the up-front reservation so a wild estimate cannot ask the
        // allocator for more than ~16M events (~528 MiB) per stream.
        let cap = events_per_stream.min(1 << 24);
        (0..n_locations).map(|_| EventStream::with_capacity(cap)).collect()
    }

    /// Total number of events across all streams.
    pub fn total_events(&self) -> usize {
        self.streams.iter().map(EventStream::len).sum()
    }

    /// Largest timestamp in the trace (0 for an empty trace).
    pub fn end_time(&self) -> u64 {
        self.streams.iter().filter_map(|s| s.last()).map(|e| e.time).max().unwrap_or(0)
    }

    /// Smallest timestamp in the trace (0 for an empty trace).
    pub fn start_time(&self) -> u64 {
        self.streams.iter().filter_map(|s| s.first()).map(|e| e.time).min().unwrap_or(0)
    }

    /// Check stream invariants: per-stream monotone timestamps and
    /// balanced Enter/Leave nesting. Used by tests and by the analyzer's
    /// debug mode.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.streams.len() != self.defs.locations.len() {
            return Err(format!(
                "{} streams for {} locations",
                self.streams.len(),
                self.defs.locations.len()
            ));
        }
        for (i, stream) in self.streams.iter().enumerate() {
            let mut last = 0u64;
            let mut stack: Vec<RegionRef> = Vec::new();
            for ev in stream.iter() {
                if ev.time < last {
                    return Err(format!("location {i}: time went backwards at {}", ev.time));
                }
                last = ev.time;
                match ev.kind {
                    EventKind::Enter { region } => stack.push(region),
                    EventKind::Leave { region } => match stack.pop() {
                        Some(top) if top == region => {}
                        Some(top) => {
                            return Err(format!(
                                "location {i}: Leave({}) does not match Enter({})",
                                self.defs.region(region).name,
                                self.defs.region(top).name
                            ))
                        }
                        None => {
                            return Err(format!(
                                "location {i}: Leave({}) with empty stack",
                                self.defs.region(region).name
                            ))
                        }
                    },
                    EventKind::CallBurst { start, .. } if start > ev.time => {
                        return Err(format!("location {i}: burst start after end"));
                    }
                    _ => {}
                }
            }
            if !stack.is_empty() {
                return Err(format!("location {i}: {} regions left open", stack.len()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Trace {
        Trace {
            defs: Definitions {
                regions: std::sync::Arc::new(vec![RegionDef {
                    name: "main".into(),
                    role: RegionRole::Function,
                }]),
                locations: std::sync::Arc::new(vec![LocationDef { rank: 0, thread: 0, core: 0 }]),
                threads_per_rank: 1,
                clock: ClockKind::Physical,
            },
            streams: vec![vec![
                Event::new(3, EventKind::Enter { region: RegionRef(0) }),
                Event::new(9, EventKind::Leave { region: RegionRef(0) }),
            ]
            .into()],
        }
    }

    #[test]
    fn totals_and_bounds() {
        let t = tiny();
        assert_eq!(t.total_events(), 2);
        assert_eq!(t.start_time(), 3);
        assert_eq!(t.end_time(), 9);
        assert_eq!(t.streams[0].len(), 2);
    }

    #[test]
    fn consistency_ok() {
        assert!(tiny().check_consistency().is_ok());
    }

    #[test]
    fn consistency_catches_backwards_time() {
        let mut t = tiny();
        t.streams[0].set_time(1, 1);
        assert!(t.check_consistency().unwrap_err().contains("backwards"));
    }

    #[test]
    fn consistency_catches_unbalanced() {
        let mut t = tiny();
        t.streams[0].pop();
        assert!(t.check_consistency().unwrap_err().contains("left open"));
    }

    #[test]
    fn consistency_catches_stream_count_mismatch() {
        let mut t = tiny();
        t.streams.push(EventStream::new());
        assert!(t.check_consistency().is_err());
    }
}
