//! Unified view over resident and spilled traces.
//!
//! Analysis passes consume a trace through [`TraceView`]: definition
//! tables plus one event iterator per location. The resident
//! [`Trace`] iterates its in-memory SoA columns; a [`SpilledTrace`]
//! streams chunks from its segment file through a bounded scratch
//! buffer. Both yield the identical event sequence, which is what makes
//! the out-of-core path byte-identical end to end.

use crate::defs::Definitions;
use crate::event::Event;
use crate::segment::{SegmentCursor, SpilledTrace};
use crate::{stream, Trace};

/// An owned trace, either fully resident or spilled to a segment file.
#[derive(Debug)]
pub enum TraceData {
    /// All events in memory (the default path).
    Resident(Trace),
    /// Events in a segment file, definitions in memory.
    Spilled(SpilledTrace),
}

impl TraceData {
    /// Total events across all locations.
    pub fn total_events(&self) -> usize {
        match self {
            TraceData::Resident(t) => t.total_events(),
            TraceData::Spilled(t) => t.total_events(),
        }
    }

    /// A borrowing view for the analysis passes.
    pub fn view(&self) -> TraceView<'_> {
        match self {
            TraceData::Resident(t) => TraceView::Resident(t),
            TraceData::Spilled(t) => TraceView::Spilled(t),
        }
    }

    /// The resident trace, if this is one (tests, explorer paths that
    /// still need random access).
    pub fn as_resident(&self) -> Option<&Trace> {
        match self {
            TraceData::Resident(t) => Some(t),
            TraceData::Spilled(_) => None,
        }
    }
}

impl From<Trace> for TraceData {
    fn from(t: Trace) -> TraceData {
        TraceData::Resident(t)
    }
}

impl From<SpilledTrace> for TraceData {
    fn from(t: SpilledTrace) -> TraceData {
        TraceData::Spilled(t)
    }
}

/// A borrowed trace: definitions plus per-location event iterators.
#[derive(Debug, Clone, Copy)]
pub enum TraceView<'a> {
    /// View of a resident trace.
    Resident(&'a Trace),
    /// View of a spilled trace.
    Spilled(&'a SpilledTrace),
}

impl<'a> TraceView<'a> {
    /// Definition tables.
    pub fn defs(&self) -> &'a Definitions {
        match self {
            TraceView::Resident(t) => &t.defs,
            TraceView::Spilled(t) => &t.defs,
        }
    }

    /// Number of locations.
    pub fn n_locations(&self) -> usize {
        match self {
            TraceView::Resident(t) => t.streams.len(),
            TraceView::Spilled(t) => t.n_locations(),
        }
    }

    /// Total events across all locations.
    pub fn total_events(&self) -> usize {
        match self {
            TraceView::Resident(t) => t.total_events(),
            TraceView::Spilled(t) => t.total_events(),
        }
    }

    /// Iterate one location's events in time order.
    ///
    /// Panics if the spilled segment file disappeared mid-run — the
    /// file is process-private and owned by the `SpilledTrace`.
    pub fn events(&self, loc: usize) -> LocationEvents<'a> {
        match self {
            TraceView::Resident(t) => LocationEvents::Resident(t.streams[loc].iter()),
            TraceView::Spilled(t) => {
                LocationEvents::Spilled(t.cursor(loc).expect("segment file open"))
            }
        }
    }

    /// One iterator per location, for k-way merges.
    pub fn all_events(&self) -> Vec<LocationEvents<'a>> {
        (0..self.n_locations()).map(|loc| self.events(loc)).collect()
    }
}

/// Event iterator over one location of a [`TraceView`].
pub enum LocationEvents<'a> {
    /// Iterating in-memory columns.
    Resident(stream::Iter<'a>),
    /// Streaming chunks from a segment file.
    Spilled(SegmentCursor),
}

impl Iterator for LocationEvents<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        match self {
            LocationEvents::Resident(it) => it.next(),
            LocationEvents::Spilled(c) => c.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::{ClockKind, LocationDef, RegionDef, RegionRef, RegionRole};
    use crate::event::EventKind;
    use crate::segment::{temp_segment_path, MergedEvents, SegmentWriter};
    use crate::EventStream;

    fn defs(n_locs: u32) -> Definitions {
        Definitions {
            regions: std::sync::Arc::new(vec![RegionDef {
                name: "main".into(),
                role: RegionRole::Function,
            }]),
            locations: std::sync::Arc::new(
                (0..n_locs).map(|r| LocationDef { rank: r, thread: 0, core: r }).collect(),
            ),
            threads_per_rank: 1,
            clock: ClockKind::Physical,
        }
    }

    fn events_for(loc: u64) -> Vec<Event> {
        (0..10)
            .map(|i| Event::new(loc + 3 * i, EventKind::Enter { region: RegionRef(0) }))
            .collect()
    }

    fn resident() -> TraceData {
        let streams: Vec<EventStream> = (0..3u64).map(|l| events_for(l).into()).collect();
        TraceData::Resident(Trace { defs: defs(3), streams })
    }

    fn spilled() -> TraceData {
        let path = temp_segment_path("test-store");
        let mut w = SegmentWriter::create(&path).unwrap();
        let mut buf = EventStream::new();
        for loc in 0..3u64 {
            for ev in events_for(loc) {
                buf.push(ev);
                if buf.len() == 4 {
                    w.spill(loc as u32, &mut buf).unwrap();
                }
            }
            w.spill(loc as u32, &mut buf).unwrap();
        }
        let index = w.finish().unwrap();
        TraceData::Spilled(SpilledTrace::from_parts(defs(3), path, index, 3))
    }

    #[test]
    fn resident_and_spilled_views_agree() {
        let r = resident();
        let s = spilled();
        assert_eq!(r.total_events(), s.total_events());
        assert_eq!(r.view().defs(), s.view().defs());
        assert_eq!(r.view().n_locations(), s.view().n_locations());
        for loc in 0..3 {
            let a: Vec<Event> = r.view().events(loc).collect();
            let b: Vec<Event> = s.view().events(loc).collect();
            assert_eq!(a, b, "location {loc}");
        }
    }

    #[test]
    fn merged_views_agree_and_bound_heap() {
        let r = resident();
        let s = spilled();
        let mut mr = MergedEvents::new(r.view().all_events());
        let mut ms = MergedEvents::new(s.view().all_events());
        let a: Vec<(u32, Event)> = mr.by_ref().collect();
        let b: Vec<(u32, Event)> = ms.by_ref().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        assert!(mr.max_heap_occupancy() <= 3);
        assert_eq!(mr.max_heap_occupancy(), ms.max_heap_occupancy());
        // Global order: time ascending, location breaking ties.
        for w in a.windows(2) {
            assert!((w[0].1.time, w[0].0) < (w[1].1.time, w[1].0));
        }
    }
}
