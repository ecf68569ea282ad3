//! Per-location event streams, stored as [`Event`] rows.
//!
//! A recorded stream is pushed once per event and read front to back
//! by every consumer (replay, causality, spill, merge), each of which
//! needs the whole event. [`EventStream`] is therefore a plain
//! `Vec<Event>`: a push is one 32-byte store, and iteration yields the
//! stored rows as they are, with nothing to recompose.
//!
//! The engine records a thread team round-robin over up to 128 such
//! streams, more than any hardware prefetcher tracks, so a push that
//! starts a new cache line would stall on the line's read for
//! ownership. [`EventStream::push`] therefore prefetches the row 16
//! places past the tail whenever it starts a new pair of rows.

use crate::event::{Event, EventKind};

/// How many rows ahead of the tail [`EventStream::push`] prefetches:
/// eight 64-byte lines, far enough to cover a miss while the team's
/// other streams are pushed.
const PREFETCH_AHEAD: usize = 16;

/// One location's event stream, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventStream {
    rows: Vec<Event>,
}

/// Iterator over an [`EventStream`], yielding its rows by value.
pub type Iter<'a> = std::iter::Copied<std::slice::Iter<'a, Event>>;

impl EventStream {
    /// An empty stream.
    pub(crate) fn new() -> EventStream {
        EventStream::default()
    }

    /// An empty stream with room for `cap` events.
    pub(crate) fn with_capacity(cap: usize) -> EventStream {
        EventStream { rows: Vec::with_capacity(cap) }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append one event, prefetching the row 16 places ahead when this
    /// one starts a new pair of rows.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        let len = self.rows.len();
        if len.is_multiple_of(2) && len + PREFETCH_AHEAD < self.rows.capacity() {
            // SAFETY: `len + PREFETCH_AHEAD < capacity`, so the offset
            // stays inside the vector's allocation, as `add` requires.
            let ahead = unsafe { self.rows.as_ptr().add(len + PREFETCH_AHEAD) };
            prefetch(ahead);
        }
        self.rows.push(ev);
    }

    /// Reserve room for `additional` more events (event decode path).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Timestamp of event `i`.
    #[inline]
    pub fn time(&self, i: usize) -> u64 {
        self.rows[i].time
    }

    /// Rewrite the timestamp of event `i` (test fixtures).
    #[cfg(test)]
    pub(crate) fn set_time(&mut self, i: usize, t: u64) {
        self.rows[i].time = t;
    }

    /// Payload of event `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> EventKind {
        self.rows[i].kind
    }

    /// Event `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Event {
        self.rows[i]
    }

    /// First event, if any.
    pub(crate) fn first(&self) -> Option<Event> {
        self.rows.first().copied()
    }

    /// Last event, if any.
    pub fn last(&self) -> Option<Event> {
        self.rows.last().copied()
    }

    /// Remove and return the last event (test fixtures).
    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.rows.pop()
    }

    /// Drop all events, keeping the allocation for reuse.
    ///
    /// The spill path encodes a full chunk out of the stream and then
    /// keeps recording into the same (already-sized) buffer; a segment
    /// cursor decodes every chunk into the same stream.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
    }

    /// Iterate the events by value.
    pub fn iter(&self) -> Iter<'_> {
        self.rows.iter().copied()
    }
}

/// Hint the cache to fetch the line holding `row`; no-op off x86_64.
#[inline(always)]
fn prefetch(row: *const Event) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the `x86_64` baseline, and a prefetch is a
    // hint that neither reads nor writes memory, so it cannot fault.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(row.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = Event;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<Event> for EventStream {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> EventStream {
        EventStream { rows: iter.into_iter().collect() }
    }
}

impl From<Vec<Event>> for EventStream {
    fn from(rows: Vec<Event>) -> EventStream {
        EventStream { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::RegionRef;
    use crate::event::{CollectiveOp, NO_ROOT};

    fn one_of_each() -> Vec<Event> {
        vec![
            Event::new(1, EventKind::Enter { region: RegionRef(3) }),
            Event::new(5, EventKind::CallBurst { region: RegionRef(4), count: 9, start: 2 }),
            Event::new(6, EventKind::SendPost { peer: 1, tag: 7, bytes: 64 }),
            Event::new(7, EventKind::RecvPost { peer: 2, tag: 8, bytes: 128 }),
            Event::new(9, EventKind::RecvComplete { peer: 2, tag: 8, bytes: 128 }),
            Event::new(
                11,
                EventKind::CollectiveEnd { op: CollectiveOp::Bcast, bytes: 32, root: NO_ROOT },
            ),
            Event::new(12, EventKind::Leave { region: RegionRef(3) }),
        ]
    }

    #[test]
    fn push_get_roundtrips_every_kind() {
        let events = one_of_each();
        let s: EventStream = events.clone().into();
        assert_eq!(s.len(), events.len());
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(s.get(i), *ev);
            assert_eq!(s.time(i), ev.time);
            assert_eq!(s.kind(i), ev.kind);
        }
        let back: Vec<Event> = s.iter().collect();
        assert_eq!(back, events);
    }

    #[test]
    fn first_last_pop() {
        let mut s: EventStream = one_of_each().into();
        assert_eq!(s.first().unwrap().time, 1);
        assert_eq!(s.last().unwrap().time, 12);
        let popped = s.pop().unwrap();
        assert_eq!(popped.time, 12);
        assert_eq!(s.len(), 6);
        assert_eq!(s.last().unwrap().time, 11);
    }

    #[test]
    fn empty_stream_behaves() {
        let mut s = EventStream::new();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
        assert_eq!(s.pop(), None);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s: EventStream = one_of_each().into();
        let cap = s.rows.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.rows.capacity(), cap);
        s.push(Event::new(1, EventKind::Enter { region: RegionRef(0) }));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prefetching_push_matches_a_plain_vec() {
        // Start small enough that the guard `len + PREFETCH_AHEAD <
        // capacity` is false from the first push, becomes true as the
        // vector grows, and crosses `len + PREFETCH_AHEAD == capacity`
        // before every growth; then refill the cleared buffer.
        let cap = PREFETCH_AHEAD + 3;
        let mut s = EventStream::with_capacity(cap);
        let mut plain: Vec<Event> = Vec::with_capacity(cap);
        let ev = |i: usize| {
            let kind = one_of_each()[i % 7].kind;
            Event::new(i as u64, kind)
        };
        for round in 0..2 {
            let n = 10 * cap + round;
            for i in 0..n {
                s.push(ev(i));
                plain.push(ev(i));
                assert_eq!(s.rows, plain, "round {round}, after push {i}");
            }
            assert!(s.rows.capacity() > cap);
            s.clear();
            plain.clear();
        }
    }

    #[test]
    fn equality_matches_event_equality() {
        let a: EventStream = one_of_each().into();
        let b: EventStream = one_of_each().into();
        assert_eq!(a, b);
        let mut c = b.clone();
        c.set_time(0, 99);
        assert_ne!(a, c);
    }
}
