//! Per-location event streams, stored as [`Event`] rows.
//!
//! A recorded stream is pushed once per event and read front to back
//! by every consumer (replay, causality, spill, merge), each of which
//! needs the whole event. [`EventStream`] is therefore a plain
//! `Vec<Event>`: a push is one 32-byte store, and iteration yields the
//! stored rows as they are, with nothing to recompose.

use crate::event::{Event, EventKind};

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

    /// Append one event.
    #[inline]
    pub fn push(&mut self, ev: Event) {
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
    fn equality_matches_event_equality() {
        let a: EventStream = one_of_each().into();
        let b: EventStream = one_of_each().into();
        assert_eq!(a, b);
        let mut c = b.clone();
        c.set_time(0, 99);
        assert_ne!(a, c);
    }
}
