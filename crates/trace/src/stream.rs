//! Struct-of-arrays event streams.
//!
//! A recorded stream is pushed once and scanned many times (replay,
//! causality, rendering). Storing the events as an array of enum
//! structs wastes bandwidth on those scans: every pass drags the full
//! payload of every event through the cache even when it only needs
//! the timestamps, and the enum padding is dead weight. [`EventStream`]
//! stores one column per field instead — times, kind tags, and three
//! payload columns — so column-only scans touch a fraction of the
//! memory and the payload decode happens only for events actually
//! inspected.
//!
//! The public [`Event`] value type remains the interchange currency:
//! `push` decomposes one, `get`/iteration recompose them on the fly.

use crate::defs::RegionRef;
use crate::event::{CollectiveOp, Event, EventKind};

// Column tag bytes, one per `EventKind` variant. They are also the tag
// bytes of the on-disk event encoding (`io::put_events`).
pub(crate) const T_ENTER: u8 = 0;
pub(crate) const T_LEAVE: u8 = 1;
pub(crate) const T_BURST: u8 = 2;
pub(crate) const T_SEND_POST: u8 = 3;
pub(crate) const T_RECV_POST: u8 = 4;
pub(crate) const T_RECV_COMPLETE: u8 = 5;
pub(crate) const T_COLLECTIVE_END: u8 = 6;
/// Largest valid column tag byte.
pub(crate) const T_MAX: u8 = T_COLLECTIVE_END;

/// Borrowed view of the raw columns, for the event encoder.
pub(crate) struct Columns<'a> {
    pub times: &'a [u64],
    pub tags: &'a [u8],
    pub a: &'a [u32],
    pub b: &'a [u32],
    pub x: &'a [u64],
    pub y: &'a [u64],
}

/// One location's event stream in struct-of-arrays layout.
///
/// Column roles per kind (unused columns hold 0):
///
/// | kind            | `a`      | `b`   | `x`     | `y`     |
/// |-----------------|----------|-------|---------|---------|
/// | `Enter`/`Leave` | region   | —     | —       | —       |
/// | `CallBurst`     | region   | —     | count   | start   |
/// | send/recv       | peer     | tag   | bytes   | —       |
/// | `CollectiveEnd` | root     | op    | bytes   | —       |
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventStream {
    times: Vec<u64>,
    tags: Vec<u8>,
    a: Vec<u32>,
    b: Vec<u32>,
    x: Vec<u64>,
    y: Vec<u64>,
}

impl EventStream {
    /// An empty stream.
    pub fn new() -> EventStream {
        EventStream::default()
    }

    /// An empty stream with room for `cap` events per column.
    pub fn with_capacity(cap: usize) -> EventStream {
        EventStream {
            times: Vec::with_capacity(cap),
            tags: Vec::with_capacity(cap),
            a: Vec::with_capacity(cap),
            b: Vec::with_capacity(cap),
            x: Vec::with_capacity(cap),
            y: Vec::with_capacity(cap),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Append one event, decomposed into the columns.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        self.times.push(ev.time);
        let (tag, a, b, x, y) = match ev.kind {
            EventKind::Enter { region } => (T_ENTER, region.0, 0, 0, 0),
            EventKind::Leave { region } => (T_LEAVE, region.0, 0, 0, 0),
            EventKind::CallBurst { region, count, start } => (T_BURST, region.0, 0, count, start),
            EventKind::SendPost { peer, tag, bytes } => (T_SEND_POST, peer, tag, bytes, 0),
            EventKind::RecvPost { peer, tag, bytes } => (T_RECV_POST, peer, tag, bytes, 0),
            EventKind::RecvComplete { peer, tag, bytes } => (T_RECV_COMPLETE, peer, tag, bytes, 0),
            EventKind::CollectiveEnd { op, bytes, root } => {
                (T_COLLECTIVE_END, root, op as u32, bytes, 0)
            }
        };
        self.tags.push(tag);
        self.a.push(a);
        self.b.push(b);
        self.x.push(x);
        self.y.push(y);
    }

    /// Timestamp of event `i`.
    #[inline]
    pub fn time(&self, i: usize) -> u64 {
        self.times[i]
    }

    /// Rewrite the timestamp of event `i` (test fixtures).
    pub fn set_time(&mut self, i: usize, t: u64) {
        self.times[i] = t;
    }

    /// The full timestamp column — the cheap path for time-only scans.
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// Recompose the payload of event `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> EventKind {
        let (a, b, x, y) = (self.a[i], self.b[i], self.x[i], self.y[i]);
        match self.tags[i] {
            T_ENTER => EventKind::Enter { region: RegionRef(a) },
            T_LEAVE => EventKind::Leave { region: RegionRef(a) },
            T_BURST => EventKind::CallBurst { region: RegionRef(a), count: x, start: y },
            T_SEND_POST => EventKind::SendPost { peer: a, tag: b, bytes: x },
            T_RECV_POST => EventKind::RecvPost { peer: a, tag: b, bytes: x },
            T_RECV_COMPLETE => EventKind::RecvComplete { peer: a, tag: b, bytes: x },
            T_COLLECTIVE_END => EventKind::CollectiveEnd {
                op: CollectiveOp::from_u8(b as u8).expect("tag byte written by push"),
                bytes: x,
                root: a,
            },
            t => unreachable!("corrupt stream tag {t}"),
        }
    }

    /// Recompose event `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Event {
        Event { time: self.times[i], kind: self.kind(i) }
    }

    /// First event, if any.
    pub fn first(&self) -> Option<Event> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(0))
        }
    }

    /// Last event, if any.
    pub fn last(&self) -> Option<Event> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Remove and return the last event.
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.last()?;
        self.times.pop();
        self.tags.pop();
        self.a.pop();
        self.b.pop();
        self.x.pop();
        self.y.pop();
        Some(last)
    }

    /// Drop all events, keeping the column allocations for reuse.
    ///
    /// The spill path encodes a full chunk out of the stream and then
    /// keeps recording into the same (already-sized) buffers.
    pub fn clear(&mut self) {
        self.times.clear();
        self.tags.clear();
        self.a.clear();
        self.b.clear();
        self.x.clear();
        self.y.clear();
    }

    /// Raw column view for the event encoder.
    pub(crate) fn columns(&self) -> Columns<'_> {
        Columns {
            times: &self.times,
            tags: &self.tags,
            a: &self.a,
            b: &self.b,
            x: &self.x,
            y: &self.y,
        }
    }

    /// Append one already-decomposed event (event decode path). The
    /// caller guarantees `tag` is a valid column tag byte and, for a
    /// `CollectiveEnd`, `b` a defined [`CollectiveOp`].
    #[inline]
    pub(crate) fn push_raw(&mut self, time: u64, tag: u8, a: u32, b: u32, x: u64, y: u64) {
        debug_assert!(tag <= T_MAX);
        self.times.push(time);
        self.tags.push(tag);
        self.a.push(a);
        self.b.push(b);
        self.x.push(x);
        self.y.push(y);
    }

    /// Iterate the events, recomposed by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            times: self.times.iter(),
            tags: self.tags.iter(),
            a: self.a.iter(),
            b: self.b.iter(),
            x: self.x.iter(),
            y: self.y.iter(),
        }
    }
}

/// Iterator over an [`EventStream`], yielding recomposed [`Event`]s.
///
/// Holds one slice iterator per column so advancing is a set of pointer
/// increments with a single end check — no per-column bounds checks.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    times: std::slice::Iter<'a, u64>,
    tags: std::slice::Iter<'a, u8>,
    a: std::slice::Iter<'a, u32>,
    b: std::slice::Iter<'a, u32>,
    x: std::slice::Iter<'a, u64>,
    y: std::slice::Iter<'a, u64>,
}

impl Iterator for Iter<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        let &time = self.times.next()?;
        // The columns are always the same length, so the remaining
        // `next()`s cannot fail.
        let &tag = self.tags.next()?;
        let &a = self.a.next()?;
        let &b = self.b.next()?;
        let &x = self.x.next()?;
        let &y = self.y.next()?;
        let kind = match tag {
            T_ENTER => EventKind::Enter { region: RegionRef(a) },
            T_LEAVE => EventKind::Leave { region: RegionRef(a) },
            T_BURST => EventKind::CallBurst { region: RegionRef(a), count: x, start: y },
            T_SEND_POST => EventKind::SendPost { peer: a, tag: b, bytes: x },
            T_RECV_POST => EventKind::RecvPost { peer: a, tag: b, bytes: x },
            T_RECV_COMPLETE => EventKind::RecvComplete { peer: a, tag: b, bytes: x },
            T_COLLECTIVE_END => EventKind::CollectiveEnd {
                op: CollectiveOp::from_u8(b as u8).expect("tag byte written by push"),
                bytes: x,
                root: a,
            },
            t => unreachable!("corrupt stream tag {t}"),
        };
        Some(Event { time, kind })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.times.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a EventStream {
    type Item = Event;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<Event> for EventStream {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> EventStream {
        let iter = iter.into_iter();
        let mut s = EventStream::with_capacity(iter.size_hint().0);
        for ev in iter {
            s.push(ev);
        }
        s
    }
}

impl From<Vec<Event>> for EventStream {
    fn from(events: Vec<Event>) -> EventStream {
        events.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_ROOT;

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
        assert_eq!(s.times(), &[] as &[u64]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s: EventStream = one_of_each().into();
        let cap = s.times.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.times.capacity(), cap);
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
