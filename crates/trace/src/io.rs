//! Compact binary trace format.
//!
//! A self-contained, versioned encoding playing the role of OTF2:
//! definitions first, then one delta-timestamped event stream per
//! location. Integers use LEB128 varints; timestamps within a stream are
//! delta-encoded because both physical and logical clocks are
//! monotonically non-decreasing per location, which makes the deltas
//! small.

use crate::defs::{ClockKind, Definitions, LocationDef, RegionDef, RegionRef, RegionRole};
use crate::event::{CollectiveOp, Event, EventKind};
use crate::stream::EventStream;
use crate::Trace;

/// Magic bytes at the start of every trace file.
pub const MAGIC: &[u8; 4] = b"NRLT";
/// Current format version.
pub const VERSION: u16 = 2;

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Input ended in the middle of a record.
    Truncated,
    /// An enum byte had no defined meaning.
    BadTag(u8),
    /// A string was not valid UTF-8.
    BadString,
    /// Timestamps in a stream went backwards (corrupt delta).
    NonMonotoneTime,
    /// A varint did not fit its field.
    Overflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an NRLT trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::Truncated => write!(f, "trace truncated"),
            DecodeError::BadTag(t) => write!(f, "invalid tag byte {t:#x}"),
            DecodeError::BadString => write!(f, "invalid UTF-8 in string"),
            DecodeError::NonMonotoneTime => write!(f, "timestamps not monotone"),
            DecodeError::Overflow => write!(f, "integer field out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over the input slice; all reads are bounds-checked and
/// return [`DecodeError::Truncated`] past the end. Shared with the
/// segment spill format (`segment.rs`).
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.data.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn get_u16(&mut self) -> Result<u16, DecodeError> {
        // Big-endian, matching what the format has always written.
        let hi = self.get_u8()?;
        let lo = self.get_u8()?;
        Ok(u16::from_be_bytes([hi, lo]))
    }

    pub(crate) fn get_slice(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &mut Reader<'_>) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = buf.get_u8()?;
        if shift >= 64 {
            return Err(DecodeError::Overflow);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(buf: &mut Reader<'_>) -> Result<String, DecodeError> {
    let len = get_varint(buf)? as usize;
    let raw = buf.get_slice(len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadString)
}

/// A varint that must fit a `u32` field; larger values are rejected
/// rather than truncated.
fn get_u32(buf: &mut Reader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(get_varint(buf)?).map_err(|_| DecodeError::Overflow)
}

// Tag bytes of the event encoding, one per `EventKind` variant.
const T_ENTER: u8 = 0;
const T_LEAVE: u8 = 1;
const T_BURST: u8 = 2;
const T_SEND_POST: u8 = 3;
const T_RECV_POST: u8 = 4;
const T_RECV_COMPLETE: u8 = 5;
const T_COLLECTIVE_END: u8 = 6;

/// Append the rows of one event stream — the one event encoding both the
/// whole-trace format here and the spill chunks of `segment.rs` use.
///
/// Each event is its time delta from the previous event (the first from
/// 0), its tag byte, then only the fields that kind has, as varints:
/// the region for `Enter`/`Leave`; the region, the count and the
/// backwards delta to its start for `CallBurst`; peer, tag and bytes for
/// sends and receives; root, op and bytes for `CollectiveEnd`.
pub(crate) fn put_events(buf: &mut Vec<u8>, stream: &EventStream) {
    let mut last = 0u64;
    for Event { time, kind } in stream {
        debug_assert!(time >= last, "stream timestamps must be monotone");
        put_varint(buf, time - last);
        last = time;
        let (tag, a, rest) = match kind {
            EventKind::Enter { region } => (T_ENTER, region.0, None),
            EventKind::Leave { region } => (T_LEAVE, region.0, None),
            // start <= event time; store the backwards delta.
            EventKind::CallBurst { region, count, start } => {
                (T_BURST, region.0, Some((count, time - start)))
            }
            EventKind::SendPost { peer, tag, bytes } => {
                (T_SEND_POST, peer, Some((tag.into(), bytes)))
            }
            EventKind::RecvPost { peer, tag, bytes } => {
                (T_RECV_POST, peer, Some((tag.into(), bytes)))
            }
            EventKind::RecvComplete { peer, tag, bytes } => {
                (T_RECV_COMPLETE, peer, Some((tag.into(), bytes)))
            }
            EventKind::CollectiveEnd { op, bytes, root } => {
                (T_COLLECTIVE_END, root, Some((op as u64, bytes)))
            }
        };
        buf.push(tag);
        put_varint(buf, a.into());
        if let Some((b, x)) = rest {
            put_varint(buf, b);
            put_varint(buf, x);
        }
    }
}

/// Append `n` rows written by [`put_events`] to `out`. Every tag,
/// collective op and `u32` field is checked, so a stream that decodes
/// `Ok` holds only well-formed events.
pub(crate) fn get_events(
    buf: &mut Reader<'_>,
    n: usize,
    out: &mut EventStream,
) -> Result<(), DecodeError> {
    // `n` is untrusted: every row takes at least one byte, so the input
    // length bounds the pre-allocation.
    out.reserve(n.min(buf.remaining()));
    let mut last = 0u64;
    for _ in 0..n {
        let time = last.checked_add(get_varint(buf)?).ok_or(DecodeError::NonMonotoneTime)?;
        last = time;
        let tag = buf.get_u8()?;
        if tag > T_COLLECTIVE_END {
            return Err(DecodeError::BadTag(tag));
        }
        let a = get_u32(buf)?;
        let kind = match tag {
            T_ENTER => EventKind::Enter { region: RegionRef(a) },
            T_LEAVE => EventKind::Leave { region: RegionRef(a) },
            T_BURST => {
                let count = get_varint(buf)?;
                let back = get_varint(buf)?;
                let start = time.checked_sub(back).ok_or(DecodeError::NonMonotoneTime)?;
                EventKind::CallBurst { region: RegionRef(a), count, start }
            }
            T_COLLECTIVE_END => {
                // A defined op is below 0x80, so its varint is one byte.
                let op = buf.get_u8()?;
                let op = CollectiveOp::from_u8(op).ok_or(DecodeError::BadTag(op))?;
                EventKind::CollectiveEnd { op, bytes: get_varint(buf)?, root: a }
            }
            _ => {
                let (peer, tag_field, bytes) = (a, get_u32(buf)?, get_varint(buf)?);
                match tag {
                    T_SEND_POST => EventKind::SendPost { peer, tag: tag_field, bytes },
                    T_RECV_POST => EventKind::RecvPost { peer, tag: tag_field, bytes },
                    _ => EventKind::RecvComplete { peer, tag: tag_field, bytes },
                }
            }
        };
        out.push(Event { time, kind });
    }
    Ok(())
}

/// Serialise a trace to bytes.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1024 + trace.total_events() * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_be_bytes());

    // Clock.
    match &trace.defs.clock {
        ClockKind::Physical => buf.push(0),
        ClockKind::Logical { model } => {
            buf.push(1);
            put_string(&mut buf, model);
        }
    }

    // Regions.
    put_varint(&mut buf, trace.defs.regions.len() as u64);
    for r in trace.defs.regions.iter() {
        put_string(&mut buf, &r.name);
        buf.push(r.role as u8);
    }

    // Locations.
    put_varint(&mut buf, trace.defs.threads_per_rank as u64);
    put_varint(&mut buf, trace.defs.locations.len() as u64);
    for l in trace.defs.locations.iter() {
        put_varint(&mut buf, l.rank as u64);
        put_varint(&mut buf, l.thread as u64);
        put_varint(&mut buf, l.core as u64);
    }

    // Streams.
    put_varint(&mut buf, trace.streams.len() as u64);
    for stream in &trace.streams {
        put_varint(&mut buf, stream.len() as u64);
        put_events(&mut buf, stream);
    }

    buf
}

/// Deserialise a trace from bytes.
pub fn decode(data: &[u8]) -> Result<Trace, DecodeError> {
    let mut buf = Reader::new(data);
    let magic = buf.get_slice(4)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u16()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }

    let clock = match buf.get_u8()? {
        0 => ClockKind::Physical,
        1 => ClockKind::Logical { model: get_string(&mut buf)? },
        t => return Err(DecodeError::BadTag(t)),
    };

    // Length fields come from untrusted input: never pre-allocate more
    // than a sane bound, or a corrupted varint aborts the process.
    const CAP: usize = 1 << 16;
    let n_regions = get_varint(&mut buf)? as usize;
    let mut regions = Vec::with_capacity(n_regions.min(CAP));
    for _ in 0..n_regions {
        let name = get_string(&mut buf)?;
        let role_byte = buf.get_u8()?;
        let role = RegionRole::from_u8(role_byte).ok_or(DecodeError::BadTag(role_byte))?;
        regions.push(RegionDef { name, role });
    }

    let threads_per_rank = get_u32(&mut buf)?;
    let n_locations = get_varint(&mut buf)? as usize;
    let mut locations = Vec::with_capacity(n_locations.min(CAP));
    for _ in 0..n_locations {
        locations.push(LocationDef {
            rank: get_u32(&mut buf)?,
            thread: get_u32(&mut buf)?,
            core: get_u32(&mut buf)?,
        });
    }

    let n_streams = get_varint(&mut buf)? as usize;
    let mut streams = Vec::with_capacity(n_streams.min(CAP));
    for _ in 0..n_streams {
        let n_events = get_varint(&mut buf)? as usize;
        let mut stream = EventStream::new();
        get_events(&mut buf, n_events, &mut stream)?;
        streams.push(stream);
    }

    Ok(Trace {
        defs: Definitions {
            regions: std::sync::Arc::new(regions),
            locations: std::sync::Arc::new(locations),
            threads_per_rank,
            clock,
        },
        streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let defs = Definitions {
            regions: std::sync::Arc::new(vec![
                RegionDef { name: "main".into(), role: RegionRole::Function },
                RegionDef { name: "MPI_Allreduce".into(), role: RegionRole::MpiApi },
            ]),
            locations: std::sync::Arc::new(vec![
                LocationDef { rank: 0, thread: 0, core: 0 },
                LocationDef { rank: 1, thread: 0, core: 16 },
            ]),
            threads_per_rank: 1,
            clock: ClockKind::Logical { model: "lt_stmt".into() },
        };
        let r0 = RegionRef(0);
        let r1 = RegionRef(1);
        let s0 = vec![
            Event::new(0, EventKind::Enter { region: r0 }),
            Event::new(10, EventKind::CallBurst { region: r1, count: 42, start: 2 }),
            Event::new(12, EventKind::Enter { region: r1 }),
            Event::new(12, EventKind::SendPost { peer: 1, tag: 7, bytes: 4096 }),
            Event::new(
                20,
                EventKind::CollectiveEnd {
                    op: CollectiveOp::Allreduce,
                    bytes: 8,
                    root: crate::event::NO_ROOT,
                },
            ),
            Event::new(21, EventKind::Leave { region: r1 }),
            Event::new(30, EventKind::Leave { region: r0 }),
        ];
        let s1 = vec![
            Event::new(5, EventKind::Enter { region: r0 }),
            Event::new(6, EventKind::RecvPost { peer: 0, tag: 7, bytes: 4096 }),
            Event::new(15, EventKind::RecvComplete { peer: 0, tag: 7, bytes: 4096 }),
            Event::new(33, EventKind::Leave { region: r0 }),
        ];
        Trace { defs, streams: vec![s0.into(), s1.into()] }
    }

    #[test]
    fn roundtrip() {
        let t = sample_trace();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.defs, t.defs);
        assert_eq!(back.streams, t.streams);
    }

    /// Both on-disk formats, pinned to literal bytes: a change of the
    /// in-memory event layout must not move a byte of either. Round
    /// trips alone would also pass an encoding that changed but still
    /// agrees with itself.
    #[test]
    fn encodings_are_pinned() {
        const TRACE: [u8; 98] = [
            78, 82, 76, 84, 0, 2, 1, 7, 108, 116, 95, 115, 116, 109, 116, 2, 4, 109, 97, 105, 110,
            0, 13, 77, 80, 73, 95, 65, 108, 108, 114, 101, 100, 117, 99, 101, 1, 1, 2, 0, 0, 0, 1,
            0, 16, 2, 7, 0, 0, 0, 10, 2, 1, 42, 8, 2, 0, 1, 0, 3, 1, 7, 128, 32, 8, 6, 255, 255,
            255, 255, 15, 1, 8, 1, 1, 1, 9, 1, 0, 4, 5, 0, 0, 1, 4, 0, 7, 128, 32, 9, 5, 0, 7, 128,
            32, 18, 1, 0,
        ];
        // A segment file holding location 0's stream as its one chunk:
        // header, chunk, footer, trailer.
        const SEGMENT: [u8; 66] = [
            78, 82, 76, 83, 0, 2, 7, 0, 0, 0, 10, 2, 1, 42, 8, 2, 0, 1, 0, 3, 1, 7, 128, 32, 8, 6,
            255, 255, 255, 255, 15, 1, 8, 1, 1, 1, 9, 1, 0, 1, 0, 6, 33, 7, 0, 30, 0, 0, 0, 0, 0,
            0, 0, 7, 31, 131, 140, 50, 234, 218, 231, 68, 78, 82, 76, 70,
        ];
        let t = sample_trace();
        assert_eq!(encode(&t), TRACE);

        let path = crate::segment::temp_segment_path("test-pinned");
        let mut w = crate::segment::SegmentWriter::create(&path).unwrap();
        w.spill(0, &mut t.streams[0].clone()).unwrap();
        let spilled = w.finish(t.defs.clone(), 1).unwrap();
        assert_eq!(std::fs::read(spilled.path()).unwrap(), SEGMENT);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample_trace());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode(&sample_trace());
        bytes[5] = 99;
        assert!(matches!(decode(&bytes), Err(DecodeError::BadVersion(_))));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&sample_trace());
        for cut in [3, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut reader = Reader::new(&buf);
        for &v in &values {
            assert_eq!(get_varint(&mut reader).unwrap(), v);
        }
        assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn fields_past_u32_are_rejected() {
        let big = u32::MAX as u64 + 1;
        // One Enter whose region (`a`) overflows, one send whose tag
        // (`b`) does: both must fail instead of truncating.
        for row in [vec![0, T_ENTER], vec![0, T_SEND_POST, 0]] {
            let mut buf = row;
            put_varint(&mut buf, big);
            put_varint(&mut buf, 0);
            let mut out = EventStream::new();
            assert_eq!(get_events(&mut Reader::new(&buf), 1, &mut out), Err(DecodeError::Overflow));
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace {
            defs: Definitions {
                regions: std::sync::Arc::new(vec![]),
                locations: std::sync::Arc::new(vec![]),
                threads_per_rank: 1,
                clock: ClockKind::Physical,
            },
            streams: vec![],
        };
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(back.streams.len(), 0);
        assert_eq!(back.defs.clock, ClockKind::Physical);
    }
}
