//! Sharded spill segments — the out-of-core trace store.
//!
//! The resident [`Trace`](crate::Trace) keeps every event of every
//! location in memory, which caps experiments at the host's RAM
//! (~33 bytes/event across the six SoA columns). This module spills an
//! [`EventStream`] to an append-only segment file in fixed-capacity
//! **chunks** so recording and analysis both run in
//! O(locations × chunk) memory instead of O(events).
//!
//! ## File layout
//!
//! ```text
//! +--------+----------+----------+----     ----+------------+---------+
//! | header | chunk 0  | chunk 1  |    ...      |   footer   | trailer |
//! | NRLS,v | loc A    | loc B    |             | chunk index| len,sum |
//! +--------+----------+----------+----     ----+------------+---------+
//! ```
//!
//! * **header** — magic `NRLS` + big-endian `u16` version.
//! * **chunk** — ≤ `chunk_events` events of one location: a varint
//!   event count, then one row per event in the event encoding the
//!   whole-trace format uses too (`io::put_events`: time delta, tag
//!   byte, the columns that tag uses). Chunks of different locations
//!   interleave in spill order; chunks of one location appear in time
//!   order.
//! * **footer** — varint chunk count, then one record per chunk:
//!   location, byte offset, byte length, event count, first and last
//!   timestamp. This is the whole index — a reader seeks straight to
//!   any chunk of any location.
//! * **trailer** — fixed 20 bytes: big-endian `u64` footer length,
//!   big-endian `u64` FNV-1a checksum of the footer bytes, magic
//!   `NRLF`. Readers locate the footer from the end of the file and
//!   reject truncated or corrupt indexes before touching any chunk.
//!
//! Definition tables are *not* stored here: they stay Arc-shared in
//! memory ([`Definitions`]) exactly as on the resident path, so a
//! spilled trace is `(defs, segment file)`.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::defs::Definitions;
use crate::event::Event;
use crate::io::{get_events, get_varint, put_events, put_varint, Reader};
use crate::stream::EventStream;

/// Magic bytes at the start of every segment file.
pub const SEG_MAGIC: &[u8; 4] = b"NRLS";
/// Magic bytes ending the trailer (last 4 bytes of the file).
pub const FOOTER_MAGIC: &[u8; 4] = b"NRLF";
/// Current segment format version.
pub const SEG_VERSION: u16 = 2;
/// Byte size of the fixed trailer (footer length + checksum + magic).
const TRAILER_LEN: u64 = 20;

/// A failure opening or decoding a segment file.
#[derive(Debug)]
pub enum SegmentError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The header or footer bytes are malformed.
    Format(crate::DecodeError),
    /// The footer checksum did not match (corrupt or truncated index).
    BadChecksum,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment i/o: {e}"),
            SegmentError::Format(e) => write!(f, "segment format: {e}"),
            SegmentError::BadChecksum => write!(f, "segment footer checksum mismatch"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> SegmentError {
        SegmentError::Io(e)
    }
}

impl From<crate::DecodeError> for SegmentError {
    fn from(e: crate::DecodeError) -> SegmentError {
        SegmentError::Format(e)
    }
}

/// FNV-1a over the footer bytes — cheap, dependency-free, and enough
/// to catch the truncation/bit-rot cases the tests exercise.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Index record for one chunk: where it lives and what it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Location the chunk belongs to.
    pub loc: u32,
    /// Byte offset of the chunk in the segment file.
    pub offset: u64,
    /// Encoded byte length of the chunk.
    pub len: u64,
    /// Number of events in the chunk.
    pub n_events: u64,
    /// Timestamp of the first event.
    pub first_time: u64,
    /// Timestamp of the last event.
    pub last_time: u64,
}

/// Aggregate spill statistics, for the engineprof gauges and KPIs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Chunks written so far.
    pub chunks: u64,
    /// Encoded bytes written (excluding header/footer).
    pub bytes: u64,
    /// Events spilled.
    pub events: u64,
}

/// Appends event chunks to a segment file.
///
/// The writer owns a scratch encode buffer reused across chunks; a
/// [`spill`](SegmentWriter::spill) encodes one location's resident
/// events, appends them, and clears the stream in place so recording
/// continues into the same allocations.
pub struct SegmentWriter {
    file: BufWriter<File>,
    pos: u64,
    chunks: Vec<ChunkMeta>,
    scratch: Vec<u8>,
    stats: SpillStats,
}

impl SegmentWriter {
    /// Create a segment file at `path`, truncating any existing file.
    pub fn create(path: &Path) -> Result<SegmentWriter, SegmentError> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(SEG_MAGIC)?;
        file.write_all(&SEG_VERSION.to_be_bytes())?;
        Ok(SegmentWriter {
            file,
            pos: 6,
            chunks: Vec::new(),
            scratch: Vec::new(),
            stats: SpillStats::default(),
        })
    }

    /// Encode and append `stream` as one chunk of location `loc`, then
    /// clear the stream (keeping its allocations). Empty streams spill
    /// to nothing.
    pub fn spill(&mut self, loc: u32, stream: &mut EventStream) -> Result<(), SegmentError> {
        if stream.is_empty() {
            return Ok(());
        }
        let n = stream.len();
        self.scratch.clear();
        put_varint(&mut self.scratch, n as u64);
        put_events(&mut self.scratch, stream);
        let meta = ChunkMeta {
            loc,
            offset: self.pos,
            len: self.scratch.len() as u64,
            n_events: n as u64,
            first_time: stream.time(0),
            last_time: stream.time(n - 1),
        };
        self.file.write_all(&self.scratch)?;
        self.pos += meta.len;
        self.chunks.push(meta);
        self.stats.chunks += 1;
        self.stats.bytes += meta.len;
        self.stats.events += n as u64;
        stream.clear();
        Ok(())
    }

    /// Spill statistics so far.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }

    /// Write the footer and trailer and flush. Returns the chunk index.
    pub fn finish(mut self) -> Result<SegmentIndex, SegmentError> {
        self.scratch.clear();
        put_varint(&mut self.scratch, self.chunks.len() as u64);
        for c in &self.chunks {
            put_varint(&mut self.scratch, c.loc as u64);
            put_varint(&mut self.scratch, c.offset);
            put_varint(&mut self.scratch, c.len);
            put_varint(&mut self.scratch, c.n_events);
            put_varint(&mut self.scratch, c.first_time);
            put_varint(&mut self.scratch, c.last_time);
        }
        let sum = fnv1a(&self.scratch);
        self.file.write_all(&self.scratch)?;
        self.file.write_all(&(self.scratch.len() as u64).to_be_bytes())?;
        self.file.write_all(&sum.to_be_bytes())?;
        self.file.write_all(FOOTER_MAGIC)?;
        self.file.flush()?;
        Ok(SegmentIndex::from_chunks(self.chunks))
    }
}

/// The decoded chunk index of a segment file, grouped per location.
#[derive(Debug, Clone, Default)]
pub struct SegmentIndex {
    per_loc: Vec<Vec<ChunkMeta>>,
    total_events: u64,
}

impl SegmentIndex {
    fn from_chunks(chunks: Vec<ChunkMeta>) -> SegmentIndex {
        let n_locs = chunks.iter().map(|c| c.loc as usize + 1).max().unwrap_or(0);
        let mut per_loc = vec![Vec::new(); n_locs];
        let mut total_events = 0;
        // Append order within a location is time order (a location's
        // chunks are spilled as its stream fills).
        for c in chunks {
            total_events += c.n_events;
            per_loc[c.loc as usize].push(c);
        }
        SegmentIndex { per_loc, total_events }
    }

    /// Read and validate the index of the segment file at `path`:
    /// header magic/version, trailer magic, footer checksum. Rejects
    /// truncated and corrupt files without reading any chunk.
    pub fn load(path: &Path) -> Result<SegmentIndex, SegmentError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 6 + TRAILER_LEN {
            return Err(crate::DecodeError::Truncated.into());
        }
        let mut header = [0u8; 6];
        file.read_exact(&mut header)?;
        if &header[..4] != SEG_MAGIC {
            return Err(crate::DecodeError::BadMagic.into());
        }
        let version = u16::from_be_bytes([header[4], header[5]]);
        if version != SEG_VERSION {
            return Err(crate::DecodeError::BadVersion(version).into());
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
        file.read_exact(&mut trailer)?;
        if &trailer[16..20] != FOOTER_MAGIC {
            return Err(crate::DecodeError::BadMagic.into());
        }
        let footer_len = u64::from_be_bytes(trailer[0..8].try_into().expect("fixed slice"));
        let want_sum = u64::from_be_bytes(trailer[8..16].try_into().expect("fixed slice"));
        if footer_len > file_len - 6 - TRAILER_LEN {
            return Err(crate::DecodeError::Truncated.into());
        }
        let footer_off = file_len - TRAILER_LEN - footer_len;
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_off))?;
        file.read_exact(&mut footer)?;
        if fnv1a(&footer) != want_sum {
            return Err(SegmentError::BadChecksum);
        }
        let mut r = Reader::new(&footer);
        let n_chunks = get_varint(&mut r)? as usize;
        // Untrusted length: bound the pre-allocation.
        let mut chunks = Vec::with_capacity(n_chunks.min(1 << 16));
        for _ in 0..n_chunks {
            chunks.push(ChunkMeta {
                loc: get_varint(&mut r)? as u32,
                offset: get_varint(&mut r)?,
                len: get_varint(&mut r)?,
                n_events: get_varint(&mut r)?,
                first_time: get_varint(&mut r)?,
                last_time: get_varint(&mut r)?,
            });
        }
        Ok(SegmentIndex::from_chunks(chunks))
    }

    /// Number of locations with at least one indexed chunk slot.
    pub fn n_locations(&self) -> usize {
        self.per_loc.len()
    }

    /// Total events across all chunks.
    pub(crate) fn total_events(&self) -> u64 {
        self.total_events
    }

    /// The chunk records of one location, in time order.
    pub fn chunks(&self, loc: usize) -> &[ChunkMeta] {
        self.per_loc.get(loc).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Decode one chunk's bytes back into an [`EventStream`].
pub fn decode_chunk(data: &[u8]) -> Result<EventStream, crate::DecodeError> {
    let mut r = Reader::new(data);
    let n = get_varint(&mut r)? as usize;
    let out = get_events(&mut r, n)?;
    if r.remaining() != 0 {
        return Err(crate::DecodeError::Truncated);
    }
    Ok(out)
}

static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A collision-free path for a fresh spill file under the system temp
/// directory: unique per process and per call.
pub fn temp_segment_path(tag: &str) -> PathBuf {
    let seq = SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("nrlt-{}-{}-{}.seg", tag, std::process::id(), seq))
}

/// A trace whose events live in a segment file: Arc-shared definition
/// tables in memory, event chunks on disk. The file is deleted when
/// the value drops.
#[derive(Debug)]
pub struct SpilledTrace {
    /// Definition tables (identical to the resident path's).
    pub defs: Definitions,
    path: PathBuf,
    index: SegmentIndex,
    n_locations: usize,
}

impl SpilledTrace {
    /// Assemble a spilled trace from a finished writer's parts.
    ///
    /// `n_locations` is the trace's location count (the index alone
    /// cannot know it: trailing locations may have recorded nothing).
    pub fn from_parts(
        defs: Definitions,
        path: PathBuf,
        index: SegmentIndex,
        n_locations: usize,
    ) -> SpilledTrace {
        SpilledTrace { defs, path, index, n_locations }
    }

    /// Open and validate an existing segment file.
    pub fn open(defs: Definitions, path: PathBuf) -> Result<SpilledTrace, SegmentError> {
        let index = SegmentIndex::load(&path)?;
        let n_locations = defs.locations.len();
        Ok(SpilledTrace { defs, path, index, n_locations })
    }

    /// Number of locations (= streams on the resident path).
    pub(crate) fn n_locations(&self) -> usize {
        self.n_locations
    }

    /// Total events in the segment file.
    pub(crate) fn total_events(&self) -> usize {
        self.index.total_events() as usize
    }

    /// The chunk index.
    pub fn index(&self) -> &SegmentIndex {
        &self.index
    }

    /// Path of the backing segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A streaming cursor over one location's events, decoded chunk by
    /// chunk into a bounded scratch buffer.
    pub(crate) fn cursor(&self, loc: usize) -> Result<SegmentCursor, SegmentError> {
        Ok(SegmentCursor {
            file: File::open(&self.path)?,
            chunks: self.index.chunks(loc).to_vec(),
            next_chunk: 0,
            buf: EventStream::new(),
            raw: Vec::new(),
            idx: 0,
        })
    }
}

impl Drop for SpilledTrace {
    fn drop(&mut self) {
        // Best effort: a leaked temp file is not worth a panic.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Streaming iterator over one location's spilled events.
///
/// Holds one decoded chunk at a time, so memory stays bounded by the
/// chunk capacity regardless of how many events the location recorded.
pub struct SegmentCursor {
    file: File,
    chunks: Vec<ChunkMeta>,
    next_chunk: usize,
    buf: EventStream,
    raw: Vec<u8>,
    idx: usize,
}

impl SegmentCursor {
    fn load_next_chunk(&mut self) -> bool {
        while self.next_chunk < self.chunks.len() {
            let meta = self.chunks[self.next_chunk];
            self.next_chunk += 1;
            self.raw.resize(meta.len as usize, 0);
            // The index was validated at open and the chunks were
            // written by this process (or validated on load): a failure
            // here is a torn file mid-run, which we surface loudly.
            self.file.seek(SeekFrom::Start(meta.offset)).expect("segment seek");
            self.file.read_exact(&mut self.raw).expect("segment chunk read");
            self.buf = decode_chunk(&self.raw).expect("segment chunk decode");
            self.idx = 0;
            if !self.buf.is_empty() {
                return true;
            }
        }
        false
    }
}

impl Iterator for SegmentCursor {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if self.idx >= self.buf.len() && !self.load_next_chunk() {
            return None;
        }
        let ev = self.buf.get(self.idx);
        self.idx += 1;
        Some(ev)
    }
}

/// K-way merge over per-location event iterators, yielding
/// `(location, event)` in global `(time, location)` order.
///
/// At most one event per location is buffered in the heap, so the
/// merge's working set is O(locations) however large the trace. The
/// peak heap occupancy is tracked for the engineprof gauges.
pub struct MergedEvents<I> {
    sources: Vec<I>,
    heap: BinaryHeap<HeapItem>,
    max_occupancy: usize,
}

struct HeapItem {
    time: u64,
    loc: u32,
    ev: Event,
}

// Min-heap on (time, loc) via reversed Ord. Only one item per location
// is ever enqueued, so the (time, loc) key is unique and the order
// total and deterministic.
impl PartialEq for HeapItem {
    fn eq(&self, other: &HeapItem) -> bool {
        (self.time, self.loc) == (other.time, other.loc)
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &HeapItem) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &HeapItem) -> std::cmp::Ordering {
        (other.time, other.loc).cmp(&(self.time, self.loc))
    }
}

impl<I: Iterator<Item = Event>> MergedEvents<I> {
    /// Build a merge over one iterator per location (index = location).
    pub fn new(sources: Vec<I>) -> MergedEvents<I> {
        let mut m = MergedEvents {
            heap: BinaryHeap::with_capacity(sources.len()),
            sources,
            max_occupancy: 0,
        };
        for loc in 0..m.sources.len() {
            m.refill(loc as u32);
        }
        m.max_occupancy = m.heap.len();
        m
    }

    fn refill(&mut self, loc: u32) {
        if let Some(ev) = self.sources[loc as usize].next() {
            self.heap.push(HeapItem { time: ev.time, loc, ev });
        }
    }

    /// Largest number of simultaneously buffered events observed.
    pub fn max_heap_occupancy(&self) -> usize {
        self.max_occupancy
    }
}

impl<I: Iterator<Item = Event>> Iterator for MergedEvents<I> {
    type Item = (u32, Event);

    fn next(&mut self) -> Option<(u32, Event)> {
        let item = self.heap.pop()?;
        self.refill(item.loc);
        self.max_occupancy = self.max_occupancy.max(self.heap.len());
        Some((item.loc, item.ev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defs::RegionRef;
    use crate::event::{CollectiveOp, EventKind, NO_ROOT};

    /// Deterministic generator (same idiom as the other property tests
    /// in this workspace — splitmix64, no external crates).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn random_event(rng: &mut SplitMix64, t: u64) -> Event {
        let kind = match rng.next() % 7 {
            0 => EventKind::Enter { region: RegionRef((rng.next() % 64) as u32) },
            1 => EventKind::Leave { region: RegionRef((rng.next() % 64) as u32) },
            2 => EventKind::CallBurst {
                region: RegionRef((rng.next() % 64) as u32),
                count: rng.next() % 1000,
                start: t.saturating_sub(rng.next() % 50),
            },
            3 => EventKind::SendPost {
                peer: (rng.next() % 16) as u32,
                tag: (rng.next() % 8) as u32,
                bytes: rng.next() % (1 << 20),
            },
            4 => EventKind::RecvPost {
                peer: (rng.next() % 16) as u32,
                tag: (rng.next() % 8) as u32,
                bytes: rng.next() % (1 << 20),
            },
            5 => EventKind::RecvComplete {
                peer: (rng.next() % 16) as u32,
                tag: (rng.next() % 8) as u32,
                bytes: rng.next() % (1 << 20),
            },
            _ => EventKind::CollectiveEnd {
                op: CollectiveOp::from_u8((rng.next() % 4) as u8).unwrap_or(CollectiveOp::Barrier),
                bytes: rng.next() % (1 << 16),
                root: if rng.next().is_multiple_of(2) { NO_ROOT } else { (rng.next() % 16) as u32 },
            },
        };
        Event::new(t, kind)
    }

    fn random_stream(rng: &mut SplitMix64, n: usize) -> Vec<Event> {
        let mut t = rng.next() % 100;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(random_event(rng, t));
            t += rng.next() % 5; // non-decreasing, frequent ties
        }
        out
    }

    #[test]
    fn chunk_roundtrip_property() {
        let mut rng = SplitMix64(0x5eed);
        for case in 0..50 {
            let n = (case % 17 + 1) * 7;
            let events = random_stream(&mut rng, n);
            let mut s: EventStream = events.clone().into();
            let path = temp_segment_path("test-roundtrip");
            let mut w = SegmentWriter::create(&path).unwrap();
            w.spill(0, &mut s).unwrap();
            assert!(s.is_empty(), "spill clears the stream");
            let index = w.finish().unwrap();
            assert_eq!(index.total_events(), n as u64);
            let spilled = SpilledTrace::from_parts(
                Definitions {
                    regions: std::sync::Arc::new(vec![]),
                    locations: std::sync::Arc::new(vec![]),
                    threads_per_rank: 1,
                    clock: crate::ClockKind::Physical,
                },
                path,
                index,
                1,
            );
            let back: Vec<Event> = spilled.cursor(0).unwrap().collect();
            assert_eq!(back, events, "case {case}");
        }
    }

    #[test]
    fn multi_chunk_multi_location_roundtrip() {
        let mut rng = SplitMix64(42);
        let per_loc: Vec<Vec<Event>> = (0..3).map(|_| random_stream(&mut rng, 100)).collect();
        let path = temp_segment_path("test-multi");
        let mut w = SegmentWriter::create(&path).unwrap();
        // Interleave chunks of different locations, 10 events at a time.
        let mut buf = EventStream::new();
        for start in (0..100).step_by(10) {
            for (loc, evs) in per_loc.iter().enumerate() {
                for ev in &evs[start..start + 10] {
                    buf.push(*ev);
                }
                w.spill(loc as u32, &mut buf).unwrap();
            }
        }
        assert_eq!(w.stats().chunks, 30);
        assert_eq!(w.stats().events, 300);
        let index = w.finish().unwrap();
        // Reload the index from disk and compare to the in-memory one.
        let loaded = SegmentIndex::load(&path).unwrap();
        assert_eq!(loaded.total_events(), index.total_events());
        for loc in 0..3 {
            assert_eq!(loaded.chunks(loc), index.chunks(loc));
        }
        let spilled = SpilledTrace::from_parts(
            Definitions {
                regions: std::sync::Arc::new(vec![]),
                locations: std::sync::Arc::new(vec![]),
                threads_per_rank: 1,
                clock: crate::ClockKind::Physical,
            },
            path,
            index,
            3,
        );
        for (loc, evs) in per_loc.iter().enumerate() {
            let back: Vec<Event> = spilled.cursor(loc).unwrap().collect();
            assert_eq!(&back, evs, "location {loc}");
        }
    }

    fn tiny_segment() -> (PathBuf, Vec<Event>) {
        let mut rng = SplitMix64(7);
        let events = random_stream(&mut rng, 20);
        let mut s: EventStream = events.clone().into();
        let path = temp_segment_path("test-corrupt");
        let mut w = SegmentWriter::create(&path).unwrap();
        w.spill(0, &mut s).unwrap();
        w.finish().unwrap();
        (path, events)
    }

    #[test]
    fn undefined_collective_op_is_rejected() {
        // One CollectiveEnd (tag 6) at time 5 with root 0, op 99, 8 bytes.
        let bytes = [1, 5, 6, 0, 99, 8, 0];
        assert!(matches!(decode_chunk(&bytes), Err(crate::DecodeError::BadTag(_))));
    }

    #[test]
    fn truncated_file_rejected() {
        let (path, _) = tiny_segment();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [0, 5, 10, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(SegmentIndex::load(&path).is_err(), "cut at {cut} must fail");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_footer_rejected() {
        let (path, _) = tiny_segment();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the footer (between the chunks and the
        // trailer); the checksum must catch it.
        let idx = bytes.len() - TRAILER_LEN as usize - 1;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(SegmentIndex::load(&path), Err(SegmentError::BadChecksum)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_rejected() {
        let (path, _) = tiny_segment();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentIndex::load(&path),
            Err(SegmentError::Format(crate::DecodeError::BadMagic))
        ));
        // Corrupt trailer magic too.
        let n = bytes.len();
        bytes[0] = b'N';
        bytes[n - 1] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(SegmentIndex::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn spilled_trace_deletes_file_on_drop() {
        let (path, _) = tiny_segment();
        assert!(path.exists());
        {
            let _t = SpilledTrace::open(
                Definitions {
                    regions: std::sync::Arc::new(vec![]),
                    locations: std::sync::Arc::new(vec![]),
                    threads_per_rank: 1,
                    clock: crate::ClockKind::Physical,
                },
                path.clone(),
            )
            .unwrap();
            assert_eq!(_t.total_events(), 20);
        }
        assert!(!path.exists());
    }

    #[test]
    fn merge_orders_by_time_then_location() {
        let a = vec![
            Event::new(1, EventKind::Enter { region: RegionRef(0) }),
            Event::new(5, EventKind::Leave { region: RegionRef(0) }),
        ];
        let b = vec![
            Event::new(1, EventKind::Enter { region: RegionRef(1) }),
            Event::new(3, EventKind::Leave { region: RegionRef(1) }),
        ];
        let mut merged = MergedEvents::new(vec![a.into_iter(), b.into_iter()]);
        let order: Vec<(u32, u64)> = merged.by_ref().map(|(loc, ev)| (loc, ev.time)).collect();
        assert_eq!(order, vec![(0, 1), (1, 1), (1, 3), (0, 5)]);
        assert_eq!(merged.max_heap_occupancy(), 2);
    }
}
