//! Randomised-but-deterministic tests: whole-trace files and spill
//! chunks round-trip well-formed traces losslessly, and neither decoder
//! panics on truncated or corrupted input, nor does iterating whatever
//! they accept. A fixed-seed splitmix64 generator
//! replaces proptest so the suite runs with no external dependencies
//! and identical cases on every machine.

use nrlt_trace::segment::decode_chunk;
use nrlt_trace::{
    decode, encode, temp_segment_path, ClockKind, CollectiveOp, Definitions, Event, EventKind,
    EventStream, LocationDef, RegionDef, RegionRef, RegionRole, SegmentWriter, Trace, NO_ROOT,
};

/// Deterministic 64-bit generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn random_kind(g: &mut Gen, n_regions: u32, time: u64) -> EventKind {
    match g.below(7) {
        0 => EventKind::Enter { region: RegionRef(g.below(n_regions as u64) as u32) },
        1 => EventKind::Leave { region: RegionRef(g.below(n_regions as u64) as u32) },
        2 => EventKind::CallBurst {
            region: RegionRef(g.below(n_regions as u64) as u32),
            count: 1 + g.below(1_000_000),
            start: time / 2,
        },
        3 => EventKind::SendPost {
            peer: g.below(16) as u32,
            tag: g.below(100) as u32,
            bytes: g.below(1 << 40),
        },
        4 => EventKind::RecvPost {
            peer: g.below(16) as u32,
            tag: g.below(100) as u32,
            bytes: g.below(1 << 40),
        },
        5 => EventKind::RecvComplete {
            peer: g.below(16) as u32,
            tag: g.below(100) as u32,
            bytes: g.below(1 << 40),
        },
        _ => EventKind::CollectiveEnd {
            op: CollectiveOp::from_u8(g.below(6) as u8).unwrap(),
            bytes: g.below(1 << 30),
            root: NO_ROOT,
        },
    }
}

/// A random well-formed trace: monotone per-stream timestamps, burst
/// starts before their event, valid region references.
fn random_trace(g: &mut Gen) -> Trace {
    let n_regions = 1 + g.below(7) as usize;
    let names = ["main", "MPI_Send", "solve kernel!", "a$b", "x", "omp for", "crunch", "_"];
    let regions: Vec<RegionDef> = (0..n_regions)
        .map(|i| RegionDef {
            name: format!("{}{}", names[i % names.len()], g.below(100)),
            role: RegionRole::from_u8(g.below(10) as u8).unwrap(),
        })
        .collect();
    let tpr = 1 + g.below(3) as u32;
    let ranks = 1 + g.below(3) as u32;
    let locations: Vec<LocationDef> = (0..ranks)
        .flat_map(|r| (0..tpr).map(move |t| LocationDef { rank: r, thread: t, core: r * tpr + t }))
        .collect();
    let streams = (0..locations.len())
        .map(|_| {
            let n_events = g.below(40) as usize;
            let mut t = 0u64;
            (0..n_events)
                .map(|_| {
                    t += g.below(1000);
                    let kind = random_kind(g, n_regions as u32, t);
                    Event { time: t, kind }
                })
                .collect()
        })
        .collect();
    Trace {
        defs: Definitions {
            regions: std::sync::Arc::new(regions),
            locations: std::sync::Arc::new(locations),
            threads_per_rank: tpr,
            clock: if g.below(2) == 0 {
                ClockKind::Physical
            } else {
                ClockKind::Logical { model: "lt_test".into() }
            },
        },
        streams,
    }
}

/// Recompose every event of every stream that decoded `Ok`, so bytes
/// that decode and then panic on iteration fail the test.
fn iterate_all<'a>(streams: impl IntoIterator<Item = &'a EventStream>) {
    for s in streams {
        for ev in s {
            std::hint::black_box(ev);
        }
    }
}

/// The spill chunk of each non-empty stream of `trace`, exactly as
/// `SegmentWriter` writes it to disk.
fn spill_chunks(trace: &Trace) -> Vec<Vec<u8>> {
    let path = temp_segment_path("props");
    let mut w = SegmentWriter::create(&path).unwrap();
    for (loc, s) in trace.streams.iter().enumerate() {
        w.spill(loc as u32, &mut s.clone()).unwrap();
    }
    let spilled = w.finish(trace.defs.clone(), trace.streams.len()).unwrap();
    let file = std::fs::read(&path).unwrap();
    (0..trace.streams.len())
        .flat_map(|loc| spilled.index().chunks(loc).to_vec())
        .map(|c| file[c.offset as usize..(c.offset + c.len) as usize].to_vec())
        .collect()
}

#[test]
fn roundtrip_is_lossless() {
    let mut g = Gen(0xA11CE);
    for case in 0..200 {
        let trace = random_trace(&mut g);
        let bytes = encode(&trace);
        let back = decode(&bytes).unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(back, trace, "case {case} not lossless");
        let non_empty = trace.streams.iter().filter(|s| !s.is_empty());
        for (chunk, s) in spill_chunks(&trace).iter().zip(non_empty) {
            assert_eq!(&decode_chunk(chunk).unwrap(), s, "case {case}: chunk not lossless");
        }
    }
}

#[test]
fn truncation_never_panics() {
    let mut g = Gen(0xB0B);
    for _ in 0..50 {
        let trace = random_trace(&mut g);
        let bytes = encode(&trace);
        for cut in 0..bytes.len() {
            // Must error or produce a different trace, never panic.
            if let Ok(t) = decode(&bytes[..cut]) {
                iterate_all(&t.streams);
            }
        }
        for chunk in spill_chunks(&trace) {
            for cut in 0..chunk.len() {
                if let Ok(s) = decode_chunk(&chunk[..cut]) {
                    iterate_all([&s]);
                }
            }
        }
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    let mut g = Gen(0xC0FFEE);
    for _ in 0..50 {
        let trace = random_trace(&mut g);
        let bytes = encode(&trace);
        let chunks = spill_chunks(&trace);
        for bytes in std::iter::once(&bytes).chain(&chunks) {
            for _ in 0..64 {
                let pos = g.below(bytes.len() as u64) as usize;
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= 1 + g.below(255) as u8;
                // Any Result is fine; panics are not.
                if let Ok(t) = decode(&corrupted) {
                    iterate_all(&t.streams);
                }
                if let Ok(s) = decode_chunk(&corrupted) {
                    iterate_all([&s]);
                }
            }
        }
    }
}
