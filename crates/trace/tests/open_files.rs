//! A spilled trace reads every location through one file handle: a
//! merge over thousands of locations must not open a descriptor per
//! location, or a default `ulimit -n 1024` fails the 10,000-rank sweep
//! with "Too many open files". Its own test binary, so no other test
//! opens files while the descriptors are counted.

#![cfg(target_os = "linux")]

use nrlt_trace::{
    temp_segment_path, ClockKind, Definitions, Event, EventKind, EventStream, LocationDef,
    MergedEvents, RegionDef, RegionRef, RegionRole, SegmentWriter, TraceData,
};

const LOCATIONS: u32 = 2_500;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("list /proc/self/fd").count()
}

#[test]
fn merging_a_spilled_trace_holds_one_descriptor() {
    let defs = Definitions {
        regions: std::sync::Arc::new(vec![RegionDef {
            name: "main".into(),
            role: RegionRole::Function,
        }]),
        locations: std::sync::Arc::new(
            (0..LOCATIONS).map(|r| LocationDef { rank: r, thread: 0, core: r }).collect(),
        ),
        threads_per_rank: 1,
        clock: ClockKind::Physical,
    };
    // Two chunks per location, spilled round-robin as a budget-bound
    // recording would.
    let mut w = SegmentWriter::create(&temp_segment_path("test-fds")).unwrap();
    let mut buf = EventStream::default();
    for half in 0..2u64 {
        for loc in 0..LOCATIONS {
            let region = RegionRef(0);
            let t = 10 * half + u64::from(loc % 7);
            buf.push(Event::new(t, EventKind::Enter { region }));
            buf.push(Event::new(t + 1, EventKind::Leave { region }));
            w.spill(loc, &mut buf).unwrap();
        }
    }
    let trace = TraceData::from(w.finish(defs, LOCATIONS as usize).unwrap());

    let before = open_fds();
    let view = trace.view();
    let mut merged = MergedEvents::new(view.all_events());
    let first = merged.next();
    let during = open_fds();
    assert!(first.is_some());
    assert!(during <= before + 1, "{before} descriptors before the merge, {during} during it");
    assert_eq!(merged.count() + 1, 4 * LOCATIONS as usize);
}
