//! Trace definitions: the global tables an event stream refers to.
//!
//! This mirrors OTF2's split between *definitions* (regions, locations,
//! clock properties — written once) and *events* (the per-location
//! streams). Keeping the trace format self-describing lets the analyzer
//! work on traces alone, without access to the program that produced them.

use std::sync::Arc;

/// Index into [`Definitions::regions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionRef(pub u32);

/// Index into [`Definitions::locations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocationRef(pub u32);

/// Role of a region — the trace-level analogue of OTF2 region roles,
/// driving Scalasca's paradigm split (computation / MPI / OpenMP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RegionRole {
    /// Ordinary user function: computation.
    Function = 0,
    /// MPI API call.
    MpiApi = 1,
    /// OpenMP parallel construct.
    OmpParallel = 2,
    /// OpenMP worksharing loop body.
    OmpLoop = 3,
    /// Implicit barrier at the end of a worksharing construct.
    OmpImplicitBarrier = 4,
    /// Explicit OpenMP barrier.
    OmpBarrier = 5,
    /// OpenMP critical section.
    OmpCritical = 6,
    /// OpenMP `single` construct.
    OmpSingle = 7,
    /// OpenMP `master` construct.
    OmpMaster = 8,
    /// Thread fork/join management.
    OmpFork = 9,
}

impl RegionRole {
    /// Decode from the wire byte.
    pub fn from_u8(v: u8) -> Option<RegionRole> {
        Some(match v {
            0 => RegionRole::Function,
            1 => RegionRole::MpiApi,
            2 => RegionRole::OmpParallel,
            3 => RegionRole::OmpLoop,
            4 => RegionRole::OmpImplicitBarrier,
            5 => RegionRole::OmpBarrier,
            6 => RegionRole::OmpCritical,
            7 => RegionRole::OmpSingle,
            8 => RegionRole::OmpMaster,
            9 => RegionRole::OmpFork,
            _ => return None,
        })
    }
}

/// One region definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDef {
    /// Display name.
    pub name: String,
    /// Role classification.
    pub role: RegionRole,
}

/// One location definition: a thread of a rank, pinned to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationDef {
    /// MPI rank.
    pub rank: u32,
    /// OpenMP thread within the rank.
    pub thread: u32,
    /// Machine-global core index the location is pinned to.
    pub core: u32,
}

/// Which clock produced the timestamps in this trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClockKind {
    /// Physical timestamps in virtual nanoseconds (the simulated `tsc`).
    Physical,
    /// Logical timestamps from a Lamport clock with the named effort
    /// model (`lt_1`, `lt_loop`, `lt_bb`, `lt_stmt`, `lt_hwctr`).
    Logical {
        /// Effort-model name.
        model: String,
    },
}

impl ClockKind {
    /// Short display name (`tsc` for the physical clock).
    pub fn name(&self) -> &str {
        match self {
            ClockKind::Physical => "tsc",
            ClockKind::Logical { model } => model,
        }
    }
}

/// All definition tables of one trace.
///
/// The region and location tables are behind [`Arc`]s: a measurement
/// sweep builds them once per configuration and every trace/profile of
/// the sweep shares them, so cloning a `Definitions` (or handing the
/// tables to a [`crate::Trace`] consumer) is a reference-count bump, not
/// a table copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Definitions {
    /// Region table; [`RegionRef`] indexes into it.
    pub regions: Arc<Vec<RegionDef>>,
    /// Location table; [`LocationRef`] indexes into it. Sorted by
    /// (rank, thread), dense.
    pub locations: Arc<Vec<LocationDef>>,
    /// Threads per rank (uniform in this simulator).
    pub threads_per_rank: u32,
    /// Clock that produced the timestamps.
    pub clock: ClockKind,
}

impl Definitions {
    /// Number of ranks.
    pub fn n_ranks(&self) -> u32 {
        if self.locations.is_empty() {
            0
        } else {
            self.locations.len() as u32 / self.threads_per_rank
        }
    }

    /// Definition behind a region reference.
    pub fn region(&self, r: RegionRef) -> &RegionDef {
        &self.regions[r.0 as usize]
    }

    /// Look up a region by name.
    pub fn find_region(&self, name: &str) -> Option<RegionRef> {
        self.regions.iter().position(|r| r.name == name).map(|i| RegionRef(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Definitions {
        Definitions {
            regions: Arc::new(vec![
                RegionDef { name: "main".into(), role: RegionRole::Function },
                RegionDef { name: "MPI_Send".into(), role: RegionRole::MpiApi },
            ]),
            locations: Arc::new(vec![
                LocationDef { rank: 0, thread: 0, core: 0 },
                LocationDef { rank: 0, thread: 1, core: 1 },
                LocationDef { rank: 1, thread: 0, core: 16 },
                LocationDef { rank: 1, thread: 1, core: 17 },
            ]),
            threads_per_rank: 2,
            clock: ClockKind::Physical,
        }
    }

    #[test]
    fn location_ref_math() {
        let d = sample();
        assert_eq!(d.n_ranks(), 2);
    }

    #[test]
    fn region_lookup() {
        let d = sample();
        assert_eq!(d.find_region("MPI_Send"), Some(RegionRef(1)));
        assert_eq!(d.find_region("nope"), None);
        assert_eq!(d.region(RegionRef(0)).name, "main");
    }

    #[test]
    fn role_roundtrip() {
        for v in 0..=9u8 {
            let role = RegionRole::from_u8(v).unwrap();
            assert_eq!(role as u8, v);
        }
        assert_eq!(RegionRole::from_u8(10), None);
    }

    #[test]
    fn clock_names() {
        assert_eq!(ClockKind::Physical.name(), "tsc");
        assert_eq!(ClockKind::Logical { model: "lt_bb".into() }.name(), "lt_bb");
    }
}
