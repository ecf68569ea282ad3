//! Placement of MPI ranks and OpenMP threads onto cores.
//!
//! The job layout (ranks × threads) plus a pinning policy determine which
//! core every location runs on, and hence which NUMA domain's bandwidth and
//! which socket's cache it competes for. The paper's LULESH-2 experiment is
//! entirely about this mapping: 27 ranks spread over 8 NUMA domains leave
//! three domains fully occupied and five partially occupied.

use crate::topology::{CoreId, Machine, NumaId, SocketId};

/// Identifies one execution location: an OpenMP thread of an MPI rank.
///
/// Matches Score-P's location model, where every thread of every rank is a
/// separate location with its own event stream and its own logical clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// MPI rank.
    pub rank: u32,
    /// OpenMP thread within the rank (0 = master).
    pub thread: u32,
}

impl Location {
    /// Location of a rank's master thread.
    pub fn master(rank: u32) -> Self {
        Location { rank, thread: 0 }
    }
}

/// How ranks are distributed over a node's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinPolicy {
    /// Ranks fill cores sequentially: rank r occupies cores
    /// `[r·tpr, (r+1)·tpr)` of its node. This is the usual
    /// `--cpu-bind=cores` block placement.
    Block,
    /// Ranks are dealt round-robin onto NUMA domains, each rank's threads
    /// staying within one domain where possible. This reproduces the
    /// LULESH-2 situation (27 ranks on 8 domains → occupancies 4,4,4,3,…).
    SpreadNuma,
}

/// The shape of a job: how many ranks, threads per rank, and how they pin.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLayout {
    /// Number of MPI ranks.
    pub ranks: u32,
    /// OpenMP threads per rank (uniform, as in the paper's experiments).
    pub threads_per_rank: u32,
    /// Pinning policy.
    pub policy: PinPolicy,
}

impl JobLayout {
    /// Block-pinned layout.
    pub fn block(ranks: u32, threads_per_rank: u32) -> Self {
        JobLayout { ranks, threads_per_rank, policy: PinPolicy::Block }
    }

    /// NUMA-spread layout.
    pub fn spread(ranks: u32, threads_per_rank: u32) -> Self {
        JobLayout { ranks, threads_per_rank, policy: PinPolicy::SpreadNuma }
    }

    /// Total locations (ranks × threads).
    pub fn locations(&self) -> u32 {
        self.ranks * self.threads_per_rank
    }

    /// Dense index of a location, row-major by rank.
    pub fn location_index(&self, loc: Location) -> usize {
        debug_assert!(loc.rank < self.ranks && loc.thread < self.threads_per_rank);
        (loc.rank * self.threads_per_rank + loc.thread) as usize
    }

    /// Iterate all locations in dense order.
    pub fn iter_locations(&self) -> impl Iterator<Item = Location> + '_ {
        (0..self.ranks).flat_map(move |rank| {
            (0..self.threads_per_rank).map(move |thread| Location { rank, thread })
        })
    }
}

/// The computed mapping of every location to a core, with occupancy
/// summaries used by the contention model.
#[derive(Debug, Clone)]
pub struct Placement {
    machine: Machine,
    layout: JobLayout,
    /// Core of each location, indexed by `layout.location_index`.
    cores: Vec<CoreId>,
    /// Number of job threads placed on each NUMA domain.
    numa_occupancy: Vec<u32>,
    /// Number of job threads placed on each socket.
    socket_occupancy: Vec<u32>,
}

impl Placement {
    /// Compute the placement of `layout` on `machine`.
    ///
    /// Panics if the job needs more cores than a node provides per node
    /// (the simulator does not model oversubscription).
    pub fn new(machine: Machine, layout: JobLayout) -> Self {
        let cpn = machine.spec.cores_per_node();
        let tpr = layout.threads_per_rank;
        assert!(tpr >= 1, "threads_per_rank must be >= 1");
        let ranks_per_node = (cpn / tpr).max(1);
        let cores = match layout.policy {
            PinPolicy::Block => Self::place_block(&machine, &layout, ranks_per_node),
            PinPolicy::SpreadNuma => Self::place_spread(&machine, &layout, ranks_per_node),
        };
        let mut numa_occupancy = vec![0u32; machine.total_numa() as usize];
        let mut socket_occupancy = vec![0u32; (machine.nodes * machine.spec.sockets) as usize];
        for &core in &cores {
            numa_occupancy[machine.numa_of(core).0 as usize] += 1;
            socket_occupancy[machine.socket_of(core).0 as usize] += 1;
        }
        Placement { machine, layout, cores, numa_occupancy, socket_occupancy }
    }

    fn place_block(machine: &Machine, layout: &JobLayout, ranks_per_node: u32) -> Vec<CoreId> {
        let cpn = machine.spec.cores_per_node();
        let mut cores = Vec::with_capacity(layout.locations() as usize);
        for rank in 0..layout.ranks {
            let node = rank / ranks_per_node;
            assert!(node < machine.nodes, "job does not fit the allocation");
            let base = node * cpn + (rank % ranks_per_node) * layout.threads_per_rank;
            for thread in 0..layout.threads_per_rank {
                cores.push(CoreId(base + thread));
            }
        }
        cores
    }

    fn place_spread(machine: &Machine, layout: &JobLayout, ranks_per_node: u32) -> Vec<CoreId> {
        let spec = &machine.spec;
        let domains_per_node = spec.numa_per_node();
        let ranks_per_domain_cap = (spec.cores_per_numa / layout.threads_per_rank).max(1);
        // Deal ranks round-robin over this node's domains; each domain holds
        // a slot list of rank-local offsets.
        let mut cores = vec![CoreId(0); layout.locations() as usize];
        let mut node_start = 0u32;
        while node_start < layout.ranks {
            let node = node_start / ranks_per_node;
            assert!(node < machine.nodes, "job does not fit the allocation");
            let node_ranks = ranks_per_node.min(layout.ranks - node_start);
            let mut fill = vec![0u32; domains_per_node as usize];
            for local in 0..node_ranks {
                let rank = node_start + local;
                // Round-robin over domains, skipping full ones.
                let mut d = local % domains_per_node;
                let mut tried = 0;
                while fill[d as usize] >= ranks_per_domain_cap {
                    d = (d + 1) % domains_per_node;
                    tried += 1;
                    assert!(tried <= domains_per_node, "spread placement overflow");
                }
                let slot = fill[d as usize];
                fill[d as usize] += 1;
                let base = node * spec.cores_per_node()
                    + d * spec.cores_per_numa
                    + slot * layout.threads_per_rank;
                for thread in 0..layout.threads_per_rank {
                    cores[(rank * layout.threads_per_rank + thread) as usize] =
                        CoreId(base + thread);
                }
            }
            node_start += node_ranks;
        }
        cores
    }

    /// The machine this placement lives on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The job layout.
    pub fn layout(&self) -> &JobLayout {
        &self.layout
    }

    /// Core of a location.
    pub fn core_of(&self, loc: Location) -> CoreId {
        self.cores[self.layout.location_index(loc)]
    }

    /// NUMA domain of a location.
    pub fn numa_of(&self, loc: Location) -> NumaId {
        self.machine.numa_of(self.core_of(loc))
    }

    /// Socket of a location.
    pub fn socket_of(&self, loc: Location) -> SocketId {
        self.machine.socket_of(self.core_of(loc))
    }

    /// Number of job threads pinned to the given NUMA domain.
    pub fn numa_occupancy(&self, numa: NumaId) -> u32 {
        self.numa_occupancy[numa.0 as usize]
    }

    /// Number of job threads pinned to the given socket.
    pub fn socket_occupancy(&self, socket: SocketId) -> u32 {
        self.socket_occupancy[socket.0 as usize]
    }

    /// Whether two locations can communicate through shared memory.
    pub fn same_node(&self, a: Location, b: Location) -> bool {
        self.machine.same_node(self.core_of(a), self.core_of(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_minife2() {
        // MiniFE-2: 8 ranks × 16 threads on one node → one rank per domain.
        let p = Placement::new(Machine::jureca_dc(1), JobLayout::block(8, 16));
        for rank in 0..8 {
            assert_eq!(p.numa_of(Location::master(rank)), NumaId(rank));
        }
        for d in 0..8 {
            assert_eq!(p.numa_occupancy(NumaId(d)), 16);
        }
    }

    #[test]
    fn block_placement_two_nodes_lulesh1() {
        // LULESH-1: 64 ranks × 4 threads on two nodes.
        let p = Placement::new(Machine::jureca_dc(2), JobLayout::block(64, 4));
        assert_eq!(p.machine().nodes, 2);
        // 32 ranks per node; rank 32 starts node 1.
        assert!(p.core_of(Location::master(31)).0 < 128);
        assert!(p.core_of(Location::master(32)).0 >= 128);
        // Every domain holds 4 ranks × 4 threads = 16 threads.
        for d in 0..16 {
            assert_eq!(p.numa_occupancy(NumaId(d)), 16);
        }
    }

    #[test]
    fn spread_placement_lulesh2() {
        // LULESH-2: 27 ranks × 4 threads spread on one node.
        let p = Placement::new(Machine::jureca_dc(1), JobLayout::spread(27, 4));
        let mut full = 0;
        let mut partial = 0;
        for d in 0..8 {
            match p.numa_occupancy(NumaId(d)) {
                16 => full += 1,
                12 => partial += 1,
                occ => panic!("unexpected occupancy {occ}"),
            }
        }
        assert_eq!(full, 3, "three domains fully occupied");
        assert_eq!(partial, 5, "five domains partially occupied");
    }

    #[test]
    fn tealeaf2_socket_occupancy() {
        // TeaLeaf-2: 2 ranks × 64 threads → one rank per socket.
        let p = Placement::new(Machine::jureca_dc(1), JobLayout::block(2, 64));
        assert_eq!(p.socket_of(Location::master(0)), SocketId(0));
        assert_eq!(p.socket_of(Location::master(1)), SocketId(1));
        assert_eq!(p.socket_occupancy(SocketId(0)), 64);
        assert_eq!(p.socket_occupancy(SocketId(1)), 64);
    }

    #[test]
    fn location_index_roundtrip() {
        let layout = JobLayout::block(5, 3);
        for (i, loc) in layout.iter_locations().enumerate() {
            assert_eq!(layout.location_index(loc), i);
        }
        assert_eq!(layout.locations(), 15);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_job_rejected() {
        Placement::new(Machine::jureca_dc(1), JobLayout::block(256, 4));
    }

    #[test]
    fn same_node_communication() {
        let p = Placement::new(Machine::jureca_dc(2), JobLayout::block(64, 4));
        assert!(p.same_node(Location::master(0), Location::master(31)));
        assert!(!p.same_node(Location::master(0), Location::master(32)));
    }
}
