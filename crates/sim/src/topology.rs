//! Machine topology: nodes, sockets, NUMA domains, cores.
//!
//! The topology model carries exactly the structure the paper's findings
//! depend on: per-NUMA-domain memory bandwidth (contention between threads
//! sharing a domain), per-socket last-level cache (working sets that fit
//! until the measurement system pollutes the cache), and an interconnect
//! between nodes.

/// Index of a core within the whole machine (all nodes flattened).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

/// Index of a NUMA domain within the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NumaId(pub u32);

/// Index of a socket within the whole machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u32);

/// Index of a node within the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Shape and speeds of one compute node.
///
/// All nodes of a [`Machine`] are identical, as on a homogeneous cluster
/// partition.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Sockets per node.
    pub sockets: u32,
    /// NUMA domains per socket.
    pub numa_per_socket: u32,
    /// Cores per NUMA domain.
    pub cores_per_numa: u32,
    /// Core clock frequency in Hz.
    pub core_freq_hz: f64,
    /// Sustained instructions per cycle for scalar-ish HPC code.
    pub ipc: f64,
    /// Sustained DRAM bandwidth of one NUMA domain, bytes/s.
    pub numa_bandwidth: f64,
    /// Last-level (L3) cache capacity per socket, bytes.
    pub l3_per_socket: u64,
    /// Aggregate L3 bandwidth per socket, bytes/s (shared by its cores).
    pub l3_bandwidth: f64,
    /// Inter-node network latency, seconds.
    pub net_latency: f64,
    /// Inter-node network bandwidth, bytes/s.
    pub net_bandwidth: f64,
    /// Intra-node (shared-memory) message latency, seconds.
    pub shm_latency: f64,
    /// Intra-node message bandwidth, bytes/s.
    pub shm_bandwidth: f64,
}

impl NodeSpec {
    /// The standard Jureca-DC node used throughout the paper:
    /// 2 × AMD EPYC 7742 (64 cores each), 8 NUMA domains of 16 cores,
    /// DDR4-3200, 256 MB L3 per socket, InfiniBand HDR100.
    pub fn jureca_dc() -> Self {
        NodeSpec {
            sockets: 2,
            numa_per_socket: 4,
            cores_per_numa: 16,
            core_freq_hz: 2.25e9,
            ipc: 2.0,
            // ~8 DDR4-3200 channels per socket ≈ 205 GB/s; one domain ≈ 1/4.
            numa_bandwidth: 48.0e9,
            // EPYC 7742: 16 CCX × 16 MB = 256 MB per socket.
            l3_per_socket: 256 * 1024 * 1024,
            l3_bandwidth: 900.0e9,
            // HDR100: ~1 us MPI latency, ~12 GB/s effective.
            net_latency: 1.2e-6,
            net_bandwidth: 12.0e9,
            shm_latency: 0.3e-6,
            shm_bandwidth: 20.0e9,
        }
    }

    /// A dual-socket Intel Xeon Platinum 8168 ("Skylake") node as found
    /// in many contemporary clusters: 2 × 24 cores, one NUMA domain per
    /// socket, 33 MB L3 per socket, 100 Gb/s fabric. Useful for studying
    /// how the effort models' accuracy depends on the machine balance
    /// (fewer, larger NUMA domains; far less cache than the EPYC).
    pub fn skylake() -> Self {
        NodeSpec {
            sockets: 2,
            numa_per_socket: 1,
            cores_per_numa: 24,
            core_freq_hz: 2.7e9,
            ipc: 2.2,
            numa_bandwidth: 105.0e9,
            l3_per_socket: 33 * 1024 * 1024,
            l3_bandwidth: 500.0e9,
            net_latency: 1.5e-6,
            net_bandwidth: 10.0e9,
            shm_latency: 0.25e-6,
            shm_bandwidth: 18.0e9,
        }
    }

    /// Cores per socket.
    pub(crate) fn cores_per_socket(&self) -> u32 {
        self.numa_per_socket * self.cores_per_numa
    }

    /// Cores per node.
    pub(crate) fn cores_per_node(&self) -> u32 {
        self.sockets * self.cores_per_socket()
    }

    /// NUMA domains per node.
    pub(crate) fn numa_per_node(&self) -> u32 {
        self.sockets * self.numa_per_socket
    }

    /// Time to retire `instructions` on one core, in seconds.
    pub fn cpu_time(&self, instructions: u64) -> f64 {
        instructions as f64 / (self.core_freq_hz * self.ipc)
    }
}

/// A cluster allocation: `nodes` identical nodes described by `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// Per-node shape and speeds.
    pub spec: NodeSpec,
    /// Number of allocated nodes.
    pub nodes: u32,
}

impl Machine {
    /// Allocate `nodes` nodes of the given spec.
    pub fn new(spec: NodeSpec, nodes: u32) -> Self {
        assert!(nodes > 0, "a machine needs at least one node");
        Machine { spec, nodes }
    }

    /// Jureca-DC allocation with `nodes` standard nodes.
    pub fn jureca_dc(nodes: u32) -> Self {
        Machine::new(NodeSpec::jureca_dc(), nodes)
    }

    /// Total NUMA domains in the allocation.
    pub fn total_numa(&self) -> u32 {
        self.nodes * self.spec.numa_per_node()
    }

    /// The node a core belongs to.
    pub(crate) fn node_of(&self, core: CoreId) -> NodeId {
        NodeId(core.0 / self.spec.cores_per_node())
    }

    /// The socket a core belongs to (machine-global index).
    pub(crate) fn socket_of(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.spec.cores_per_socket())
    }

    /// The NUMA domain a core belongs to (machine-global index).
    pub(crate) fn numa_of(&self, core: CoreId) -> NumaId {
        NumaId(core.0 / self.spec.cores_per_numa)
    }

    /// Whether two cores are on the same node (shared-memory reachable).
    pub(crate) fn same_node(&self, a: CoreId, b: CoreId) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jureca_shape() {
        let m = Machine::jureca_dc(2);
        assert_eq!(m.spec.cores_per_node(), 128);
        assert_eq!(m.spec.numa_per_node(), 8);
        assert_eq!(m.nodes, 2);
        assert_eq!(m.total_numa(), 16);
    }

    #[test]
    fn core_mapping() {
        let m = Machine::jureca_dc(2);
        // Core 0 is node 0, socket 0, numa 0.
        assert_eq!(m.node_of(CoreId(0)), NodeId(0));
        assert_eq!(m.numa_of(CoreId(0)), NumaId(0));
        // Core 16 starts the second NUMA domain.
        assert_eq!(m.numa_of(CoreId(16)), NumaId(1));
        assert_eq!(m.socket_of(CoreId(16)), SocketId(0));
        // Core 64 starts the second socket.
        assert_eq!(m.socket_of(CoreId(64)), SocketId(1));
        assert_eq!(m.numa_of(CoreId(64)), NumaId(4));
        // Core 128 starts the second node.
        assert_eq!(m.node_of(CoreId(128)), NodeId(1));
        assert_eq!(m.socket_of(CoreId(128)), SocketId(2));
        assert_eq!(m.numa_of(CoreId(128)), NumaId(8));
    }

    #[test]
    fn same_node_predicate() {
        let m = Machine::jureca_dc(2);
        assert!(m.same_node(CoreId(0), CoreId(127)));
        assert!(!m.same_node(CoreId(0), CoreId(128)));
    }

    #[test]
    fn skylake_shape() {
        let s = NodeSpec::skylake();
        assert_eq!(s.cores_per_node(), 48);
        assert_eq!(s.numa_per_node(), 2);
    }

    #[test]
    fn cpu_time_scales_with_instructions() {
        let s = NodeSpec::jureca_dc();
        let t1 = s.cpu_time(1_000_000);
        let t2 = s.cpu_time(2_000_000);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        Machine::new(NodeSpec::jureca_dc(), 0);
    }
}
