//! Collective operation timing models.
//!
//! Standard algorithmic cost models (dissemination barrier,
//! reduce-scatter/allgather allreduce, pairwise all-to-all). A collective
//! instance completes relative to the *latest* arrival — the source of
//! Scalasca's **Wait at N×N** pattern: every early rank waits from its own
//! arrival until the last participant shows up.

use nrlt_sim::topology::NodeSpec;
use nrlt_trace::CollectiveOp;

/// Communicator scope for picking latency/bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommScope {
    /// All participants on one node.
    IntraNode,
    /// Participants span nodes.
    InterNode,
}

/// Collective timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveModel {
    /// Per-stage software overhead, seconds.
    pub stage_overhead: f64,
    /// Per-rank exit stagger, seconds (ranks do not unblock in the same
    /// instant; the root/low ranks of the tree leave first).
    pub exit_stagger: f64,
}

impl Default for CollectiveModel {
    fn default() -> Self {
        CollectiveModel { stage_overhead: 0.2e-6, exit_stagger: 0.05e-6 }
    }
}

impl CollectiveModel {
    /// Algorithmic duration of the data movement once all ranks arrived,
    /// in seconds, for `n` ranks exchanging `bytes` per rank.
    pub(crate) fn op_cost(
        &self,
        op: CollectiveOp,
        spec: &NodeSpec,
        scope: CommScope,
        n: u32,
        bytes: u64,
    ) -> f64 {
        let (lat, bw) = match scope {
            CommScope::IntraNode => (spec.shm_latency, spec.shm_bandwidth),
            CommScope::InterNode => (spec.net_latency, spec.net_bandwidth),
        };
        if n <= 1 {
            return lat;
        }
        let stages = (n as f64).log2().ceil();
        let b = bytes as f64;
        match op {
            // Dissemination barrier: log2(n) rounds of tiny messages.
            CollectiveOp::Barrier => stages * (lat + self.stage_overhead),
            // Rabenseifner-style: reduce-scatter + allgather, each moving
            // ~b bytes total over log stages.
            CollectiveOp::Allreduce => 2.0 * stages * (lat + self.stage_overhead) + 2.0 * b / bw,
            // Pairwise exchange: n-1 partners, b bytes each way.
            CollectiveOp::Alltoall => {
                (n - 1) as f64 * (lat * 0.5 + self.stage_overhead) + (n - 1) as f64 * b / bw
            }
            // Ring allgather: n-1 steps of b bytes.
            CollectiveOp::Allgather => {
                (n - 1) as f64 * self.stage_overhead + stages * lat + (n - 1) as f64 * b / bw
            }
            // Binomial tree.
            CollectiveOp::Bcast | CollectiveOp::Reduce => {
                stages * (lat + self.stage_overhead + b / bw)
            }
        }
    }

    /// Completion times for every rank, given their arrival times
    /// (seconds). All ranks unblock after the data movement that starts
    /// at the latest arrival, with a small deterministic stagger by rank.
    ///
    /// `noise` multiplies the data-movement part only (network noise does
    /// not bend the participants' own arrival times).
    pub fn completion_times(
        &self,
        op: CollectiveOp,
        spec: &NodeSpec,
        scope: CommScope,
        bytes: u64,
        arrivals: &[f64],
        noise: f64,
    ) -> Vec<f64> {
        let n = arrivals.len() as u32;
        let latest = arrivals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cost = self.op_cost(op, spec, scope, n, bytes) * noise;
        arrivals
            .iter()
            .enumerate()
            .map(|(rank, _)| latest + cost + rank as f64 * self.exit_stagger)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NodeSpec {
        NodeSpec::jureca_dc()
    }

    #[test]
    fn single_rank_collective_is_cheap() {
        let m = CollectiveModel::default();
        let c = m.op_cost(CollectiveOp::Allreduce, &spec(), CommScope::IntraNode, 1, 8);
        assert!(c < 1e-5);
    }

    #[test]
    fn alltoall_scales_linearly_with_ranks() {
        let m = CollectiveModel::default();
        let c8 = m.op_cost(CollectiveOp::Alltoall, &spec(), CommScope::InterNode, 8, 4096);
        let c128 = m.op_cost(CollectiveOp::Alltoall, &spec(), CommScope::InterNode, 128, 4096);
        assert!(c128 > c8 * 10.0, "alltoall must grow ~linearly in ranks");
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let m = CollectiveModel::default();
        let c8 = m.op_cost(CollectiveOp::Allreduce, &spec(), CommScope::InterNode, 8, 8);
        let c128 = m.op_cost(CollectiveOp::Allreduce, &spec(), CommScope::InterNode, 128, 8);
        // log2(128)/log2(8) = 7/3 ≈ 2.3
        assert!(c128 < c8 * 3.0);
        assert!(c128 > c8 * 1.5);
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let m = CollectiveModel::default();
        let intra = m.op_cost(CollectiveOp::Allreduce, &spec(), CommScope::IntraNode, 8, 8);
        let inter = m.op_cost(CollectiveOp::Allreduce, &spec(), CommScope::InterNode, 8, 8);
        assert!(intra < inter);
    }

    #[test]
    fn completion_waits_for_latest() {
        let m = CollectiveModel::default();
        let arrivals = [0.0, 5.0, 1.0];
        let done = m.completion_times(
            CollectiveOp::Allreduce,
            &spec(),
            CommScope::IntraNode,
            8,
            &arrivals,
            1.0,
        );
        for &d in &done {
            assert!(d > 5.0, "no rank may finish before the last arrival");
        }
        // Early ranks waited; the latest rank barely waits.
        assert!(done[0] - arrivals[0] > done[1] - arrivals[1]);
    }

    #[test]
    fn stagger_orders_exits() {
        let m = CollectiveModel::default();
        let done = m.completion_times(
            CollectiveOp::Barrier,
            &spec(),
            CommScope::IntraNode,
            0,
            &[0.0, 0.0, 0.0, 0.0],
            1.0,
        );
        for w in done.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn noise_multiplies_cost_only() {
        let m = CollectiveModel::default();
        let arrivals = [0.0, 10.0];
        let quiet = m.completion_times(
            CollectiveOp::Allreduce,
            &spec(),
            CommScope::InterNode,
            1 << 20,
            &arrivals,
            1.0,
        );
        let noisy = m.completion_times(
            CollectiveOp::Allreduce,
            &spec(),
            CommScope::InterNode,
            1 << 20,
            &arrivals,
            3.0,
        );
        assert!(noisy[0] > quiet[0]);
        // Both still bounded below by the latest arrival.
        assert!(quiet[0] > 10.0 && noisy[0] > 10.0);
    }
}
