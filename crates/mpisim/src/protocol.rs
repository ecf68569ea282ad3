//! Point-to-point transfer protocols and timing.
//!
//! Small messages use the *eager* protocol: the sender copies the payload
//! out and returns immediately; the data waits at the receiver. Large
//! messages use *rendezvous*: the sender blocks until the receive is
//! posted — the mechanism behind Scalasca's **Late Receiver** pattern,
//! just as an unposted send behind a waiting receive produces **Late
//! Sender**.

use nrlt_sim::topology::NodeSpec;

/// Which fabric a message travels over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Both ranks on the same node: shared-memory transport.
    SharedMem,
    /// Different nodes: the interconnect.
    Network,
}

/// Point-to-point protocol parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct P2pModel {
    /// Messages up to this size (bytes) are sent eagerly.
    pub eager_threshold: u64,
    /// Fixed software overhead per send call, seconds.
    pub send_overhead: f64,
    /// Fixed software overhead per receive completion, seconds.
    pub recv_overhead: f64,
}

impl Default for P2pModel {
    fn default() -> Self {
        // Typical MPICH/OpenMPI defaults: eager up to 64 KiB over IB.
        P2pModel { eager_threshold: 64 * 1024, send_overhead: 0.3e-6, recv_overhead: 0.3e-6 }
    }
}

impl P2pModel {
    /// True if a message of `bytes` uses the eager protocol.
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_threshold
    }

    /// Wire time for `bytes` over `link`, seconds (latency + bandwidth
    /// term). Noise multiplies this externally.
    pub(crate) fn transfer_time(&self, spec: &NodeSpec, link: LinkKind, bytes: u64) -> f64 {
        let (lat, bw) = match link {
            LinkKind::SharedMem => (spec.shm_latency, spec.shm_bandwidth),
            LinkKind::Network => (spec.net_latency, spec.net_bandwidth),
        };
        lat + bytes as f64 / bw
    }
}

/// Timing of one matched point-to-point message, computed from the two
/// posting times. All values in seconds of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pTiming {
    /// When the sender's call returns.
    pub send_complete: f64,
    /// When the payload is fully available at the receiver.
    pub data_arrival: f64,
    /// When the receiver's completion (recv/wait) can return, given it is
    /// already blocked: `max(recv_post, data_arrival) + recv_overhead`.
    pub recv_complete: f64,
}

/// Compute the timing of a matched message.
///
/// * `send_post` — when the send was issued (enter of `MPI_Send`/`Isend`).
/// * `recv_post` — when the receive was posted.
/// * `noise` — multiplicative factor on the wire time (network noise).
pub fn message_timing(
    model: &P2pModel,
    spec: &NodeSpec,
    link: LinkKind,
    bytes: u64,
    send_post: f64,
    recv_post: f64,
    noise: f64,
) -> P2pTiming {
    let wire = model.transfer_time(spec, link, bytes) * noise;
    if model.is_eager(bytes) {
        // Sender returns after local copy-out; data flows regardless of
        // the receiver.
        let send_complete = send_post + model.send_overhead;
        let data_arrival = send_post + model.send_overhead + wire;
        let recv_complete = recv_post.max(data_arrival) + model.recv_overhead;
        P2pTiming { send_complete, data_arrival, recv_complete }
    } else {
        // Rendezvous: transfer starts only when both sides are ready.
        let handshake = send_post.max(recv_post) + model.send_overhead;
        let data_arrival = handshake + wire;
        P2pTiming {
            send_complete: data_arrival,
            data_arrival,
            recv_complete: data_arrival + model.recv_overhead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NodeSpec {
        NodeSpec::jureca_dc()
    }

    #[test]
    fn eager_threshold_default() {
        let m = P2pModel::default();
        assert!(m.is_eager(1024));
        assert!(m.is_eager(64 * 1024));
        assert!(!m.is_eager(64 * 1024 + 1));
    }

    #[test]
    fn shared_memory_faster_than_network() {
        let m = P2pModel::default();
        let s = spec();
        assert!(
            m.transfer_time(&s, LinkKind::SharedMem, 4096)
                < m.transfer_time(&s, LinkKind::Network, 4096)
        );
    }

    #[test]
    fn eager_sender_returns_early() {
        let m = P2pModel::default();
        let t = message_timing(&m, &spec(), LinkKind::Network, 1024, 10.0, 100.0, 1.0);
        // Sender is done long before the receiver shows up.
        assert!(t.send_complete < 11.0);
        // Receiver completes when it posts (data already waiting).
        assert!(t.recv_complete >= 100.0);
        assert!(t.recv_complete < 100.1);
    }

    #[test]
    fn eager_late_sender_blocks_receiver() {
        let m = P2pModel::default();
        // Receiver posted at 0, sender at 50: receiver waits ~50s.
        let t = message_timing(&m, &spec(), LinkKind::Network, 1024, 50.0, 0.0, 1.0);
        assert!(t.recv_complete > 50.0);
    }

    #[test]
    fn rendezvous_sender_blocks_for_receiver() {
        let m = P2pModel::default();
        let big = 10 * 1024 * 1024;
        // Send posted at 10, recv at 60: sender cannot finish before 60.
        let t = message_timing(&m, &spec(), LinkKind::Network, big, 10.0, 60.0, 1.0);
        assert!(t.send_complete > 60.0, "late receiver must block the sender");
        assert_eq!(t.send_complete, t.data_arrival);
    }

    #[test]
    fn noise_scales_wire_time() {
        let m = P2pModel::default();
        let quiet = message_timing(&m, &spec(), LinkKind::Network, 1 << 20, 0.0, 0.0, 1.0);
        let noisy = message_timing(&m, &spec(), LinkKind::Network, 1 << 20, 0.0, 0.0, 2.0);
        assert!(noisy.data_arrival > quiet.data_arrival);
    }

    #[test]
    fn bigger_messages_take_longer() {
        let m = P2pModel::default();
        let s = spec();
        let t1 = m.transfer_time(&s, LinkKind::Network, 1 << 10);
        let t2 = m.transfer_time(&s, LinkKind::Network, 1 << 26);
        assert!(t2 > t1 * 100.0);
    }
}
