//! MPI point-to-point transfer protocols and timing.
//!
//! Small messages use the *eager* protocol: the sender copies the payload
//! out and returns immediately; the data waits at the receiver. Large
//! messages use *rendezvous*: the sender blocks until the receive is
//! posted — the mechanism behind Scalasca's **Late Receiver** pattern,
//! just as an unposted send behind a waiting receive produces **Late
//! Sender**.

use nrlt_sim::topology::NodeSpec;

/// Which fabric a message travels over.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LinkKind {
    /// Both ranks on the same node: shared-memory transport.
    SharedMem,
    /// Different nodes: the interconnect.
    Network,
}

// Typical MPICH/OpenMPI defaults: eager up to 64 KiB over IB.

/// Messages up to this size (bytes) are sent eagerly.
const EAGER_THRESHOLD: u64 = 64 * 1024;

/// Fixed software overhead per send call, seconds.
pub(crate) const SEND_OVERHEAD: f64 = 0.3e-6;

/// Fixed software overhead per receive completion, seconds.
pub(crate) const RECV_OVERHEAD: f64 = 0.3e-6;

/// True if a message of `bytes` uses the eager protocol.
pub(crate) fn is_eager(bytes: u64) -> bool {
    bytes <= EAGER_THRESHOLD
}

/// Wire time for `bytes` over `link`, seconds (latency + bandwidth
/// term). Noise multiplies this externally.
fn transfer_time(spec: &NodeSpec, link: LinkKind, bytes: u64) -> f64 {
    let (lat, bw) = match link {
        LinkKind::SharedMem => (spec.shm_latency, spec.shm_bandwidth),
        LinkKind::Network => (spec.net_latency, spec.net_bandwidth),
    };
    lat + bytes as f64 / bw
}

/// Timing of one matched point-to-point message, computed from the two
/// posting times. All values in seconds of virtual time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct P2pTiming {
    /// When the sender's call returns.
    pub(crate) send_complete: f64,
    /// When the payload is fully available at the receiver. A blocked
    /// receiver resumes at the later of its wait start and this, then
    /// pays [`RECV_OVERHEAD`].
    pub(crate) data_arrival: f64,
}

/// Compute the timing of a matched message.
///
/// * `send_post` — when the send was issued (enter of `MPI_Send`/`Isend`).
/// * `recv_post` — when the receive was posted.
/// * `noise` — multiplicative factor on the wire time (network noise).
pub(crate) fn message_timing(
    spec: &NodeSpec,
    link: LinkKind,
    bytes: u64,
    send_post: f64,
    recv_post: f64,
    noise: f64,
) -> P2pTiming {
    let wire = transfer_time(spec, link, bytes) * noise;
    if is_eager(bytes) {
        // Sender returns after local copy-out; data flows regardless of
        // the receiver.
        let send_complete = send_post + SEND_OVERHEAD;
        let data_arrival = send_post + SEND_OVERHEAD + wire;
        P2pTiming { send_complete, data_arrival }
    } else {
        // Rendezvous: transfer starts only when both sides are ready.
        let handshake = send_post.max(recv_post) + SEND_OVERHEAD;
        let data_arrival = handshake + wire;
        P2pTiming { send_complete: data_arrival, data_arrival }
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
        assert!(is_eager(1024));
        assert!(is_eager(64 * 1024));
        assert!(!is_eager(64 * 1024 + 1));
    }

    #[test]
    fn shared_memory_faster_than_network() {
        let s = spec();
        assert!(
            transfer_time(&s, LinkKind::SharedMem, 4096)
                < transfer_time(&s, LinkKind::Network, 4096)
        );
    }

    #[test]
    fn eager_sender_returns_early() {
        let t = message_timing(&spec(), LinkKind::Network, 1024, 10.0, 100.0, 1.0);
        // Sender is done long before the receiver shows up.
        assert!(t.send_complete < 11.0);
        // The data is already waiting when the receiver posts.
        assert!(t.data_arrival < 100.0);
    }

    #[test]
    fn eager_late_sender_blocks_receiver() {
        // Receiver posted at 0, sender at 50: the data arrives after 50s.
        let t = message_timing(&spec(), LinkKind::Network, 1024, 50.0, 0.0, 1.0);
        assert!(t.data_arrival > 50.0);
    }

    #[test]
    fn rendezvous_sender_blocks_for_receiver() {
        let big = 10 * 1024 * 1024;
        // Send posted at 10, recv at 60: sender cannot finish before 60.
        let t = message_timing(&spec(), LinkKind::Network, big, 10.0, 60.0, 1.0);
        assert!(t.send_complete > 60.0, "late receiver must block the sender");
        assert_eq!(t.send_complete, t.data_arrival);
    }

    #[test]
    fn noise_scales_wire_time() {
        let quiet = message_timing(&spec(), LinkKind::Network, 1 << 20, 0.0, 0.0, 1.0);
        let noisy = message_timing(&spec(), LinkKind::Network, 1 << 20, 0.0, 0.0, 2.0);
        assert!(noisy.data_arrival > quiet.data_arrival);
    }

    #[test]
    fn bigger_messages_take_longer() {
        let s = spec();
        let t1 = transfer_time(&s, LinkKind::Network, 1 << 10);
        let t2 = transfer_time(&s, LinkKind::Network, 1 << 26);
        assert!(t2 > t1 * 100.0);
    }
}
