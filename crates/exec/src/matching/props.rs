//! Property tests: message matching is a FIFO bijection regardless of
//! posting order.

use super::{Channel, Matcher};
use crate::splitmix::Gen;

/// A randomized interleaving of sends and receives on 3 channels,
/// balanced per channel so everything matches eventually.
fn interleaving(g: &mut Gen) -> Vec<(bool, u8)> {
    let len = g.below(80) as usize;
    let mut ops: Vec<(bool, u8)> =
        (0..len).map(|_| (g.next() & 1 == 0, g.below(3) as u8)).collect();
    for ch in 0..3u8 {
        let sends = ops.iter().filter(|&&(s, c)| s && c == ch).count();
        let recvs = ops.iter().filter(|&&(s, c)| !s && c == ch).count();
        for _ in recvs..sends {
            ops.push((false, ch));
        }
        for _ in sends..recvs {
            ops.push((true, ch));
        }
    }
    ops
}

#[test]
fn matching_is_a_fifo_bijection() {
    let mut g = Gen(0x6d70_6973_696d); // "mpisim"
    for _case in 0..300 {
        let ops = interleaving(&mut g);
        let mut m: Matcher<u64, u64> = Matcher::new();
        let mut send_seq = [0u64; 3];
        let mut recv_seq = [0u64; 3];
        let mut matches: Vec<(u8, u64, u64)> = Vec::new();
        for (is_send, ch) in ops {
            let channel = Channel { src: 0, dst: 1, tag: ch as u32 };
            if is_send {
                let id = send_seq[ch as usize];
                send_seq[ch as usize] += 1;
                if let Some(mt) = m.post_send(channel, 8, id) {
                    matches.push((ch, mt.send.data, mt.recv));
                }
            } else {
                let id = recv_seq[ch as usize];
                recv_seq[ch as usize] += 1;
                if let Some(mt) = m.post_recv(channel, id) {
                    matches.push((ch, mt.send.data, mt.recv));
                }
            }
        }
        // Everything matched (the interleaving balances the channels).
        assert!(m.is_drained(), "{}", m.pending_description());
        // FIFO: the k-th send on a channel pairs with the k-th receive.
        for &(_, s, r) in &matches {
            assert_eq!(s, r, "non-FIFO pairing");
        }
        // Bijection: every sequence number appears exactly once per side.
        for ch in 0..3u8 {
            let mut ids: Vec<u64> =
                matches.iter().filter(|&&(c, _, _)| c == ch).map(|&(_, s, _)| s).collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..send_seq[ch as usize]).collect();
            assert_eq!(ids, expect);
        }
    }
}
