//! Message matching.
//!
//! MPI guarantees non-overtaking: messages between the same (source,
//! destination, tag) pair match in the order they were posted. The
//! benchmarks use no wildcard receives, so matching is fully
//! deterministic — the property the paper relies on for reproducible
//! logical traces (Section II).

use std::collections::{BTreeMap, VecDeque};

/// Key of a matching queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Message tag.
    pub tag: u32,
}

/// A posted send waiting for its receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostedSend<S> {
    /// Caller-supplied payload (times, ids…).
    pub data: S,
    /// Message size.
    pub bytes: u64,
}

/// A posted receive waiting for its send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostedRecv<R> {
    /// Caller-supplied payload.
    pub data: R,
    /// Expected size.
    pub bytes: u64,
}

/// A matched send/receive pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match<S, R> {
    /// Channel the pair met on.
    pub channel: Channel,
    /// Send side.
    pub send: PostedSend<S>,
    /// Receive side.
    pub recv: PostedRecv<R>,
}

/// Running queue statistics, maintained incrementally on every post and
/// match so current depths are O(1) and high-water marks are exact.
/// The engine reads them through [`Matcher::stats`] for its profiler's
/// queue gauges and high-water marks; they also power the drain checks
/// and replace the old O(channels) pending scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Sends currently waiting for a receive.
    pub queued_sends: u64,
    /// Receives currently waiting for a send.
    pub queued_recvs: u64,
    /// Peak of `queued_sends` over the matcher's lifetime.
    pub hwm_queued_sends: u64,
    /// Peak of `queued_recvs` over the matcher's lifetime.
    pub hwm_queued_recvs: u64,
    /// Peak depth of any single (source, destination, tag) queue.
    pub hwm_channel_depth: u64,
    /// Per-channel queue structures allocated (an allocation-pressure
    /// signal for the hot loop).
    pub queues_created: u64,
    /// Matches made so far.
    pub matched: u64,
}

/// FIFO matcher between posted sends and posted receives.
///
/// Generic over the payloads each side attaches, so the engine can carry
/// timing state and the analyzer can carry event indices through the same
/// algorithm.
#[derive(Debug)]
pub struct Matcher<S, R> {
    sends: BTreeMap<Channel, VecDeque<PostedSend<S>>>,
    recvs: BTreeMap<Channel, VecDeque<PostedRecv<R>>>,
    stats: MatchStats,
}

impl<S, R> Default for Matcher<S, R> {
    fn default() -> Self {
        Matcher { sends: BTreeMap::new(), recvs: BTreeMap::new(), stats: MatchStats::default() }
    }
}

impl<S, R> Matcher<S, R> {
    /// Empty matcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Post a send; returns the match if a receive was already waiting.
    pub fn post_send(&mut self, channel: Channel, bytes: u64, data: S) -> Option<Match<S, R>> {
        if let Some(queue) = self.recvs.get_mut(&channel) {
            if let Some(recv) = queue.pop_front() {
                self.stats.matched += 1;
                self.stats.queued_recvs -= 1;
                return Some(Match { channel, send: PostedSend { data, bytes }, recv });
            }
        }
        let mut created = false;
        let queue = self.sends.entry(channel).or_insert_with(|| {
            created = true;
            VecDeque::new()
        });
        queue.push_back(PostedSend { data, bytes });
        let depth = queue.len() as u64;
        self.stats.queues_created += created as u64;
        self.stats.queued_sends += 1;
        self.stats.hwm_queued_sends = self.stats.hwm_queued_sends.max(self.stats.queued_sends);
        self.stats.hwm_channel_depth = self.stats.hwm_channel_depth.max(depth);
        None
    }

    /// Post a receive; returns the match if a send was already waiting.
    pub fn post_recv(&mut self, channel: Channel, bytes: u64, data: R) -> Option<Match<S, R>> {
        if let Some(queue) = self.sends.get_mut(&channel) {
            if let Some(send) = queue.pop_front() {
                self.stats.matched += 1;
                self.stats.queued_sends -= 1;
                return Some(Match { channel, send, recv: PostedRecv { data, bytes } });
            }
        }
        let mut created = false;
        let queue = self.recvs.entry(channel).or_insert_with(|| {
            created = true;
            VecDeque::new()
        });
        queue.push_back(PostedRecv { data, bytes });
        let depth = queue.len() as u64;
        self.stats.queues_created += created as u64;
        self.stats.queued_recvs += 1;
        self.stats.hwm_queued_recvs = self.stats.hwm_queued_recvs.max(self.stats.queued_recvs);
        self.stats.hwm_channel_depth = self.stats.hwm_channel_depth.max(depth);
        None
    }

    /// Take the "best" pending send addressed to `dst` with `tag`,
    /// regardless of source — wildcard (`MPI_ANY_SOURCE`) matching. The
    /// FIFO front of each eligible channel competes; `score` orders them
    /// (the engine scores by send-post time, so the earliest send wins,
    /// as on a real network). Ties break by channel for determinism
    /// within one run; across runs the winner is timing-dependent, which
    /// is exactly why wildcard programs lose logical-trace repeatability.
    pub fn take_any_send<K: Ord>(
        &mut self,
        dst: u32,
        tag: u32,
        mut score: impl FnMut(&S) -> K,
    ) -> Option<(Channel, PostedSend<S>)> {
        let best = self
            .sends
            .iter()
            .filter(|(ch, q)| ch.dst == dst && ch.tag == tag && !q.is_empty())
            .map(|(ch, q)| (score(&q.front().unwrap().data), ch.src))
            .min()?;
        let channel = Channel { src: best.1, dst, tag };
        let send = self.sends.get_mut(&channel)?.pop_front()?;
        self.stats.matched += 1;
        self.stats.queued_sends -= 1;
        Some((channel, send))
    }

    /// Remove the most recently posted pending send on `channel` (used by
    /// the engine to hand a fresh send to a waiting wildcard receive).
    pub fn take_last_send(&mut self, channel: Channel) -> Option<PostedSend<S>> {
        let send = self.sends.get_mut(&channel)?.pop_back()?;
        self.stats.queued_sends -= 1;
        Some(send)
    }

    /// Running queue statistics (current depths, high-water marks,
    /// queue allocations).
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// Number of sends still waiting.
    pub fn pending_sends(&self) -> usize {
        self.stats.queued_sends as usize
    }

    /// Number of receives still waiting.
    pub fn pending_recvs(&self) -> usize {
        self.stats.queued_recvs as usize
    }

    /// True when nothing is left unmatched — the post-run sanity check
    /// that every message found its partner.
    pub fn is_drained(&self) -> bool {
        self.pending_sends() == 0 && self.pending_recvs() == 0
    }

    /// Describe pending traffic (for deadlock diagnostics).
    pub fn pending_description(&self) -> String {
        let mut parts = Vec::new();
        for (ch, q) in &self.sends {
            if !q.is_empty() {
                parts.push(format!("{} sends {}->{} tag {}", q.len(), ch.src, ch.dst, ch.tag));
            }
        }
        for (ch, q) in &self.recvs {
            if !q.is_empty() {
                parts.push(format!("{} recvs {}->{} tag {}", q.len(), ch.src, ch.dst, ch.tag));
            }
        }
        parts.sort();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH: Channel = Channel { src: 0, dst: 1, tag: 5 };

    #[test]
    fn send_then_recv_matches() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        assert!(m.post_send(CH, 100, 11).is_none());
        let mtch = m.post_recv(CH, 100, 22).expect("must match");
        assert_eq!(mtch.send.data, 11);
        assert_eq!(mtch.recv.data, 22);
        assert!(m.is_drained());
        assert_eq!(m.stats().matched, 1);
    }

    #[test]
    fn recv_then_send_matches() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        assert!(m.post_recv(CH, 100, 22).is_none());
        assert!(m.post_send(CH, 100, 11).is_some());
        assert!(m.is_drained());
    }

    #[test]
    fn fifo_order_is_respected() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        m.post_send(CH, 1, 100);
        m.post_send(CH, 2, 200);
        let first = m.post_recv(CH, 1, 0).unwrap();
        let second = m.post_recv(CH, 2, 0).unwrap();
        assert_eq!(first.send.data, 100);
        assert_eq!(second.send.data, 200);
    }

    #[test]
    fn different_tags_do_not_match() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        m.post_send(Channel { src: 0, dst: 1, tag: 1 }, 8, 0);
        assert!(m.post_recv(Channel { src: 0, dst: 1, tag: 2 }, 8, 0).is_none());
        assert_eq!(m.pending_sends(), 1);
        assert_eq!(m.pending_recvs(), 1);
        assert!(!m.is_drained());
    }

    #[test]
    fn different_peers_do_not_match() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        m.post_send(Channel { src: 0, dst: 1, tag: 0 }, 8, 0);
        assert!(m.post_recv(Channel { src: 2, dst: 1, tag: 0 }, 8, 0).is_none());
    }

    #[test]
    fn stats_track_depths_and_hwms_incrementally() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        m.post_send(CH, 1, 0);
        m.post_send(CH, 1, 1);
        m.post_recv(Channel { src: 3, dst: 0, tag: 9 }, 1, 0);
        let s = m.stats();
        assert_eq!((s.queued_sends, s.queued_recvs), (2, 1));
        assert_eq!((s.hwm_queued_sends, s.hwm_queued_recvs), (2, 1));
        assert_eq!(s.hwm_channel_depth, 2);
        assert_eq!(s.queues_created, 2);
        m.post_recv(CH, 1, 1);
        m.post_recv(CH, 1, 2);
        let s = m.stats();
        assert_eq!((s.queued_sends, s.queued_recvs), (0, 1));
        assert_eq!(s.matched, 2);
        // High-water marks never move down.
        assert_eq!((s.hwm_queued_sends, s.hwm_channel_depth), (2, 2));
        // take_last_send keeps the send count honest.
        let mut m: Matcher<u32, u32> = Matcher::new();
        m.post_send(CH, 1, 7);
        assert!(m.take_last_send(CH).is_some());
        assert_eq!(m.stats().queued_sends, 0);
        assert!(m.is_drained());
    }

    #[test]
    fn pending_description_mentions_channels() {
        let mut m: Matcher<u32, u32> = Matcher::new();
        m.post_send(CH, 8, 0);
        let desc = m.pending_description();
        assert!(desc.contains("0->1"), "{desc}");
        assert!(desc.contains("tag 5"), "{desc}");
    }
}
