//! Wait-state pattern detection (Section III).
//!
//! Matches communication records across locations and computes pattern
//! severities exactly as Scalasca defines them:
//!
//! * **Late Sender** — a receive blocked because the matching send
//!   started later: severity = difference of the `MPI_Send` and
//!   `MPI_Recv`(`/Waitall`) enter timestamps, clipped to the receive
//!   interval.
//! * **Late Receiver** — a rendezvous send blocked until the receive was
//!   posted.
//! * **Wait at N×N** — in all-to-all-style collectives every rank waits
//!   from its own arrival until the last participant arrives.
//! * **Wait at OpenMP barrier** and **barrier overhead** — arrival
//!   spread vs. release cost within a thread team.

use crate::replay::{BarrierRec, LocalReplay};
use nrlt_profile::CallTree;
use nrlt_trace::CollectiveOp;
use std::collections::HashMap;

/// One matched point-to-point message, in analysis terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedMessage {
    /// Sender location index.
    pub send_loc: usize,
    /// Index into the sender's `sends`.
    pub send_idx: usize,
    /// Send post timestamp.
    pub send_ts: u64,
    /// Enter timestamp of the enclosing send call.
    pub send_enter: u64,
    /// Leave timestamp of the enclosing send call.
    pub send_leave: u64,
    /// Sender's MPI instance index.
    pub send_instance: usize,
    /// Receiver location index.
    pub recv_loc: usize,
    /// Receive post timestamp.
    pub recv_post: u64,
    /// Completion timestamp.
    pub complete_ts: u64,
    /// Receiver's MPI instance index (of the completing call).
    pub recv_instance: usize,
    /// Message size.
    pub bytes: u64,
}

/// Match all sends to receive posts/completions, FIFO per
/// (src rank, dst rank, tag). Location indices follow the trace layout
/// (rank-major); only masters communicate.
pub(crate) fn match_messages(locals: &[LocalReplay], threads_per_rank: u32) -> Vec<MatchedMessage> {
    // channel -> (sends, posts, completes)
    type Key = (u32, u32, u32);
    let mut sends: HashMap<Key, Vec<(usize, usize)>> = HashMap::new(); // (loc, idx)
    let mut posts: HashMap<Key, Vec<u64>> = HashMap::new();
    let mut completes: HashMap<Key, Vec<(usize, usize)>> = HashMap::new();
    // Wildcard receive posts (`MPI_ANY_SOURCE`) are tracked per
    // (dst rank, tag): their channel is only known at completion.
    const ANY: u32 = u32::MAX;
    let mut any_posts: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
    for (loc, r) in locals.iter().enumerate() {
        let rank = loc as u32 / threads_per_rank;
        for (i, s) in r.sends.iter().enumerate() {
            sends.entry((rank, s.peer, s.tag)).or_default().push((loc, i));
        }
        for p in &r.recv_posts {
            if p.peer == ANY {
                any_posts.entry((rank, p.tag)).or_default().push(p.ts);
            } else {
                posts.entry((p.peer, rank, p.tag)).or_default().push(p.ts);
            }
        }
        for (i, c) in r.recv_completes.iter().enumerate() {
            completes.entry((c.peer, rank, c.tag)).or_default().push((loc, i));
        }
    }
    let mut out = Vec::new();
    for (key, send_list) in &sends {
        let post_list = posts.get(key).map_or(&[] as &[u64], Vec::as_slice);
        let complete_list = completes.get(key).map_or(&[] as &[(usize, usize)], Vec::as_slice);
        assert_eq!(send_list.len(), complete_list.len(), "unmatched traffic on channel {key:?}");
        for k in 0..send_list.len() {
            let (sl, si) = send_list[k];
            let (rl, ri) = complete_list[k];
            let s = &locals[sl].sends[si];
            let c = &locals[rl].recv_completes[ri];
            let smi = &locals[sl].mpi_instances[s.instance];
            // Completions beyond the channel's specific posts were
            // satisfied by wildcard posts; their exact post time is
            // ambiguous, so fall back to the completing call's entry.
            let recv_post = post_list.get(k).copied().or_else(|| {
                let rank = rl as u32 / threads_per_rank;
                any_posts.get_mut(&(rank, c.tag)).and_then(|q| {
                    if q.is_empty() {
                        None
                    } else {
                        Some(q.remove(0))
                    }
                })
            });
            let recv_post = recv_post.unwrap_or_else(|| locals[rl].mpi_instances[c.instance].enter);
            out.push(MatchedMessage {
                send_loc: sl,
                send_idx: si,
                send_ts: s.ts,
                send_enter: smi.enter,
                send_leave: smi.leave,
                send_instance: s.instance,
                recv_loc: rl,
                recv_post,
                complete_ts: c.ts,
                recv_instance: c.instance,
                bytes: s.bytes,
            });
        }
    }
    // Deterministic order for downstream floating-point accumulation.
    out.sort_by_key(|m| (m.send_loc, m.send_idx));
    out
}

/// Late-sender severity of one receiving MPI instance, given the
/// messages completing inside it: the time from the receive call's enter
/// until the latest late send started, clipped to the instance.
pub(crate) fn late_sender_severity(
    instance_enter: u64,
    instance_leave: u64,
    send_ts: &[u64],
) -> u64 {
    let latest = send_ts.iter().copied().max().unwrap_or(0);
    latest.saturating_sub(instance_enter).min(instance_leave - instance_enter)
}

/// Late-receiver severity of one sending MPI instance: how long the send
/// was blocked waiting for the receive post. Zero for eager sends, whose
/// call returns immediately regardless of the receiver.
pub(crate) fn late_receiver_severity(send_enter: u64, send_leave: u64, recv_post: u64) -> u64 {
    recv_post.saturating_sub(send_enter).min(send_leave - send_enter)
}

/// One collective instance gathered across ranks.
#[derive(Debug, Clone)]
pub struct CollectiveInstance {
    /// Operation.
    pub op: CollectiveOp,
    /// Per participating location: (location index, MPI instance index).
    pub members: Vec<(usize, usize)>,
}

/// Group the collective records of all masters into instances by
/// sequence number. Panics if ranks disagree on the operation order.
pub(crate) fn gather_collectives(
    locals: &[LocalReplay],
    threads_per_rank: u32,
) -> Vec<CollectiveInstance> {
    let masters: Vec<usize> = (0..locals.len()).step_by(threads_per_rank as usize).collect();
    let mut instances: Vec<CollectiveInstance> = Vec::new();
    for &loc in &masters {
        for (idx, mi) in locals[loc].mpi_instances.iter().enumerate() {
            if let Some((op, seq, _)) = mi.collective {
                let seq = seq as usize;
                if instances.len() <= seq {
                    instances
                        .resize_with(seq + 1, || CollectiveInstance { op, members: Vec::new() });
                }
                assert_eq!(instances[seq].op, op, "collective order mismatch at sequence {seq}");
                instances[seq].members.push((loc, idx));
            }
        }
    }
    for (i, inst) in instances.iter().enumerate() {
        assert_eq!(inst.members.len(), masters.len(), "collective {i} is missing participants");
    }
    instances
}

/// Wait-at-N×N severity for one member: time from its own arrival until
/// the last participant arrives, clipped to the instance.
pub(crate) fn wait_nxn_severity(enter: u64, leave: u64, latest_enter: u64) -> u64 {
    latest_enter.saturating_sub(enter).min(leave - enter)
}

/// The barrier instances of one rank's thread team, in (region, k)
/// order: one flat member list, cut into instances by offsets.
#[derive(Debug)]
pub(crate) struct TeamBarriers {
    /// Per instance, per team thread that passed it: (location index,
    /// barrier record index), in team-thread order.
    members: Vec<(usize, usize)>,
    /// Instance `j` is `members[starts[j]..starts[j + 1]]`.
    starts: Vec<usize>,
}

impl TeamBarriers {
    /// The members of each instance, in (region, k) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[(usize, usize)]> {
        self.starts.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

/// Group barrier passages of one rank's team into instances.
///
/// Threads pass the same barriers in the same order (OpenMP semantics),
/// so the k-th passage of a region on each thread belongs together.
pub(crate) fn gather_barriers(
    locals: &[LocalReplay],
    tree: &CallTree,
    rank: u32,
    threads_per_rank: u32,
) -> TeamBarriers {
    let region = |b: &BarrierRec| tree.region(b.path).0 as usize;
    let base = (rank * threads_per_rank) as usize;
    let team = base..base + threads_per_rank as usize;
    // Group by (region, k-th passage of that region) with dense per-region
    // occurrence counters instead of hash maps. Output order is (region,
    // k) ascending and members are in team-thread order — the same order
    // the sorted map-based grouping produced.
    let n_regions = team
        .clone()
        .flat_map(|loc| locals[loc].barriers.iter().map(|b| region(b) + 1))
        .max()
        .unwrap_or(0);
    // Occurrences of each region per thread; the region's instance count
    // is the maximum over threads.
    let mut occ = vec![0u32; n_regions];
    let mut max_occ = vec![0u32; n_regions];
    for loc in team.clone() {
        occ.fill(0);
        for b in &locals[loc].barriers {
            occ[region(b)] += 1;
        }
        for (m, &o) in max_occ.iter_mut().zip(&occ) {
            *m = (*m).max(o);
        }
    }
    // Instance index = region offset + k, (region, k) ascending.
    let mut offsets = vec![0usize; n_regions + 1];
    for r in 0..n_regions {
        offsets[r + 1] = offsets[r] + max_occ[r] as usize;
    }
    let instance_of = |occ: &mut [u32], b: &BarrierRec| {
        let r = region(b);
        occ[r] += 1;
        offsets[r] + occ[r] as usize - 1
    };
    // Counting sort of the passages by instance: count each instance's
    // members, then place them, visiting threads in team order.
    let n_instances = offsets[n_regions];
    let mut starts = vec![0usize; n_instances + 1];
    for loc in team.clone() {
        occ.fill(0);
        for b in &locals[loc].barriers {
            starts[instance_of(&mut occ, b) + 1] += 1;
        }
    }
    for j in 0..n_instances {
        starts[j + 1] += starts[j];
    }
    let mut next = starts.clone();
    let mut members = vec![(0, 0); starts[n_instances]];
    for loc in team {
        occ.fill(0);
        for (i, b) in locals[loc].barriers.iter().enumerate() {
            let j = instance_of(&mut occ, b);
            members[next[j]] = (loc, i);
            next[j] += 1;
        }
    }
    TeamBarriers { members, starts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_sender_clips_to_instance() {
        // Recv entered at 10, left at 100; send started at 60.
        assert_eq!(late_sender_severity(10, 100, &[60]), 50);
        // Send before the recv: no wait.
        assert_eq!(late_sender_severity(10, 100, &[5]), 0);
        // Send after the leave (possible under skewed clocks): clipped.
        assert_eq!(late_sender_severity(10, 100, &[500]), 90);
        // Multiple messages: the latest dominates.
        assert_eq!(late_sender_severity(10, 100, &[20, 70, 40]), 60);
        // No messages: zero.
        assert_eq!(late_sender_severity(10, 100, &[]), 0);
    }

    #[test]
    fn late_receiver_zero_for_fast_sends() {
        // Eager send: returned at 12, recv posted at 50 → clipped to 2.
        assert_eq!(late_receiver_severity(10, 12, 50), 2);
        // Rendezvous: blocked 10..60 for the post at 55.
        assert_eq!(late_receiver_severity(10, 60, 55), 45);
        // Receive posted first: no wait.
        assert_eq!(late_receiver_severity(10, 60, 5), 0);
    }

    #[test]
    fn wait_nxn_latest_arrival() {
        assert_eq!(wait_nxn_severity(10, 100, 70), 60);
        assert_eq!(wait_nxn_severity(70, 100, 70), 0);
        assert_eq!(wait_nxn_severity(10, 40, 70), 30); // clipped
    }

    #[test]
    fn barriers_group_by_region_then_passage_in_team_order() {
        use nrlt_trace::RegionRef;
        // One root path per region 0..6, so path r is region r's.
        let mut tree = CallTree::new();
        let paths: Vec<_> = (0..6).map(|r| tree.intern(None, RegionRef(r))).collect();
        let passes = |regions: &[usize]| LocalReplay {
            barriers: regions
                .iter()
                .map(|&r| BarrierRec { path: paths[r], syncs_before: 0, enter: 0, leave: 1 })
                .collect(),
            ..Default::default()
        };
        // Rank 0 is locations 0..2 and is left alone; rank 1's second
        // thread passes region 2 once more than its first thread.
        let locals = vec![passes(&[5]), passes(&[5]), passes(&[2, 0, 2]), passes(&[2, 0, 2, 2])];
        let groups: Vec<Vec<(usize, usize)>> =
            gather_barriers(&locals, &tree, 1, 2).iter().map(<[_]>::to_vec).collect();
        assert_eq!(
            groups,
            vec![vec![(2, 1), (3, 1)], vec![(2, 0), (3, 0)], vec![(2, 2), (3, 2)], vec![(3, 3)],]
        );
        assert_eq!(gather_barriers(&[LocalReplay::default()], &tree, 0, 1).iter().count(), 0);
    }
}
