//! Bounded per-node repair buffers.
//!
//! A node can only serve a retransmission for a packet it still holds in
//! its repair buffer — a FIFO window over its most recent arrivals. The
//! bound is the graceful-degradation lever: once a gap packet has aged
//! out of every candidate server's buffer, the requester's retries
//! escalate to the source and, failing that, the packet is abandoned.

use clustream_core::SeqSet;

/// One node's window: a ring of at most `capacity` seqs in arrival
/// order, plus the same contents as a bitset for O(1) membership.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Grows to `capacity`, then wraps: `ring[head]` is the oldest seq.
    ring: Vec<u64>,
    head: usize,
    member: SeqSet,
}

/// FIFO repair buffers, one per node, each bounded to `capacity` packets.
///
/// The membership bitset spans the seqs a node has received, the same
/// space as the engine's own per-node holdings, while the ring stays at
/// `capacity` entries.
#[derive(Debug, Clone)]
pub struct RepairBuffer {
    windows: Vec<Window>,
    capacity: usize,
}

impl RepairBuffer {
    /// Buffers for `n_ids` nodes, each holding at most `capacity`
    /// packets.
    pub fn new(n_ids: usize, capacity: usize) -> Self {
        RepairBuffer {
            windows: vec![Window::default(); n_ids],
            capacity,
        }
    }

    /// Note that `node` received `seq`, evicting the oldest entry when
    /// full. Duplicate arrivals do not reshuffle the window.
    pub fn note(&mut self, node: u32, seq: u64) {
        let w = &mut self.windows[node as usize];
        if self.capacity == 0 || !w.member.insert(seq) {
            return;
        }
        if w.ring.len() < self.capacity {
            w.ring.push(seq);
            return;
        }
        let evicted = std::mem::replace(&mut w.ring[w.head], seq);
        w.member.remove(evicted);
        w.head = if w.head + 1 == self.capacity {
            0
        } else {
            w.head + 1
        };
    }

    /// Whether `node` can still serve `seq` from its repair buffer.
    pub fn contains(&self, node: u32, seq: u64) -> bool {
        self.windows[node as usize].member.contains(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_eviction() {
        let mut b = RepairBuffer::new(3, 2);
        b.note(1, 10);
        b.note(1, 11);
        assert!(b.contains(1, 10));
        b.note(1, 12);
        assert!(!b.contains(1, 10), "oldest evicted");
        assert!(b.contains(1, 11));
        assert!(b.contains(1, 12));
        assert!(!b.contains(2, 11), "per-node isolation");
    }

    #[test]
    fn duplicates_do_not_evict() {
        let mut b = RepairBuffer::new(2, 2);
        b.note(0, 1);
        b.note(0, 2);
        b.note(0, 2);
        assert!(b.contains(0, 1), "duplicate must not push out packet 1");
    }

    #[test]
    fn zero_capacity_serves_nothing() {
        let mut b = RepairBuffer::new(2, 0);
        b.note(0, 1);
        assert!(!b.contains(0, 1));
    }

    #[test]
    fn ring_wraps_in_arrival_order() {
        let mut b = RepairBuffer::new(1, 3);
        for seq in 0..7 {
            b.note(0, seq);
        }
        // 0..4 evicted oldest first; the last three survive the wraps.
        assert!((0..4).all(|s| !b.contains(0, s)));
        assert!((4..7).all(|s| b.contains(0, s)));
        // An evicted seq re-noted is fresh again and evicts the oldest.
        b.note(0, 1);
        assert!(b.contains(0, 1));
        assert!(!b.contains(0, 4));
    }
}
