//! Arrival bookkeeping and playback-delay / buffer-space analysis.
//!
//! A node may receive packets out of order but must play them in order at
//! one packet per slot (§2.2). Given the slot at which each tracked packet
//! became *usable* at a node, the minimal safe playback start is
//!
//! ```text
//! a(i) = max_j ( usable(i, j) − j )
//! ```
//!
//! so that packet `j`, played during slot `a(i) + j`, has always arrived.
//! `a(i)` is the paper's playback delay. The buffer high-water mark is the
//! largest number of packets simultaneously held (arrived, not yet played)
//! when playback starts at `a(i)`.

use clustream_core::{CoreError, NodeId, PacketId, Slot};
use serde::{Deserialize, Serialize};

/// Per-node arrival slots for the first `track_packets` packets.
///
/// `usable_slot(node, packet)` is the first slot in which the node can play
/// or forward the packet (i.e. *send slot + latency*). `None` means the
/// packet never arrived within the simulated horizon.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalTable {
    n_ids: usize,
    track_packets: u64,
    /// `slots[node][packet]`, `u64::MAX` = never arrived.
    slots: Vec<Vec<u64>>,
}

pub(crate) const NEVER: u64 = u64::MAX;

impl ArrivalTable {
    /// An empty table covering `n_ids` node ids and `track_packets` packets.
    pub fn new(n_ids: usize, track_packets: u64) -> Self {
        ArrivalTable {
            n_ids,
            track_packets,
            slots: vec![vec![NEVER; track_packets as usize]; n_ids],
        }
    }

    /// Number of node ids covered.
    pub fn n_ids(&self) -> usize {
        self.n_ids
    }

    /// Number of tracked packets.
    pub fn track_packets(&self) -> u64 {
        self.track_packets
    }

    /// Record that `packet` became usable at `node` from `slot` onward.
    /// Later duplicate deliveries do not overwrite the first arrival.
    pub fn record(&mut self, node: NodeId, packet: PacketId, usable_from: Slot) {
        if packet.seq() >= self.track_packets {
            return;
        }
        let cell = &mut self.slots[node.index()][packet.seq() as usize];
        if *cell == NEVER {
            *cell = usable_from.t();
        }
    }

    /// Mutable borrow of every per-node arrival row, `u64::MAX` meaning
    /// "never arrived". The mega engine's columnar steady-state path
    /// writes first arrivals directly into range-sharded row slices,
    /// bypassing the per-call logic of [`ArrivalTable::record`]; writers
    /// must preserve the first-wins rule themselves.
    pub(crate) fn rows_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.slots
    }

    /// First slot `packet` is usable at `node`, if it ever arrived.
    pub fn usable_slot(&self, node: NodeId, packet: PacketId) -> Option<Slot> {
        let v = self.slots[node.index()][packet.seq() as usize];
        (v != NEVER).then_some(Slot(v))
    }

    /// Whether every tracked packet reached `node`.
    pub fn complete_for(&self, node: NodeId) -> bool {
        self.slots[node.index()].iter().all(|&s| s != NEVER)
    }

    /// Analyse playback for `node` over the tracked window, in O(track)
    /// whatever the arrival slots (see `peak_buffer`).
    ///
    /// Errors with [`CoreError::Hiccup`] if some tracked packet never
    /// arrived (no finite playback start exists within the horizon).
    pub fn analyze(&self, node: NodeId) -> Result<PlaybackAnalysis, CoreError> {
        let row = &self.slots[node.index()];
        // a(i) = max_j (usable(j) − j)
        let mut a: u64 = 0;
        for (j, &s) in row.iter().enumerate() {
            if s == NEVER {
                return Err(CoreError::Hiccup {
                    node,
                    packet: PacketId(j as u64),
                    playback_slot: Slot(NEVER),
                });
            }
            a = a.max(s.saturating_sub(j as u64));
        }
        Ok(PlaybackAnalysis {
            node,
            playback_delay: a,
            max_buffer: peak_buffer(row, a),
        })
    }

    /// Playback analysis tolerating missing packets (fault-injection
    /// runs): the delay is computed over the packets that did arrive, and
    /// the number of tracked packets that never arrived is reported.
    ///
    /// The buffer high-water mark uses the same playback schedule as
    /// [`ArrivalTable::analyze`] — playback starts at `a` and advances one
    /// packet per slot, with missing packets concealed (their slot is
    /// consumed but nothing is buffered for them) — and counts only
    /// packets that actually arrived. On a loss-free table it therefore
    /// equals `analyze(..).max_buffer` exactly.
    pub fn analyze_lossy(&self, node: NodeId) -> crate::faults::LossyPlayback {
        let row = &self.slots[node.index()];
        let mut a = 0u64;
        let mut missing = 0usize;
        for (j, &s) in row.iter().enumerate() {
            if s == NEVER {
                missing += 1;
            } else {
                a = a.max(s.saturating_sub(j as u64));
            }
        }
        crate::faults::LossyPlayback {
            node,
            missing,
            playback_delay: a,
            max_buffer: peak_buffer(row, a),
        }
    }

    /// Check that the tail of the window does not move `a(i)`: computes the
    /// playback delay using only the first half of the window and using the
    /// whole window, returning `true` when they agree. Used by tests and
    /// benches as evidence the tracked window reached steady state.
    pub fn steady_state_for(&self, node: NodeId) -> bool {
        let row = &self.slots[node.index()];
        if row.len() < 4 || row.contains(&NEVER) {
            return false;
        }
        let half = row.len() / 2;
        let a = |r: &[u64]| {
            r.iter()
                .enumerate()
                .map(|(j, &s)| s.saturating_sub(j as u64))
                .max()
                .unwrap_or(0)
        };
        a(&row[..half]) == a(row)
    }
}

/// Buffer high-water mark of `row` (usable slots, [`NEVER`] = missing)
/// when playback starts at `a ≥ max_j(usable(j) − j)` over the arrived
/// packets.
///
/// A packet occupies the buffer from the slot it is *received* (usable
/// slot − 1) until it is played; the peak is measured after the slot's
/// reception and before its playback, matching the paper's §2.3 example
/// where node 1 receives packets 0, 1, 2 in slots 0, 2, 1 and needs a
/// buffer of 3. Occupancy before playing in slot t, over arrived packets:
///
/// ```text
/// B(t) = #{j : recv(j) ≤ t} − #{j : j < t − a}
/// ```
///
/// which on a loss-free row is `#{j : usable(j) ≤ t + 1} − min(t − a,
/// track)` for `t > a`. Packet `j` is usable by `a + j`, so it is received
/// by `max(a + j − 1, 0)`: receive slots after `a` lie in `(a, a + track)`,
/// and for `t ≤ a` nothing has been played yet, so occupancy only grows
/// up to `B(a)`. Counting receive slots into that window and sweeping it
/// once gives the maximum in O(track), whatever the arrival slots are.
fn peak_buffer(row: &[u64], a: u64) -> usize {
    // window[k] = #{arrived j : recv(j) = a + k}, for k in 1..track.
    let mut window = vec![0u32; row.len()];
    let mut held = 0usize;
    for &u in row.iter().filter(|&&u| u != NEVER) {
        let k = u.saturating_sub(1).saturating_sub(a);
        if k == 0 {
            held += 1;
        } else {
            window[k as usize] += 1;
        }
    }
    let mut peak = held;
    let mut played = 0usize;
    for k in 1..row.len() {
        held += window[k] as usize;
        played += usize::from(row[k - 1] != NEVER);
        peak = peak.max(held - played);
    }
    peak
}

/// Result of playback analysis for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaybackAnalysis {
    /// The node analysed.
    pub node: NodeId,
    /// Minimal safe playback start `a(i)` (the playback delay, in slots).
    pub playback_delay: u64,
    /// Buffer high-water mark (packets) when starting at `a(i)`.
    pub max_buffer: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_from(rows: &[&[u64]]) -> ArrivalTable {
        let tp = rows[0].len() as u64;
        let mut t = ArrivalTable::new(rows.len(), tp);
        for (n, row) in rows.iter().enumerate() {
            for (p, &s) in row.iter().enumerate() {
                t.record(NodeId(n as u32), PacketId(p as u64), Slot(s));
            }
        }
        t
    }

    #[test]
    fn in_order_unit_latency_has_delay_one() {
        // Packet j usable at slot j+1 (chain head): a = max(j+1−j) = 1.
        // Buffer peaks at 2: packet j+1 is received during the same slot in
        // which packet j is played.
        let t = table_from(&[&[1, 2, 3, 4, 5, 6]]);
        let a = t.analyze(NodeId(0)).unwrap();
        assert_eq!(a.playback_delay, 1);
        assert_eq!(a.max_buffer, 2);
    }

    #[test]
    fn paper_node1_example_buffer_three() {
        // §2.3: node 1 receives packets 0, 1, 2 in slots 0, 2, 1 — buffer
        // of size 3 is sufficient. Usable slots are receive slot + 1.
        // Extended periodically: packet j+3 usable 3 slots after packet j.
        let t = table_from(&[&[1, 3, 2, 4, 6, 5, 7, 9, 8]]);
        let a = t.analyze(NodeId(0)).unwrap();
        // a = max(1−0, 3−1, 2−2, …) = 2
        assert_eq!(a.playback_delay, 2);
        assert_eq!(a.max_buffer, 3, "paper says a buffer of 3 suffices");
        assert!(t.steady_state_for(NodeId(0)));
    }

    #[test]
    fn out_of_order_arrivals_force_waiting() {
        // Packet 0 arrives last: a = usable(0) = 9.
        let t = table_from(&[&[9, 1, 2, 3, 4]]);
        let a = t.analyze(NodeId(0)).unwrap();
        assert_eq!(a.playback_delay, 9);
        // All 5 packets are in the buffer just before playback starts.
        assert_eq!(a.max_buffer, 5);
    }

    #[test]
    fn missing_packet_is_a_hiccup() {
        let mut t = ArrivalTable::new(1, 3);
        t.record(NodeId(0), PacketId(0), Slot(1));
        t.record(NodeId(0), PacketId(2), Slot(3));
        let err = t.analyze(NodeId(0)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Hiccup {
                packet: PacketId(1),
                ..
            }
        ));
        assert!(!t.complete_for(NodeId(0)));
    }

    #[test]
    fn duplicate_record_keeps_first_arrival() {
        let mut t = ArrivalTable::new(1, 1);
        t.record(NodeId(0), PacketId(0), Slot(4));
        t.record(NodeId(0), PacketId(0), Slot(2));
        assert_eq!(t.usable_slot(NodeId(0), PacketId(0)), Some(Slot(4)));
    }

    #[test]
    fn untracked_packets_are_ignored() {
        let mut t = ArrivalTable::new(1, 2);
        t.record(NodeId(0), PacketId(5), Slot(1));
        assert_eq!(t.track_packets(), 2);
        assert!(t.usable_slot(NodeId(0), PacketId(0)).is_none());
    }

    #[test]
    fn steady_state_detects_drift() {
        // Delay keeps growing (arrival gap widens): not steady.
        let t = table_from(&[&[1, 3, 6, 10, 15, 21, 28, 36]]);
        assert!(!t.steady_state_for(NodeId(0)));
    }

    #[test]
    fn empty_track_window_is_trivial() {
        let t = ArrivalTable::new(2, 0);
        let a = t.analyze(NodeId(1)).unwrap();
        assert_eq!(a.playback_delay, 0);
        assert_eq!(a.max_buffer, 0);
    }
}
