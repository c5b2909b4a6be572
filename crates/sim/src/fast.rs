//! Allocation-light fast-path slot engine.
//!
//! Re-implements [`crate::Simulator::run`] with dense data structures and
//! per-run arenas while producing **bit-identical** [`RunResult`]s (and
//! identical errors) — the differential harness in [`crate::diff`] holds
//! the two engines to that contract. The hot-loop replacements:
//!
//! * per-node packet holdings: growable **bitsets** instead of
//!   `HashSet<u64>` (the reference's dominant cost);
//! * the arrival queue: a **ring buffer** indexed by
//!   `arrival_slot % window` instead of a `BTreeMap`, with a per-cell
//!   node bitmask replacing the `HashSet<(slot, node)>` collision guard;
//! * neighbor accounting: sorted adjacency vectors with binary-search
//!   membership instead of per-node `HashSet`s;
//! * all scratch buffers live in a [`FastEngine`] arena that can be
//!   reused across runs of a sweep without reallocating.
//!
//! Determinism notes mirroring the reference engine exactly: deliveries
//! flush in queue order per arrival slot, the final flush walks arrival
//! slots in ascending order, and the loss RNG consumes one draw per
//! validated transmission in validation order (only when
//! `loss_rate > 0`).

use crate::engine::{RunResult, SimConfig};
use crate::playback::ArrivalTable;
use clustream_core::{
    CoreError, NodeId, NodeQos, PacketId, QosReport, Scheme, SeqSet, Slot, StateView, Transmission,
};

/// Sentinel for "no packet yet" in the dense newest-packet array.
const NO_PACKET: u64 = u64::MAX;

/// Dense per-run simulation state exposed to schemes through
/// [`StateView`].
struct FastState {
    held: Vec<SeqSet>,
    /// Highest packet seq held per node; [`NO_PACKET`] = none.
    newest: Vec<u64>,
    slot: Slot,
    availability: clustream_core::Availability,
}

impl StateView for FastState {
    fn holds(&self, node: NodeId, packet: PacketId) -> bool {
        if node.is_source() {
            self.availability.produced(packet, self.slot)
        } else {
            self.held[node.index()].contains(packet.seq())
        }
    }

    fn newest(&self, node: NodeId) -> Option<PacketId> {
        let v = self.newest[node.index()];
        (v != NO_PACKET).then_some(PacketId(v))
    }

    fn slot(&self) -> Slot {
        self.slot
    }
}

/// Ring-buffer arrival queue indexed by `arrival_slot % window`.
///
/// Invariant: `window` strictly exceeds the largest in-flight latency, so
/// at any moment all queued arrival slots map to distinct cells and a
/// cell's contents all share one arrival slot. Each cell carries a node
/// bitmask enforcing the one-arrival-per-node-per-slot constraint.
pub(crate) struct ArrivalRing {
    pub(crate) cells: Vec<Vec<(NodeId, PacketId)>>,
    /// Per-cell receiver bitmask (`n_words` words per cell).
    guards: Vec<u64>,
    pub(crate) window: u64,
    n_words: usize,
}

impl ArrivalRing {
    pub(crate) fn new() -> ArrivalRing {
        ArrivalRing {
            cells: Vec::new(),
            guards: Vec::new(),
            window: 0,
            n_words: 0,
        }
    }

    /// Reset for a run over `n_ids` nodes with an initial window.
    pub(crate) fn reset(&mut self, n_ids: usize) {
        self.n_words = n_ids.div_ceil(64);
        self.window = 64;
        for c in &mut self.cells {
            c.clear();
        }
        self.cells.resize(self.window as usize, Vec::new());
        self.cells.truncate(self.window as usize);
        self.guards.clear();
        self.guards.resize(self.window as usize * self.n_words, 0);
    }

    /// Grow the window so `latency` fits, re-indexing queued arrivals.
    /// Outstanding arrival slots all lie in `[cur_slot, cur_slot + old_window)`,
    /// which makes each old cell's true arrival slot recoverable from its
    /// index.
    #[cold]
    pub(crate) fn grow(&mut self, latency: u64, cur_slot: u64) {
        let new_window = (latency + 1).next_power_of_two().max(self.window * 2);
        let mut cells = vec![Vec::new(); new_window as usize];
        let mut guards = vec![0u64; new_window as usize * self.n_words];
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.is_empty() {
                continue;
            }
            let offset = (i as u64 + self.window - cur_slot % self.window) % self.window;
            let arr = cur_slot + offset;
            let ni = (arr % new_window) as usize;
            for &(to, _) in cell.iter() {
                let w = ni * self.n_words + to.0 as usize / 64;
                guards[w] |= 1 << (to.0 % 64);
            }
            cells[ni] = std::mem::take(cell);
        }
        self.cells = cells;
        self.guards = guards;
        self.window = new_window;
    }

    #[inline]
    pub(crate) fn cell_index(&self, arrival_slot: u64) -> usize {
        (arrival_slot % self.window) as usize
    }

    /// Reserve `(arrival_slot, to)`; `false` on a receive collision.
    #[inline]
    pub(crate) fn try_reserve(&mut self, arrival_slot: u64, to: NodeId) -> bool {
        let idx = self.cell_index(arrival_slot);
        let w = idx * self.n_words + to.0 as usize / 64;
        let mask = 1u64 << (to.0 % 64);
        if self.guards[w] & mask != 0 {
            return false;
        }
        self.guards[w] |= mask;
        true
    }

    /// Whether `(arrival_slot, to)` is currently reserved — a read-only
    /// probe used by the mega engine to detect collisions between
    /// precompiled steady-state sends and ramp-phase in-flight arrivals.
    #[inline]
    pub(crate) fn reserved(&self, arrival_slot: u64, to: NodeId) -> bool {
        let idx = self.cell_index(arrival_slot);
        let w = idx * self.n_words + to.0 as usize / 64;
        self.guards[w] & (1u64 << (to.0 % 64)) != 0
    }

    /// Release the guard bit for one delivered entry.
    #[inline]
    pub(crate) fn release(&mut self, cell_idx: usize, to: NodeId) {
        let w = cell_idx * self.n_words + to.0 as usize / 64;
        self.guards[w] &= !(1u64 << (to.0 % 64));
    }
}

/// Neighbor/traffic accounting over sorted adjacency vectors, producing
/// exactly the same degree and upload numbers as
/// [`crate::metrics::TrafficStats`].
pub(crate) struct DenseTraffic {
    pub(crate) out_nb: Vec<Vec<u32>>,
    pub(crate) in_nb: Vec<Vec<u32>>,
    pub(crate) uploads: Vec<u64>,
    pub(crate) total_transmissions: u64,
    pub(crate) duplicate_deliveries: u64,
}

impl DenseTraffic {
    pub(crate) fn new() -> DenseTraffic {
        DenseTraffic {
            out_nb: Vec::new(),
            in_nb: Vec::new(),
            uploads: Vec::new(),
            total_transmissions: 0,
            duplicate_deliveries: 0,
        }
    }

    pub(crate) fn reset(&mut self, n_ids: usize) {
        for v in &mut self.out_nb {
            v.clear();
        }
        for v in &mut self.in_nb {
            v.clear();
        }
        self.out_nb.resize(n_ids, Vec::new());
        self.out_nb.truncate(n_ids);
        self.in_nb.resize(n_ids, Vec::new());
        self.in_nb.truncate(n_ids);
        self.uploads.clear();
        self.uploads.resize(n_ids, 0);
        self.total_transmissions = 0;
        self.duplicate_deliveries = 0;
    }

    #[inline]
    fn insert_sorted(set: &mut Vec<u32>, id: u32) {
        if let Err(pos) = set.binary_search(&id) {
            set.insert(pos, id);
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, tx: &Transmission) {
        Self::insert_sorted(&mut self.out_nb[tx.from.index()], tx.to.0);
        Self::insert_sorted(&mut self.in_nb[tx.to.index()], tx.from.0);
        self.uploads[tx.from.index()] += 1;
        self.total_transmissions += 1;
    }

    /// Distinct neighbors in either direction: two-pointer merge count
    /// over the sorted adjacency vectors.
    pub(crate) fn degree(&self, node: NodeId) -> usize {
        let (a, b) = (&self.out_nb[node.index()], &self.in_nb[node.index()]);
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            count += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        count + (a.len() - i) + (b.len() - j)
    }
}

/// Reusable fast-engine arena. One instance can run many simulations
/// (e.g. a whole sweep) without re-allocating its internal state.
pub struct FastEngine {
    state: FastState,
    ring: ArrivalRing,
    stats: DenseTraffic,
    send_counts: Vec<u32>,
    touched: Vec<usize>,
    out: Vec<Transmission>,
    batch: Vec<(NodeId, PacketId)>,
}

impl Default for FastEngine {
    fn default() -> Self {
        FastEngine::new()
    }
}

impl FastEngine {
    /// A fresh engine arena.
    pub fn new() -> FastEngine {
        FastEngine {
            state: FastState {
                held: Vec::new(),
                newest: Vec::new(),
                slot: Slot(0),
                availability: clustream_core::Availability::PreRecorded,
            },
            ring: ArrivalRing::new(),
            stats: DenseTraffic::new(),
            send_counts: Vec::new(),
            touched: Vec::new(),
            out: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Run `scheme` under `cfg`. Semantics, results and errors are
    /// bit-identical to [`crate::Simulator::run`]; see the module docs
    /// for what differs underneath.
    pub fn run(
        &mut self,
        scheme: &mut dyn Scheme,
        cfg: &SimConfig,
    ) -> Result<RunResult, CoreError> {
        use clustream_telemetry::names as tm;
        let _run_span = cfg.telemetry.span(tm::ENGINE_RUN);
        let n_ids = scheme.id_space();
        if n_ids == 0 {
            return Err(CoreError::InvalidConfig("empty id space".into()));
        }
        let receivers = scheme.receivers();
        for r in &receivers {
            if r.index() >= n_ids {
                return Err(CoreError::UnknownNode { node: *r });
            }
        }

        // Arena reset.
        for h in &mut self.state.held {
            h.clear();
        }
        self.state.held.resize(n_ids, SeqSet::default());
        self.state.held.truncate(n_ids);
        self.state.newest.clear();
        self.state.newest.resize(n_ids, NO_PACKET);
        self.state.slot = Slot(0);
        self.state.availability = scheme.availability();
        self.ring.reset(n_ids);
        self.stats.reset(n_ids);
        self.send_counts.clear();
        self.send_counts.resize(n_ids, 0);
        self.touched.clear();

        let mut arrivals = ArrivalTable::new(n_ids, cfg.track_packets);

        let is_receiver: Vec<bool> = {
            let mut v = vec![false; n_ids];
            for r in &receivers {
                v[r.index()] = true;
            }
            v
        };
        let mut remaining: u64 = receivers.len() as u64 * cfg.track_packets;

        use rand::{Rng, SeedableRng};
        let mut loss_report = crate::faults::LossReport::default();
        // First cause each (node, packet) copy went missing for; key
        // lookups only (never iterated), so a HashMap stays deterministic.
        let mut taint: std::collections::HashMap<(u32, u64), crate::faults::FaultCause> =
            std::collections::HashMap::new();
        let mut rng = cfg
            .faults
            .as_ref()
            .map(|f| rand_chacha::ChaCha8Rng::seed_from_u64(f.seed));
        let mut trace = cfg.record_trace.then(crate::trace::EventTrace::default);

        let mut slots_run = 0;
        for t in 0..cfg.max_slots {
            self.state.slot = Slot(t);
            slots_run = t + 1;

            // 1. Deliver packets whose arrival slot was t − 1.
            let mut slot_deliveries: u64 = 0;
            if t > 0 {
                let cell_idx = self.ring.cell_index(t - 1);
                if !self.ring.cells[cell_idx].is_empty() {
                    std::mem::swap(&mut self.ring.cells[cell_idx], &mut self.batch);
                    for k in 0..self.batch.len() {
                        let (to, packet) = self.batch[k];
                        self.ring.release(cell_idx, to);
                        // Fail-stopped receivers drop arrivals on the floor.
                        if let Some(f) = &cfg.faults {
                            if f.stopped(to, t - 1) {
                                loss_report.stopped_receives += 1;
                                taint
                                    .entry((to.0, packet.seq()))
                                    .or_insert(crate::faults::FaultCause::Crash);
                                continue;
                            }
                        }
                        if !self.state.held[to.index()].insert(packet.seq()) {
                            self.stats.duplicate_deliveries += 1;
                            continue;
                        }
                        let nw = &mut self.state.newest[to.index()];
                        if *nw == NO_PACKET || packet.seq() > *nw {
                            *nw = packet.seq();
                        }
                        if packet.seq() < cfg.track_packets
                            && is_receiver[to.index()]
                            && arrivals.usable_slot(to, packet).is_none()
                        {
                            remaining -= 1;
                        }
                        arrivals.record(to, packet, Slot(t));
                        slot_deliveries += 1;
                    }
                    self.batch.clear();
                }
            }
            cfg.telemetry
                .counter(tm::ENGINE_DELIVERIES, slot_deliveries);
            cfg.telemetry
                .observe(tm::ENGINE_SLOT_DELIVERIES, slot_deliveries);

            if cfg.stop_when_complete && remaining == 0 {
                break;
            }

            // 2. Ask the scheme for this slot's transmissions.
            self.out.clear();
            let mut out = std::mem::take(&mut self.out);
            scheme.transmissions(Slot(t), &self.state, &mut out);
            self.out = out;

            // 3. Validate and queue.
            for idx in self.touched.drain(..) {
                self.send_counts[idx] = 0;
            }
            for i in 0..self.out.len() {
                let tx = self.out[i];
                if tx.from.index() >= n_ids {
                    return Err(CoreError::UnknownNode { node: tx.from });
                }
                if tx.to.index() >= n_ids {
                    return Err(CoreError::UnknownNode { node: tx.to });
                }
                if tx.latency == 0 {
                    return Err(CoreError::InvalidConfig(format!(
                        "zero-latency transmission {} → {}",
                        tx.from, tx.to
                    )));
                }

                if let Some(f) = &cfg.faults {
                    if f.crashed(tx.from, t) {
                        loss_report.crash_suppressed += 1;
                        taint
                            .entry((tx.to.0, tx.packet.seq()))
                            .or_insert(crate::faults::FaultCause::Crash);
                        continue;
                    }
                }

                if tx.from.is_source() {
                    if !self.state.availability.produced(tx.packet, Slot(t)) {
                        return Err(CoreError::PacketNotProduced {
                            slot: Slot(t),
                            packet: tx.packet,
                        });
                    }
                } else if !self.state.held[tx.from.index()].contains(tx.packet.seq()) {
                    if let Some(f) = &cfg.faults {
                        let cause = taint
                            .get(&(tx.from.0, tx.packet.seq()))
                            .copied()
                            .unwrap_or(crate::faults::default_cause(f));
                        loss_report.propagation_suppressed += 1;
                        match cause {
                            crate::faults::FaultCause::Loss => {
                                loss_report.propagation_from_loss += 1
                            }
                            crate::faults::FaultCause::Crash => {
                                loss_report.propagation_from_crash += 1
                            }
                        }
                        taint.entry((tx.to.0, tx.packet.seq())).or_insert(cause);
                        continue;
                    }
                    return Err(CoreError::PacketNotHeld {
                        node: tx.from,
                        slot: Slot(t),
                        packet: tx.packet,
                    });
                }

                let c = &mut self.send_counts[tx.from.index()];
                if *c == 0 {
                    self.touched.push(tx.from.index());
                }
                *c += 1;
                let cap = scheme.send_capacity(tx.from);
                if *c as usize > cap {
                    return Err(CoreError::SendCapacityExceeded {
                        node: tx.from,
                        slot: Slot(t),
                        capacity: cap,
                    });
                }

                if let (Some(f), Some(r)) = (&cfg.faults, rng.as_mut()) {
                    if f.loss_rate > 0.0 && r.gen_bool(f.loss_rate) {
                        loss_report.lost_in_flight += 1;
                        taint
                            .entry((tx.to.0, tx.packet.seq()))
                            .or_insert(crate::faults::FaultCause::Loss);
                        continue;
                    }
                }

                if tx.latency as u64 + 1 > self.ring.window {
                    self.ring.grow(tx.latency as u64, t);
                }
                let arrival_slot = t + tx.latency as u64 - 1;
                if !self.ring.try_reserve(arrival_slot, tx.to) {
                    let cell = &self.ring.cells[self.ring.cell_index(arrival_slot)];
                    let other = cell
                        .iter()
                        .find(|(to, _)| *to == tx.to)
                        .map(|&(_, p)| p)
                        .unwrap_or(tx.packet);
                    return Err(CoreError::ReceiveCollision {
                        node: tx.to,
                        slot: Slot(arrival_slot),
                        packets: (other, tx.packet),
                    });
                }
                let cell_idx = self.ring.cell_index(arrival_slot);
                self.ring.cells[cell_idx].push((tx.to, tx.packet));
                self.stats.record(&tx);
                if let Some(tr) = trace.as_mut() {
                    tr.push(t, &tx);
                }
            }
        }

        // 4. Flush deliveries completing after the last slot, in ascending
        //    arrival-slot order (mirrors the reference's BTreeMap drain).
        let first_unflushed = slots_run.saturating_sub(1);
        for arrival_slot in first_unflushed..first_unflushed + self.ring.window {
            let cell_idx = self.ring.cell_index(arrival_slot);
            if self.ring.cells[cell_idx].is_empty() {
                continue;
            }
            std::mem::swap(&mut self.ring.cells[cell_idx], &mut self.batch);
            for &(to, packet) in &self.batch {
                if let Some(f) = &cfg.faults {
                    if f.stopped(to, arrival_slot) {
                        loss_report.stopped_receives += 1;
                        continue;
                    }
                }
                arrivals.record(to, packet, Slot(arrival_slot + 1));
            }
            self.batch.clear();
        }

        // 5. Analyse playback per receiver.
        let mut nodes = Vec::with_capacity(receivers.len());
        for r in &receivers {
            let (delay, buffer) = if cfg.faults.is_some() {
                let pb = arrivals.analyze_lossy(*r);
                if pb.missing > 0 {
                    loss_report.missing.push((*r, pb.missing));
                    cfg.telemetry.counter(tm::ENGINE_HICCUPS, 1);
                }
                (pb.playback_delay, pb.max_buffer)
            } else {
                let pb = arrivals.analyze(*r)?;
                (pb.playback_delay, pb.max_buffer)
            };
            cfg.telemetry.observe(tm::ENGINE_PLAYBACK_DELAY, delay);
            cfg.telemetry
                .observe(tm::ENGINE_BUFFER_OCCUPANCY, buffer as u64);
            nodes.push(NodeQos {
                node: *r,
                playback_delay: delay,
                max_buffer: buffer,
                out_neighbors: self.stats.out_nb[r.index()].len(),
                in_neighbors: self.stats.in_nb[r.index()].len(),
                neighbors: self.stats.degree(*r),
            });
        }

        cfg.telemetry.counter(tm::ENGINE_SLOTS, slots_run);
        cfg.telemetry
            .counter(tm::ENGINE_TRANSMISSIONS, self.stats.total_transmissions);

        let resilience = cfg.faults.as_ref().map(|_| {
            crate::resilience::ResilienceMetrics::from_missing(loss_report.total_missing() as u64)
        });
        Ok(RunResult {
            scheme: scheme.name(),
            slots_run,
            arrivals,
            qos: QosReport::new(scheme.name(), nodes),
            total_transmissions: self.stats.total_transmissions,
            duplicate_deliveries: self.stats.duplicate_deliveries,
            loss: cfg.faults.as_ref().map(|_| loss_report),
            trace,
            upload_counts: self.stats.uploads.clone(),
            resilience,
        })
    }
}

/// Stateless façade over [`FastEngine`] matching the
/// [`crate::Simulator`] API shape exactly.
pub struct FastSimulator;

impl FastSimulator {
    /// Run `scheme` under `cfg` on a fresh [`FastEngine`] arena.
    pub fn run(scheme: &mut dyn Scheme, cfg: &SimConfig) -> Result<RunResult, CoreError> {
        FastEngine::new().run(scheme, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_guard_detects_collision() {
        let mut r = ArrivalRing::new();
        r.reset(10);
        assert!(r.try_reserve(5, NodeId(3)));
        assert!(!r.try_reserve(5, NodeId(3)));
        assert!(r.try_reserve(6, NodeId(3)));
        assert!(r.try_reserve(5, NodeId(4)));
        let idx = r.cell_index(5);
        r.release(idx, NodeId(3));
        assert!(r.try_reserve(5, NodeId(3)));
    }

    #[test]
    fn ring_grow_preserves_entries() {
        let mut r = ArrivalRing::new();
        r.reset(10);
        // Queue arrivals at slots 7 and 70 relative to current slot 5.
        assert!(r.try_reserve(7, NodeId(1)));
        let i7 = r.cell_index(7);
        r.cells[i7].push((NodeId(1), PacketId(9)));
        r.grow(100, 5);
        assert!(r.window > 100);
        let i7b = r.cell_index(7);
        assert_eq!(r.cells[i7b], vec![(NodeId(1), PacketId(9))]);
        // Guard moved with the entry.
        assert!(!r.try_reserve(7, NodeId(1)));
        assert!(r.try_reserve(70, NodeId(1)));
    }

    #[test]
    fn dense_traffic_matches_reference_degrees() {
        use crate::metrics::TrafficStats;
        let txs = [
            Transmission::local(NodeId(1), NodeId(2), PacketId(0)),
            Transmission::local(NodeId(1), NodeId(2), PacketId(1)),
            Transmission::local(NodeId(2), NodeId(1), PacketId(0)),
            Transmission::local(NodeId(3), NodeId(1), PacketId(0)),
            Transmission::local(NodeId(1), NodeId(3), PacketId(2)),
        ];
        let mut dense = DenseTraffic::new();
        dense.reset(5);
        let mut reference = TrafficStats::new(5);
        for tx in &txs {
            dense.record(tx);
            reference.record(tx);
        }
        for id in 0..5 {
            let n = NodeId(id);
            assert_eq!(dense.out_nb[n.index()].len(), reference.out_degree(n));
            assert_eq!(dense.in_nb[n.index()].len(), reference.in_degree(n));
            assert_eq!(dense.degree(n), reference.degree(n));
        }
        assert_eq!(dense.uploads, reference.upload_counts());
        assert_eq!(dense.total_transmissions, reference.total_transmissions());
    }
}
