//! The strict-mode event loop's receive-capacity guard.
//!
//! The engine's other hot containers (the packet bitset and the fast
//! hasher) are shared with the recovery layer and the slot engines, so
//! they live in [`clustream_core::collections`].

/// The strict-mode receive-capacity guard: at most one pending arrival
/// per `(arrival slot, node)`.
///
/// Replaces a `HashMap<(u64, u32), PacketId>`, which spent most of the
/// DES hot loop churning tombstones — every slot inserts and removes one
/// entry per transmission, so the map rehashed continuously. The ring
/// exploits two monotonicity facts instead:
///
/// * arrival slots never repeat — a send from playback slot `t` targets
///   an arrival slot `≥ t`, and `t` has already passed every slot whose
///   deliveries fired — so an entry never needs removal: a stale cell
///   can never match a live query's slot;
/// * pending arrivals span at most the largest in-flight latency, so a
///   ring of `width >` that span never aliases two live entries.
///
/// Cells are keyed by their exact slot, making overwrite-on-stale safe,
/// and the ring grows (re-seating live cells, no hashing anywhere) when
/// a latency outgrows the current width.
#[derive(Debug)]
pub struct ArrivalRing {
    /// `width × n_ids` cells, slot-major: `(slot, packet)`, slot
    /// `u64::MAX` when vacant.
    cells: Vec<(u64, PacketId2)>,
    n_ids: usize,
    /// Power of two, strictly greater than any in-flight latency span.
    width: u64,
}

/// The packet payload stored in a ring cell. A plain `u64` (the packet
/// seq) keeps the cell `Copy` without importing core types here.
type PacketId2 = u64;

/// Vacant-cell marker; real slots are bounded by `SimConfig::max_slots`.
const VACANT: u64 = u64::MAX;

impl ArrivalRing {
    /// A ring for `n_ids` nodes with the minimum width.
    pub fn new(n_ids: usize) -> ArrivalRing {
        let width = 8;
        ArrivalRing {
            cells: vec![(VACANT, 0); width as usize * n_ids],
            n_ids,
            width,
        }
    }

    /// Claim `(arrival_slot, node)` for packet seq `packet`. Returns the
    /// already-pending packet seq on a collision. `now_slot` is the
    /// current playback slot (the live-window floor, needed on growth).
    #[inline]
    pub fn try_insert(
        &mut self,
        arrival_slot: u64,
        node: u32,
        packet: u64,
        now_slot: u64,
    ) -> Result<(), u64> {
        debug_assert!(arrival_slot >= now_slot);
        if arrival_slot - now_slot + 2 > self.width {
            self.grow(arrival_slot - now_slot + 2, now_slot);
        }
        let cell = &mut self.cells
            [(arrival_slot & (self.width - 1)) as usize * self.n_ids + node as usize];
        if cell.0 == arrival_slot {
            return Err(cell.1);
        }
        *cell = (arrival_slot, packet);
        Ok(())
    }

    /// Re-seat every live cell (slot ≥ `now_slot`) into a wider ring.
    fn grow(&mut self, need: u64, now_slot: u64) {
        let width = need.next_power_of_two();
        let mut cells = vec![(VACANT, 0); width as usize * self.n_ids];
        for (i, &(slot, packet)) in self.cells.iter().enumerate() {
            if slot != VACANT && slot >= now_slot {
                let node = i % self.n_ids;
                cells[(slot & (width - 1)) as usize * self.n_ids + node] = (slot, packet);
            }
        }
        self.cells = cells;
        self.width = width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_ring_detects_same_slot_collisions() {
        let mut r = ArrivalRing::new(4);
        assert_eq!(r.try_insert(5, 2, 10, 5), Ok(()));
        assert_eq!(r.try_insert(5, 2, 11, 5), Err(10), "same (slot, node)");
        assert_eq!(r.try_insert(5, 3, 11, 5), Ok(()), "other node is free");
        assert_eq!(r.try_insert(6, 2, 12, 5), Ok(()), "other slot is free");
    }

    #[test]
    fn arrival_ring_stale_cells_never_match() {
        let mut r = ArrivalRing::new(2);
        assert_eq!(r.try_insert(3, 1, 7, 3), Ok(()));
        // Slot 3's delivery has fired; slot 11 aliases it (mod 8) and
        // must overwrite the stale cell, not report a collision.
        assert_eq!(r.try_insert(11, 1, 8, 10), Ok(()));
        assert_eq!(r.try_insert(11, 1, 9, 10), Err(8));
    }

    #[test]
    fn arrival_ring_grows_past_long_latencies() {
        let mut r = ArrivalRing::new(3);
        for slot in 0..40 {
            assert_eq!(r.try_insert(slot, 1, slot, 0), Ok(()));
        }
        // Every claim survives the growth re-seat.
        for slot in 0..40 {
            assert_eq!(r.try_insert(slot, 1, slot + 100, 0), Err(slot));
        }
    }
}
