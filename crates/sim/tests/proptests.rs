//! Property tests on the playback analysis: compare against a brute-force
//! reference and check invariances.

use clustream_core::{NodeId, PacketId, Slot};
use clustream_sim::ArrivalTable;
use proptest::prelude::*;

fn table_with(usables: &[u64]) -> ArrivalTable {
    let mut t = ArrivalTable::new(1, usables.len() as u64);
    for (j, &u) in usables.iter().enumerate() {
        t.record(NodeId(0), PacketId(j as u64), Slot(u));
    }
    t
}

/// Brute-force reference: the minimal a such that playing packet j at slot
/// a + j never precedes its usability.
fn reference_delay(usables: &[u64]) -> u64 {
    (0..=usables.iter().max().copied().unwrap_or(0))
        .find(|&a| usables.iter().enumerate().all(|(j, &u)| u <= a + j as u64))
        .expect("max(usable) always works")
}

/// Brute-force buffer: simulate slot by slot with playback start a. A
/// missing packet (`None`) is never buffered but still consumes its
/// playback slot.
fn reference_buffer_lossy(usables: &[Option<u64>], a: u64) -> usize {
    let recv = |u: u64| u.saturating_sub(1);
    let last = usables
        .iter()
        .flatten()
        .map(|&u| recv(u))
        .max()
        .unwrap_or(0);
    let mut max_buf = 0usize;
    for t in 0..=last {
        // Received by slot t, minus played strictly before slot t.
        let arrived = usables.iter().flatten().filter(|&&u| recv(u) <= t).count();
        let played = usables
            .iter()
            .enumerate()
            .filter(|&(j, u)| u.is_some() && t > a && (j as u64) < t - a)
            .count();
        max_buf = max_buf.max(arrived - played.min(arrived));
    }
    max_buf
}

fn reference_buffer(usables: &[u64], a: u64) -> usize {
    let row: Vec<Option<u64>> = usables.iter().map(|&u| Some(u)).collect();
    reference_buffer_lossy(&row, a)
}

/// An arrival row drawn from `raw`: `len` (1–300) tracked packets, or
/// 1–23 of them when `short` (half the cases); usable slots from 0 up
/// to twice the track plus 60, so a short track can start playback far
/// beyond its length; sorted descending (packet 0 arrives last) for one
/// `shape` in four.
fn shape_row(len: usize, short: bool, raw: &[u64], shape: u8) -> Vec<u64> {
    let len = if short { len % 23 + 1 } else { len };
    let mut row: Vec<u64> = raw[..len]
        .iter()
        .map(|&u| u % (2 * len as u64 + 60))
        .collect();
    if shape == 0 {
        row.sort_unstable_by(|x, y| y.cmp(x));
    }
    row
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// analyze() equals the brute-force reference on arbitrary arrival
    /// patterns.
    #[test]
    fn analyze_matches_reference(
        len in 1usize..=300,
        short in any::<bool>(),
        raw in proptest::collection::vec(any::<u64>(), 300),
        shape in 0u8..4,
    ) {
        let usables = shape_row(len, short, &raw, shape);
        let t = table_with(&usables);
        let a = t.analyze(NodeId(0)).unwrap();
        prop_assert_eq!(a.playback_delay, reference_delay(&usables));
        prop_assert_eq!(a.max_buffer, reference_buffer(&usables, a.playback_delay));
    }

    /// analyze_lossy()'s buffer equals the brute-force reference when
    /// packets are missing.
    #[test]
    fn analyze_lossy_buffer_matches_reference(
        len in 1usize..=300,
        short in any::<bool>(),
        raw in proptest::collection::vec(any::<u64>(), 300),
        shape in 0u8..4,
        drops in proptest::collection::vec(any::<bool>(), 300),
    ) {
        let usables = shape_row(len, short, &raw, shape);
        let row: Vec<Option<u64>> = usables
            .iter()
            .zip(&drops)
            .map(|(&u, &dropped)| (!dropped).then_some(u))
            .collect();
        let mut t = ArrivalTable::new(1, row.len() as u64);
        for (j, u) in row.iter().enumerate() {
            if let Some(u) = *u {
                t.record(NodeId(0), PacketId(j as u64), Slot(u));
            }
        }
        let l = t.analyze_lossy(NodeId(0));
        prop_assert_eq!(l.missing, row.iter().filter(|u| u.is_none()).count());
        prop_assert_eq!(l.max_buffer, reference_buffer_lossy(&row, l.playback_delay));
    }

    /// On a loss-free row the lossy analysis agrees with analyze().
    #[test]
    fn lossy_equals_analyze_when_nothing_is_missing(
        len in 1usize..=300,
        short in any::<bool>(),
        raw in proptest::collection::vec(any::<u64>(), 300),
        shape in 0u8..4,
    ) {
        let usables = shape_row(len, short, &raw, shape);
        let t = table_with(&usables);
        let a = t.analyze(NodeId(0)).unwrap();
        let l = t.analyze_lossy(NodeId(0));
        prop_assert_eq!(l.missing, 0);
        prop_assert_eq!(l.playback_delay, a.playback_delay);
        prop_assert_eq!(l.max_buffer, a.max_buffer);
    }

    /// Shifting every arrival by a constant shifts the delay by the same
    /// constant and leaves the buffer unchanged.
    #[test]
    fn shift_invariance(usables in proptest::collection::vec(0u64..40, 1..16), c in 1u64..20) {
        let base = table_with(&usables);
        let shifted_v: Vec<u64> = usables.iter().map(|&u| u + c).collect();
        let shifted = table_with(&shifted_v);
        let a0 = base.analyze(NodeId(0)).unwrap();
        let a1 = shifted.analyze(NodeId(0)).unwrap();
        prop_assert_eq!(a1.playback_delay, a0.playback_delay + c);
        prop_assert_eq!(a1.max_buffer, a0.max_buffer);
    }

    /// In-order arrivals with unit gaps need at most a 2-packet buffer.
    #[test]
    fn in_order_buffers_tiny(start in 0u64..30, len in 1usize..30) {
        let usables: Vec<u64> = (0..len as u64).map(|j| start + j).collect();
        let t = table_with(&usables);
        let a = t.analyze(NodeId(0)).unwrap();
        prop_assert!(a.max_buffer <= 2);
        prop_assert_eq!(a.playback_delay, start);
    }

    /// Lossy analysis: delay over received packets never exceeds the
    /// complete-table delay, and missing counts are exact.
    #[test]
    fn lossy_analysis_consistent(
        usables in proptest::collection::vec(0u64..40, 2..20),
        drop_idx in 0usize..20,
    ) {
        let full = table_with(&usables);
        let full_delay = full.analyze(NodeId(0)).unwrap().playback_delay;

        let mut lossy = ArrivalTable::new(1, usables.len() as u64);
        let dropped = drop_idx % usables.len();
        for (j, &u) in usables.iter().enumerate() {
            if j != dropped {
                lossy.record(NodeId(0), PacketId(j as u64), Slot(u));
            }
        }
        let l = lossy.analyze_lossy(NodeId(0));
        prop_assert_eq!(l.missing, 1);
        prop_assert!(l.playback_delay <= full_delay);
        prop_assert!(lossy.analyze(NodeId(0)).is_err());
    }

    /// Duplicate recordings never improve (or change) the first arrival.
    #[test]
    fn first_arrival_wins(u1 in 0u64..50, u2 in 0u64..50) {
        let mut t = ArrivalTable::new(1, 1);
        t.record(NodeId(0), PacketId(0), Slot(u1));
        t.record(NodeId(0), PacketId(0), Slot(u2));
        prop_assert_eq!(t.usable_slot(NodeId(0), PacketId(0)), Some(Slot(u1)));
    }
}
