//! NACK retransmission state: per-gap retry tracking and seeded
//! exponential backoff.
//!
//! Gap status is a hashed point-lookup map, touched on every delivery
//! and never iterated, so its order cannot reach a run's output.

use clustream_core::FxHashMap;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::hash_map::Entry;

/// Lifecycle of one NACKed gap packet at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GapStatus {
    /// Retries in flight.
    Open,
    /// Filled by a retransmission (or a late regular delivery).
    Repaired,
    /// Retry budget exhausted: skipped, hiccup recorded.
    Abandoned,
}

/// Tracks which `(node, packet)` gaps are being chased and computes the
/// capped, jittered exponential backoff between retries.
#[derive(Debug)]
pub struct NackManager {
    gaps: FxHashMap<(u32, u64), GapStatus>,
    base: u64,
    multiplier: f64,
    cap: u64,
    jitter: u64,
    rng: ChaCha8Rng,
}

impl NackManager {
    /// A manager with backoff `min(cap, base·multiplier^attempt)` plus
    /// uniform jitter in `[0, jitter)` ticks drawn from `seed`.
    pub fn new(base: u64, multiplier: f64, cap: u64, jitter: u64, seed: u64) -> Self {
        NackManager {
            gaps: FxHashMap::default(),
            base: base.max(1),
            multiplier: multiplier.max(1.0),
            cap: cap.max(1),
            jitter,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Open a gap; `false` if it is already tracked (in any state).
    pub fn open(&mut self, node: u32, seq: u64) -> bool {
        match self.gaps.entry((node, seq)) {
            Entry::Vacant(e) => {
                e.insert(GapStatus::Open);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Whether retries for this gap should continue.
    pub fn is_open(&self, node: u32, seq: u64) -> bool {
        self.gaps.get(&(node, seq)) == Some(&GapStatus::Open)
    }

    /// Mark the gap filled; `true` if it was open (a genuine repair).
    pub fn resolve(&mut self, node: u32, seq: u64) -> bool {
        match self.gaps.get_mut(&(node, seq)) {
            Some(s @ GapStatus::Open) => {
                *s = GapStatus::Repaired;
                true
            }
            _ => false,
        }
    }

    /// Give up on the gap; `true` if it was open (a fresh abandonment).
    pub fn abandon(&mut self, node: u32, seq: u64) -> bool {
        match self.gaps.get_mut(&(node, seq)) {
            Some(s @ GapStatus::Open) => {
                *s = GapStatus::Abandoned;
                true
            }
            _ => false,
        }
    }

    /// Ticks to wait after retry number `attempt` (0-based):
    /// `min(cap, base·multiplier^attempt)` plus seeded jitter.
    pub fn backoff_delay(&mut self, attempt: u32) -> u64 {
        let exp = self.multiplier.powi(attempt.min(63) as i32);
        let raw = (self.base as f64 * exp).round() as u64;
        let capped = raw.min(self.cap);
        let jitter = if self.jitter > 0 {
            self.rng.gen_range(0..self.jitter)
        } else {
            0
        };
        capped + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_lifecycle() {
        let mut m = NackManager::new(100, 2.0, 1000, 0, 1);
        assert!(m.open(3, 7));
        assert!(!m.open(3, 7), "already tracked");
        assert!(m.is_open(3, 7));
        assert!(m.resolve(3, 7));
        assert!(!m.resolve(3, 7), "only repaired once");
        assert!(!m.is_open(3, 7));
        assert!(!m.open(3, 7), "resolved gaps are not reopened");

        assert!(m.open(4, 7));
        assert!(m.abandon(4, 7));
        assert!(!m.abandon(4, 7));
        assert!(!m.resolve(4, 7), "abandoned gaps stay abandoned");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut m = NackManager::new(100, 2.0, 1000, 0, 1);
        assert_eq!(m.backoff_delay(0), 100);
        assert_eq!(m.backoff_delay(1), 200);
        assert_eq!(m.backoff_delay(2), 400);
        assert_eq!(m.backoff_delay(5), 1000, "capped");
        assert_eq!(m.backoff_delay(60), 1000, "huge attempts stay capped");
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let draws = |seed: u64| {
            let mut m = NackManager::new(100, 2.0, 1000, 50, seed);
            (0..64).map(|_| m.backoff_delay(0)).collect::<Vec<_>>()
        };
        let a = draws(9);
        for &d in &a {
            assert!((100..150).contains(&d), "jitter out of range: {d}");
        }
        assert_eq!(a, draws(9), "same seed ⇒ same jitter");
        assert_ne!(a, draws(10), "different seed ⇒ different jitter");
    }
}
