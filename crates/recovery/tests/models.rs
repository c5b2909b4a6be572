//! Model-based tests of the recovery layer's hot containers.
//!
//! [`RepairBuffer`], [`NackManager`] and [`FailureDetector`] keep their
//! state in hashed maps and dense rings because the DES touches them on
//! every delivery. The models below are the straightforward ordered-tree
//! versions of the same three structures. Every test drives a model and
//! the real structure with one operation sequence and requires every
//! return value to match.

use clustream_recovery::{FailureDetector, NackManager, RepairBuffer, TimeoutVerdict};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ------------------------------------------------------------- models

/// FIFO window per node: a deque in arrival order plus a tree set.
struct BufferModel {
    fifo: Vec<VecDeque<u64>>,
    member: Vec<BTreeSet<u64>>,
    capacity: usize,
}

impl BufferModel {
    fn new(n_ids: usize, capacity: usize) -> Self {
        BufferModel {
            fifo: vec![VecDeque::new(); n_ids],
            member: vec![BTreeSet::new(); n_ids],
            capacity,
        }
    }

    fn note(&mut self, node: u32, seq: u64) {
        let (fifo, member) = (
            &mut self.fifo[node as usize],
            &mut self.member[node as usize],
        );
        if self.capacity == 0 || !member.insert(seq) {
            return;
        }
        fifo.push_back(seq);
        if fifo.len() > self.capacity {
            let evicted = fifo.pop_front().expect("nonempty");
            member.remove(&evicted);
        }
    }

    fn contains(&self, node: u32, seq: u64) -> bool {
        self.member[node as usize].contains(&seq)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gap {
    Open,
    Repaired,
    Abandoned,
}

/// Gap lifecycle in a tree map; backoff with the same seeded stream.
struct NackModel {
    gaps: BTreeMap<(u32, u64), Gap>,
    base: u64,
    multiplier: f64,
    cap: u64,
    jitter: u64,
    rng: ChaCha8Rng,
}

impl NackModel {
    fn new(base: u64, multiplier: f64, cap: u64, jitter: u64, seed: u64) -> Self {
        NackModel {
            gaps: BTreeMap::new(),
            base: base.max(1),
            multiplier: multiplier.max(1.0),
            cap: cap.max(1),
            jitter,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn open(&mut self, node: u32, seq: u64) -> bool {
        if self.gaps.contains_key(&(node, seq)) {
            return false;
        }
        self.gaps.insert((node, seq), Gap::Open);
        true
    }

    fn is_open(&self, node: u32, seq: u64) -> bool {
        self.gaps.get(&(node, seq)) == Some(&Gap::Open)
    }

    fn settle(&mut self, node: u32, seq: u64, to: Gap) -> bool {
        match self.gaps.get_mut(&(node, seq)) {
            Some(s @ Gap::Open) => {
                *s = to;
                true
            }
            _ => false,
        }
    }

    fn backoff_delay(&mut self, attempt: u32) -> u64 {
        let exp = self.multiplier.powi(attempt.min(63) as i32);
        let raw = (self.base as f64 * exp).round() as u64;
        let jitter = if self.jitter > 0 {
            self.rng.gen_range(0..self.jitter)
        } else {
            0
        };
        raw.min(self.cap) + jitter
    }
}

/// Link freshness and suspicion tallies in tree maps and sets.
struct DetectorModel {
    last_heard: BTreeMap<(u32, u32), u64>,
    suspicions: BTreeMap<u32, BTreeSet<u32>>,
    confirmed: BTreeSet<u32>,
    threshold: usize,
    timeout: u64,
}

impl DetectorModel {
    fn new(threshold: usize, timeout: u64) -> Self {
        DetectorModel {
            last_heard: BTreeMap::new(),
            suspicions: BTreeMap::new(),
            confirmed: BTreeSet::new(),
            threshold: threshold.max(1),
            timeout,
        }
    }

    fn record(&mut self, watcher: u32, subject: u32, now: u64) -> bool {
        if let Some(s) = self.suspicions.get_mut(&subject) {
            s.remove(&watcher);
        }
        self.last_heard.insert((watcher, subject), now).is_none()
    }

    fn check(&mut self, watcher: u32, subject: u32, now: u64) -> TimeoutVerdict {
        if self.confirmed.contains(&subject) {
            return TimeoutVerdict::Drop;
        }
        let Some(&last) = self.last_heard.get(&(watcher, subject)) else {
            return TimeoutVerdict::Drop;
        };
        let deadline = last + self.timeout;
        if deadline > now {
            TimeoutVerdict::Rearm(deadline)
        } else {
            self.suspicions.entry(subject).or_default().insert(watcher);
            TimeoutVerdict::Suspect
        }
    }

    fn suspect(&mut self, watcher: u32, subject: u32) {
        if !self.confirmed.contains(&subject) {
            self.suspicions.entry(subject).or_default().insert(watcher);
        }
    }

    fn suspicion_count(&self, subject: u32) -> usize {
        self.suspicions.get(&subject).map_or(0, |s| s.len())
    }

    fn confirm(&mut self, subject: u32) -> bool {
        if self.confirmed.contains(&subject) || self.suspicion_count(subject) < self.threshold {
            return false;
        }
        self.confirmed.insert(subject);
        true
    }

    fn clear_links(&mut self) {
        self.last_heard.clear();
        self.suspicions.clear();
    }

    fn forget(&mut self, subject: u32) {
        self.confirmed.remove(&subject);
        self.suspicions.remove(&subject);
    }
}

// -------------------------------------------------------- replays

/// Map a raw draw to a packet seq: mostly a dense low range (so seqs
/// repeat and windows evict), a quarter of the time a seq on either
/// side of a 64-bit word boundary.
fn seq_of(raw: u64) -> u64 {
    if raw.is_multiple_of(4) {
        let word = (raw / 4) % 6 + 1;
        word * 64 - (raw / 24) % 2
    } else {
        raw % 150
    }
}

/// Replay `ops` against a model and a real buffer of `capacity`,
/// comparing every `contains` after every step.
fn run_buffer(capacity: usize, ops: &[(u32, u64, bool)]) -> Result<(), TestCaseError> {
    const NODES: usize = 3;
    let mut model = BufferModel::new(NODES, capacity);
    let mut real = RepairBuffer::new(NODES, capacity);
    for (step, &(node, raw, probe)) in ops.iter().enumerate() {
        let (node, seq) = (node % NODES as u32, seq_of(raw));
        if probe {
            prop_assert_eq!(
                real.contains(node, seq),
                model.contains(node, seq),
                "step {step}: contains({node}, {seq}), capacity {capacity}"
            );
        } else {
            model.note(node, seq);
            real.note(node, seq);
        }
    }
    // Final sweep over every node and the whole seq domain.
    for node in 0..NODES as u32 {
        for seq in (0..150).chain((1..=6).flat_map(|w| [w * 64 - 1, w * 64])) {
            prop_assert_eq!(real.contains(node, seq), model.contains(node, seq));
        }
    }
    Ok(())
}

/// Capacities 0, 1 and 64 in about a tenth of the cases each, small
/// ones (2..30) otherwise.
fn capacity_of(raw: usize) -> usize {
    if raw < 12 {
        [0, 1, 64][raw % 3]
    } else {
        raw - 10
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    fn repair_buffer_matches_the_tree_model(
        cap in 0usize..40,
        ops in proptest::collection::vec((0u32..3, 0u64..2000, any::<bool>()), 0..600),
    ) {
        run_buffer(capacity_of(cap), &ops)?;
    }

    fn nack_manager_matches_the_tree_model(
        knobs in (1u64..300, 0u64..4, 1u64..5000, 0u64..64),
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u8..5, 0u32..4, 0u64..40, 0u32..80), 0..300),
    ) {
        let (base, mult, cap, jitter) = knobs;
        let multiplier = 1.0 + mult as f64 * 0.5;
        let mut model = NackModel::new(base, multiplier, cap, jitter, seed);
        let mut real = NackManager::new(base, multiplier, cap, jitter, seed);
        for (step, &(op, node, raw, attempt)) in ops.iter().enumerate() {
            let seq = seq_of(raw);
            match op {
                0 => prop_assert_eq!(real.open(node, seq), model.open(node, seq), "step {step}: open"),
                1 => prop_assert_eq!(
                    real.resolve(node, seq),
                    model.settle(node, seq, Gap::Repaired),
                    "step {step}: resolve"
                ),
                2 => prop_assert_eq!(
                    real.abandon(node, seq),
                    model.settle(node, seq, Gap::Abandoned),
                    "step {step}: abandon"
                ),
                3 => prop_assert_eq!(
                    real.backoff_delay(attempt),
                    model.backoff_delay(attempt),
                    "step {step}: backoff"
                ),
                _ => {}
            }
            prop_assert_eq!(real.is_open(node, seq), model.is_open(node, seq), "step {step}: is_open");
        }
    }

    fn failure_detector_matches_the_tree_model(
        knobs in (0usize..4, 1u64..200),
        ops in proptest::collection::vec((0u8..10, 0u32..6, 0u32..6, 0u64..50), 0..400),
    ) {
        let (threshold, timeout) = knobs;
        let mut model = DetectorModel::new(threshold, timeout);
        let mut real = FailureDetector::new(threshold, timeout);
        let mut now = 0u64;
        for (step, &(op, watcher, subject, dt)) in ops.iter().enumerate() {
            now += dt;
            match op {
                0..=2 => prop_assert_eq!(
                    real.record(watcher, subject, now),
                    model.record(watcher, subject, now),
                    "step {step}: record"
                ),
                3 | 4 => prop_assert_eq!(
                    real.check(watcher, subject, now),
                    model.check(watcher, subject, now),
                    "step {step}: check"
                ),
                5 => {
                    real.suspect(watcher, subject);
                    model.suspect(watcher, subject);
                }
                6 => prop_assert_eq!(real.confirm(subject), model.confirm(subject), "step {step}: confirm"),
                // Rarer than the others: one case in five of op 7.
                7 if dt.is_multiple_of(5) => {
                    real.clear_links();
                    model.clear_links();
                }
                8 => {
                    real.forget(subject);
                    model.forget(subject);
                }
                _ => {}
            }
            prop_assert_eq!(real.suspicion_count(subject), model.suspicion_count(subject), "step {step}");
            prop_assert_eq!(real.is_confirmed(subject), model.confirmed.contains(&subject), "step {step}");
            prop_assert_eq!(real.timeout(), model.timeout);
        }
    }
}

// ------------------------------------------------- named regressions

#[test]
fn capacity_zero_one_and_sixty_four_match_the_model() {
    let ops: Vec<(u32, u64, bool)> = (0..400u64)
        .map(|i| ((i % 2) as u32, (i * 37) % 1999, i % 3 == 0))
        .collect();
    for capacity in [0, 1, 64] {
        run_buffer(capacity, &ops).unwrap();
    }
}

#[test]
fn an_evicted_seq_renoted_is_fresh_again() {
    for capacity in [1, 2, 64] {
        let mut model = BufferModel::new(1, capacity);
        let mut real = RepairBuffer::new(1, capacity);
        for seq in 0..=capacity as u64 {
            model.note(0, seq);
            real.note(0, seq);
        }
        assert!(!real.contains(0, 0), "seq 0 evicted at capacity {capacity}");
        model.note(0, 0);
        real.note(0, 0);
        assert!(real.contains(0, 0));
        for seq in 0..=capacity as u64 + 1 {
            assert_eq!(real.contains(0, seq), model.contains(0, seq), "seq {seq}");
        }
    }
}

#[test]
fn word_boundary_seqs_are_distinct_members() {
    let mut real = RepairBuffer::new(1, 4);
    for seq in [63, 64, 127, 128] {
        real.note(0, seq);
    }
    assert!([63, 64, 127, 128].iter().all(|&s| real.contains(0, s)));
    assert!(![62, 65, 126, 129].iter().any(|&s| real.contains(0, s)));
    real.note(0, 191);
    assert!(
        !real.contains(0, 63),
        "the oldest, word 0's last bit, evicted"
    );
    assert!(real.contains(0, 64), "word 1's first bit kept");
}

#[test]
fn clear_links_and_forget_match_the_model() {
    let mut model = DetectorModel::new(2, 10);
    let mut real = FailureDetector::new(2, 10);
    for (w, s, t) in [(1, 9, 0), (2, 9, 0), (3, 8, 5)] {
        assert_eq!(real.record(w, s, t), model.record(w, s, t));
    }
    for w in [1, 2] {
        assert_eq!(real.check(w, 9, 20), model.check(w, 9, 20));
    }
    assert_eq!(real.confirm(9), model.confirm(9));
    assert!(real.is_confirmed(9));
    real.clear_links();
    model.clear_links();
    assert_eq!(real.check(3, 8, 100), model.check(3, 8, 100));
    assert_eq!(real.check(3, 8, 100), TimeoutVerdict::Drop);
    assert_eq!(real.record(3, 8, 100), model.record(3, 8, 100));
    assert!(real.is_confirmed(9), "confirmations survive clear_links");
    real.forget(9);
    model.forget(9);
    assert!(!real.is_confirmed(9));
    assert_eq!(real.suspicion_count(9), model.suspicion_count(9));
    assert_eq!(real.record(1, 9, 101), model.record(1, 9, 101));
}
