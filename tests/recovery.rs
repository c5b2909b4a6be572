//! End-to-end recovery acceptance: online failure detection, self-healing
//! tree repair and NACK retransmission in the discrete-event runtime.
//!
//! The headline property (the PR's acceptance criterion): under a
//! crash-only churn trace with zero link loss, a `repair+nack` run leaves
//! **every non-crashed node's missing-packet set empty** — detection
//! confirms the silent node, the appendix dynamics route around it, and
//! NACK retransmission backfills the packets lost during the detection
//! window.

use clustream::prelude::*;
use clustream::workloads::{ChurnAction, ChurnEvent, ChurnTrace, ChurnTraceConfig};

/// A hand-written crash-only trace (no joins, no rejoins, no loss).
fn crash_only_trace(n: usize, slots: u64, crashes: &[(u64, usize)]) -> ChurnTrace {
    ChurnTrace {
        config: ChurnTraceConfig {
            initial_members: n,
            slots,
            join_rate: 0.0,
            leave_rate: 0.0,
            rejoin_rate: 0.0,
            seed: 0,
        },
        events: crashes
            .iter()
            .map(|&(slot, victim_rank)| ChurnEvent {
                slot,
                action: ChurnAction::Leave { victim_rank },
            })
            .collect(),
    }
}

/// Victim ranks (among current members, ascending-id order) that make the
/// trace remove exactly `victims`, in order.
fn ranks_for(n: usize, victims: &[u64]) -> Vec<usize> {
    let mut members: Vec<u64> = (1..=n as u64).collect();
    victims
        .iter()
        .map(|v| {
            let r = members.iter().position(|m| m == v).unwrap();
            members.remove(r);
            r
        })
        .collect()
}

/// The busiest relays of a clean run — crashing one of these is the
/// worst case for downstream starvation.
fn busiest_relays(n: usize, d: usize, track: u64, how_many: usize) -> Vec<u64> {
    let mut probe =
        SelfHealingMultiTree::new(n, d, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let clean = Simulator::run(&mut probe, &SimConfig::until_complete(track, 100_000)).unwrap();
    let mut by_uploads: Vec<(u64, u64)> = clean
        .upload_counts
        .iter()
        .enumerate()
        .skip(1)
        .map(|(id, &u)| (u, id as u64))
        .collect();
    by_uploads.sort();
    by_uploads.reverse();
    by_uploads.truncate(how_many);
    assert!(by_uploads[0].0 > 0, "no interior relay found");
    by_uploads.into_iter().map(|(_, id)| id).collect()
}

fn run_with_mode(
    n: usize,
    d: usize,
    track: u64,
    horizon: u64,
    trace: &ChurnTrace,
    recovery: RecoveryConfig,
) -> RunResult {
    let mut scheme =
        SelfHealingMultiTree::new(n, d, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let cfg = DesConfig::slot_faithful(SimConfig::until_complete(track, horizon))
        .with_churn(trace.clone())
        .with_recovery(recovery);
    DesEngine::new().run(&mut scheme, &cfg).unwrap()
}

/// Missing packets summed over nodes that never crashed.
fn survivor_missing(r: &RunResult, victims: &[u64]) -> u64 {
    r.loss
        .as_ref()
        .unwrap()
        .missing
        .iter()
        .filter(|(node, _)| !victims.contains(&(node.0 as u64)))
        .map(|&(_, m)| m as u64)
        .sum()
}

#[test]
fn repair_nack_clears_every_survivors_missing_set() {
    // The acceptance criterion: crash-only churn, zero loss, repair+nack —
    // once the recovery pipeline has run its course every non-crashed
    // node holds the entire tracked window.
    let (n, d, track, horizon) = (40, 3, 48u64, 260u64);
    let victims = busiest_relays(n, d, track, 2);
    let ranks = ranks_for(n, &victims);
    let trace = crash_only_trace(n, horizon, &[(10, ranks[0]), (22, ranks[1])]);

    let r = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());

    let loss = r.loss.as_ref().unwrap();
    for &(node, missing) in &loss.missing {
        assert!(
            victims.contains(&(node.0 as u64)),
            "survivor {node} still missing {missing} packets after recovery"
        );
    }
    let resil = r.resilience.expect("recovery runs report resilience");
    assert!(resil.failures_detected >= 1, "silence was never confirmed");
    assert!(resil.repairs_committed >= 1, "no repair was committed");
    assert!(
        resil.recovery_latency_max_ticks > 0,
        "repair cannot be instantaneous"
    );
    assert!(
        resil
            .avg_recovery_latency_slots(clustream::des::TICKS_PER_SLOT)
            .is_some(),
        "committed repairs must report a latency"
    );
    assert!(resil.nacks_sent > 0, "gaps must have been chased");
    assert!(resil.repaired_packets > 0, "no gap was ever backfilled");
    assert!(
        resil.control_messages >= resil.nacks_sent + resil.retransmissions,
        "control accounting must cover NACKs and retransmissions"
    );
}

#[test]
fn each_recovery_tier_strictly_helps_under_interior_crashes() {
    // off (fail-silent) ≥ repair ≥ repair+nack (= 0 for survivors): the
    // repair tier stops the post-detection bleeding, the NACK tier
    // backfills the detection window.
    let (n, d, track, horizon) = (40, 3, 48u64, 260u64);
    let victims = busiest_relays(n, d, track, 1);
    let ranks = ranks_for(n, &victims);
    let trace = crash_only_trace(n, horizon, &[(10, ranks[0])]);

    let off = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::default());
    let repair = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair());
    let nack = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());

    let (m_off, m_repair, m_nack) = (
        survivor_missing(&off, &victims),
        survivor_missing(&repair, &victims),
        survivor_missing(&nack, &victims),
    );
    assert!(
        m_off > 0,
        "an interior crash must starve someone fail-silent"
    );
    assert!(
        m_repair < m_off,
        "repair must beat fail-silent ({m_repair} ≥ {m_off})"
    );
    assert!(
        m_nack <= m_repair,
        "adding NACKs cannot hurt ({m_nack} > {m_repair})"
    );
    assert_eq!(m_nack, 0, "repair+nack must fully backfill survivors");

    // Fail-silent runs still report resilience (stall accounting only).
    let off_resil = off.resilience.unwrap();
    assert_eq!(
        off_resil.stall_events,
        off.loss.as_ref().unwrap().total_missing() as u64
    );
    assert_eq!(off_resil.repairs_committed, 0);
    assert_eq!(off_resil.nacks_sent, 0);
}

#[test]
fn recovery_runs_are_deterministic() {
    // Same trace, same knobs, same seed — bit-identical RunResult,
    // including the jittered NACK backoff draws.
    let (n, d, track, horizon) = (30, 3, 32u64, 200u64);
    let victims = busiest_relays(n, d, track, 1);
    let ranks = ranks_for(n, &victims);
    let trace = crash_only_trace(n, horizon, &[(8, ranks[0])]);
    let a = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());
    let b = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());
    assert_eq!(diff_fields(&a, &b), Vec::<&str>::new());
}

#[test]
fn rejoin_restores_a_crashed_member_end_to_end() {
    // Crash an interior node, let the overlay repair, then bring the same
    // identity back: the rejoined node is readmitted into the schedule
    // and resumes receiving (its own earlier gap is its problem — the
    // survivors must stay whole throughout).
    let (n, d, track, horizon) = (30, 3, 40u64, 300u64);
    let victims = busiest_relays(n, d, track, 1);
    let ranks = ranks_for(n, &victims);
    let mut trace = crash_only_trace(n, horizon, &[(8, ranks[0])]);
    trace.events.push(ChurnEvent {
        slot: 60,
        action: ChurnAction::Rejoin { departed_rank: 0 },
    });

    let r = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());
    // Survivors end whole; the returnee may only miss pre-rejoin packets.
    for &(node, missing) in &r.loss.as_ref().unwrap().missing {
        assert!(
            victims.contains(&(node.0 as u64)),
            "survivor {node} missing {missing} packets"
        );
    }
    // The returnee received post-rejoin packets (the tail of the window).
    let returnee = NodeId(victims[0] as u32);
    assert!(
        r.arrivals
            .usable_slot(returnee, PacketId(track - 1))
            .is_some(),
        "rejoined node never resumed receiving"
    );
}

#[test]
fn recovery_off_knobs_are_inert() {
    // A RecoveryConfig with mode Off but every knob perturbed must be
    // bit-identical to the default config, in both DES regimes.
    let mut inert = RecoveryConfig::repair_nack();
    inert.mode = RecoveryMode::Off;
    inert.suspect_timeout_ticks = 1;
    inert.suspicion_threshold = 1;
    inert.max_retries = 1;
    inert.seed = 99;

    // Slot-faithful regime: still matches the slot engine exactly.
    let sim_cfg = SimConfig::until_complete(24, 10_000);
    let mut a =
        SelfHealingMultiTree::new(20, 3, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let want = Simulator::run(&mut a, &sim_cfg).unwrap();
    let mut b =
        SelfHealingMultiTree::new(20, 3, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let cfg = DesConfig::slot_faithful(sim_cfg).with_recovery(inert);
    assert!(cfg.is_slot_faithful(), "mode Off must stay slot-faithful");
    let got = DesEngine::new().run(&mut b, &cfg).unwrap();
    assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());

    // Relaxed regime (churn): identical to a default-config churned run.
    let (n, d, track, horizon) = (24, 3, 24u64, 160u64);
    let trace = crash_only_trace(n, horizon, &[(6, 2), (14, 9)]);
    let base = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::default());
    let knobs = run_with_mode(n, d, track, horizon, &trace, inert);
    assert_eq!(diff_fields(&base, &knobs), Vec::<&str>::new());
}

/// Every counter the `clustream simulate` summary prints for a relaxed
/// recovery run.
#[derive(Debug, PartialEq)]
struct ChurnGolden {
    slots: u64,
    transmissions: u64,
    events: u64,
    deferred: u64,
    released: u64,
    missing: u64,
    missing_nodes: usize,
    detected: u64,
    repairs: u64,
    displaced: u64,
    nacks: u64,
    retransmissions: u64,
    repaired: u64,
    abandoned: u64,
    control_msgs: u64,
    max_delay: u64,
    /// `avg_delay` in hundredths of a slot, as the summary rounds it.
    avg_delay_centi: u64,
    max_buffer: usize,
}

/// The benchmark's asynchronous churn workload at n = 1000: uniform
/// jitter of half a slot, `repair+nack`, per-slot leave rate 0.0005 over
/// 400 slots, latency and churn seeded alike — the configuration
/// `clustream simulate --runtime des --latency jitter --jitter 0.5
/// --recovery repair+nack --churn-leave 0.0005 --churn-slots 400`
/// builds.
fn churn_golden(seed: u64, queue: QueueKind) -> ChurnGolden {
    let (n, d, track, horizon) = (1000, 3, 64u64, 400u64);
    let trace = ChurnTrace::generate(ChurnTraceConfig {
        initial_members: n,
        slots: horizon,
        join_rate: 0.0,
        leave_rate: 0.0005,
        rejoin_rate: 0.0,
        seed,
    });
    let cfg = DesConfig::slot_faithful(SimConfig::until_complete(track, horizon))
        .with_latency(LatencyModel::UniformJitter { jitter: 0.5 })
        .seeded(seed)
        .with_recovery(RecoveryConfig::repair_nack())
        .with_queue(queue)
        .with_churn(trace);
    let mut scheme =
        SelfHealingMultiTree::new(n, d, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let mut engine = DesEngine::new();
    let r = engine.run(&mut scheme, &cfg).unwrap();
    let s = *engine.stats();
    let loss = r.loss.as_ref().unwrap();
    let res = r.resilience.unwrap();
    ChurnGolden {
        slots: r.slots_run,
        transmissions: r.total_transmissions,
        events: s.events_processed,
        deferred: s.deferred_sends,
        released: s.released_sends,
        missing: loss.total_missing() as u64,
        missing_nodes: loss.missing.len(),
        detected: res.failures_detected,
        repairs: res.repairs_committed,
        displaced: res.displaced_total,
        nacks: res.nacks_sent,
        retransmissions: res.retransmissions,
        repaired: res.repaired_packets,
        abandoned: res.abandoned_packets,
        control_msgs: res.control_messages,
        max_delay: r.qos.max_delay(),
        avg_delay_centi: (r.qos.avg_delay() * 100.0).round() as u64,
        max_buffer: r.qos.max_buffer(),
    }
}

#[test]
fn churned_recovery_runs_match_their_pinned_counters() {
    // Computed with ordered-tree (`BTreeMap`/`BTreeSet`) recovery state.
    // The hashed and dense containers must reproduce every counter, and
    // the queue choice must not show.
    let pinned = [
        (
            8,
            ChurnGolden {
                slots: 400,
                transmissions: 283100,
                events: 919126,
                deferred: 197876,
                released: 99334,
                missing: 1404,
                missing_nodes: 41,
                detected: 48,
                repairs: 48,
                displaced: 15640,
                nacks: 6557,
                retransmissions: 5795,
                repaired: 6548,
                abandoned: 0,
                control_msgs: 22751,
                max_delay: 50,
                avg_delay_centi: 2887,
                max_buffer: 34,
            },
        ),
        (
            9,
            ChurnGolden {
                slots: 400,
                transmissions: 280602,
                events: 923150,
                deferred: 201553,
                released: 100106,
                missing: 1270,
                missing_nodes: 40,
                detected: 46,
                repairs: 46,
                displaced: 14686,
                nacks: 8519,
                retransmissions: 7435,
                repaired: 8511,
                abandoned: 0,
                control_msgs: 27024,
                max_delay: 54,
                avg_delay_centi: 2929,
                max_buffer: 40,
            },
        ),
    ];
    for (seed, want) in pinned {
        for queue in [QueueKind::Heap, QueueKind::Wheel] {
            assert_eq!(churn_golden(seed, queue), want, "seed {seed}, {queue:?}");
        }
    }
}
