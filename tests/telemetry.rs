//! Zero-cost-off oracle for the telemetry layer: attaching a recorder
//! must never perturb a simulation. For every scheme family and every
//! engine (reference slot simulator, fast slot engine, slot-faithful
//! DES on both the heap and timing-wheel event queues, mega engine with
//! one and two shards) the [`RunResult`] of an instrumented run is
//! compared **field for field** against the bare run, and the recorder
//! is checked to have actually observed the run (so the equivalence is
//! not vacuous).

use clustream::prelude::*;
use clustream::telemetry::names as tm;
use proptest::prelude::*;

/// The four scheme families exercised by the oracle.
fn scheme_for(family: usize, n: usize, d: usize) -> Box<dyn Scheme> {
    match family {
        0 => Box::new(MultiTreeScheme::new(
            greedy_forest(n, d).unwrap(),
            StreamMode::PreRecorded,
        )),
        1 => Box::new(HypercubeStream::new(n).unwrap()),
        2 => Box::new(ChainScheme::new(n)),
        _ => Box::new(SingleTreeScheme::new(n, d)),
    }
}

/// Run `family` on `engine` twice — bare, then with a live recorder —
/// and return `(diffs, instrumented_counter)`.
fn run_both(
    family: usize,
    n: usize,
    d: usize,
    track: u64,
    engine: usize,
) -> (Vec<&'static str>, u64) {
    let bare_cfg = SimConfig::until_complete(track, 100_000);
    let (recorder, tel) = MemoryRecorder::handle();
    let on_cfg = bare_cfg.clone().with_telemetry(tel);

    let run = |cfg: &SimConfig| match engine {
        0 => Simulator::run(scheme_for(family, n, d).as_mut(), cfg).unwrap(),
        1 => FastEngine::new()
            .run(scheme_for(family, n, d).as_mut(), cfg)
            .unwrap(),
        e @ (2 | 3) => DesEngine::new()
            .run(
                scheme_for(family, n, d).as_mut(),
                &DesConfig::slot_faithful(cfg.clone()).with_queue(if e == 2 {
                    QueueKind::Heap
                } else {
                    QueueKind::Wheel
                }),
            )
            .unwrap(),
        e => MegaEngine::with_shards(e - 3)
            .run(scheme_for(family, n, d).as_mut(), cfg)
            .unwrap(),
    };

    let bare = run(&bare_cfg);
    let instrumented = run(&on_cfg);
    let snap = recorder.snapshot();
    // Slot engines count slots, the DES counts events; either proves the
    // recorder saw the instrumented run.
    let observed = snap.counter(tm::ENGINE_SLOTS) + snap.counter(tm::DES_EVENTS);
    (diff_fields(&bare, &instrumented), observed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recorder on vs off is bit-identical on every engine and family.
    #[test]
    fn recorder_never_perturbs_a_run(
        family in 0usize..4,
        engine in 0usize..6,
        n in 1usize..60,
        d in 1usize..5,
        track in 4u64..32,
    ) {
        let (diffs, observed) = run_both(family, n, d, track, engine);
        prop_assert!(diffs.is_empty(), "telemetry perturbed the run: {diffs:?}");
        prop_assert!(observed > 0, "recorder attached but observed nothing");
    }
}

/// The recorded-latency replay path (the networked cluster's DES
/// oracle) is equally inert under instrumentation: a replay under a
/// recorded table — with recorded in-flight drops (chaos transport),
/// and with and without fail-stop crashes — is bit-identical with the
/// recorder on and off. This pins the networked config plumbing
/// (`DesConfig::recorded`, including the lossy drop entries a chaos
/// run records) into the zero-cost-off contract alongside the
/// parametric models.
#[test]
fn recorder_never_perturbs_a_recorded_replay() {
    use clustream::des::RecordedLatencies;
    use clustream::sim::FaultPlan;

    let mut recorded = RecordedLatencies::new();
    for p in 0..24u64 {
        recorded.push(0, 1, 900 + (p % 7) * 40);
        // Every fifth copy on the interior link was eaten by chaos: the
        // replay loses it in flight at the same FIFO position.
        if p % 5 == 4 {
            recorded.push_drop(1, 2);
        } else {
            recorded.push(1, 2, 1_100 + (p % 5) * 30);
        }
        recorded.push(2, 3, 1_000 + (p % 3) * 55);
    }
    assert!(recorded.drop_count() > 0);
    let plans = [
        None,
        Some(FaultPlan {
            loss_rate: 0.0,
            seed: 0,
            crashes: Vec::new(),
            stop_crashes: vec![(NodeId(2), 6)],
        }),
    ];
    for plan in plans {
        let sim = match plan.clone() {
            None => SimConfig::until_complete(16, 500),
            Some(p) => SimConfig::with_faults(16, 500, p),
        };
        let (recorder, tel) = MemoryRecorder::handle();
        let run = |cfg: &SimConfig| {
            DesEngine::new()
                .run(
                    scheme_for(2, 4, 1).as_mut(),
                    &DesConfig::slot_faithful(cfg.clone())
                        .with_recorded_latencies(recorded.clone()),
                )
                .unwrap()
        };
        let bare = run(&sim);
        let instrumented = run(&sim.clone().with_telemetry(tel));
        let diffs = diff_fields(&bare, &instrumented);
        assert!(diffs.is_empty(), "replay perturbed: {diffs:?}");
        // The recorded drops actually fired — the equivalence covers the
        // lossy replay path, not just the clean one.
        assert!(
            bare.loss.as_ref().is_some_and(|l| l.lost_in_flight > 0),
            "no recorded drop was replayed: {:?}",
            bare.loss
        );
        assert!(
            recorder.snapshot().counter(tm::DES_EVENTS) > 0,
            "recorder attached but observed nothing"
        );
    }
}

/// Pin the non-vacuousness explicitly: the recorder's totals agree with
/// the [`RunResult`] of the run it must not perturb.
#[test]
fn recorder_totals_agree_with_the_run_result() {
    let (recorder, tel) = MemoryRecorder::handle();
    let cfg = SimConfig::until_complete(16, 100_000).with_telemetry(tel);
    let r = FastEngine::new()
        .run(scheme_for(0, 30, 3).as_mut(), &cfg)
        .unwrap();
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(tm::ENGINE_SLOTS), r.slots_run);
    assert_eq!(
        snap.counter(tm::ENGINE_TRANSMISSIONS),
        r.total_transmissions
    );
    assert!(
        snap.spans.contains_key(tm::ENGINE_RUN),
        "the whole run is timed under a span"
    );
}

/// Mega's analytic replay gear stays engaged with a recorder attached,
/// and books exactly the metrics the fast engine books. The size is
/// large enough for the steady table to reach the entry-outer gear.
#[test]
fn mega_keeps_its_analytic_gear_under_a_recorder() {
    let scheme = || scheme_for(0, 2000, 3);
    let bare_cfg = SimConfig::until_complete(256, 100_000);

    let (fast_rec, tel) = MemoryRecorder::handle();
    let fast = FastEngine::new()
        .run(scheme().as_mut(), &bare_cfg.clone().with_telemetry(tel))
        .unwrap();

    let mut engine = MegaEngine::new();
    let bare = engine.run(scheme().as_mut(), &bare_cfg).unwrap();
    let bare_analytic = engine.analytic_slots();
    let (mega_rec, tel) = MemoryRecorder::handle();
    let on = engine
        .run(scheme().as_mut(), &bare_cfg.clone().with_telemetry(tel))
        .unwrap();

    assert!(bare_analytic > 0, "the analytic gear did not engage");
    assert_eq!(
        engine.analytic_slots(),
        bare_analytic,
        "a recorder changed the gear"
    );
    assert!(diff_fields(&bare, &on).is_empty());
    assert!(diff_fields(&fast, &on).is_empty());

    let (f, m) = (fast_rec.snapshot(), mega_rec.snapshot());
    assert_eq!(m.counters, f.counters);
    assert_eq!(m.histograms, f.histograms);
    assert!(m.counter(tm::ENGINE_DELIVERIES) > 0);
}
