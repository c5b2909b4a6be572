//! `perfbench-ledger`: the traced half of the `clustream simulate`
//! benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench-ledger setup REPS -- <simulate args>
//! perfbench-ledger trace -- <simulate args>
//! ```
//!
//! Both take the argument list the benchmark passes to `clustream
//! simulate` and call the public constructors and engines that
//! `simulate` calls for it, in the same order. `setup` builds the inputs
//! REPS times with tracing off and prints each build's time. `trace`
//! runs the workload once with a span around every call into a layer
//! crate and prints the spans, each span name's self time, the layer
//! counters and the run's summary numbers as one JSON object.
//!
//! What `simulate` does besides these calls (argument parsing, the
//! validation build of the scheme, the QoE replica of a crowd scheme,
//! the report) is deliberately not reproduced: the benchmark reports it
//! as `cli.unattributed_s`.

mod trace;

use clustream_analysis::thm2_worst_delay_bound;
use clustream_core::{CoreError, NodeId, PacketId, Scheme};
use clustream_des::{DesConfig, DesEngine, LatencyModel, QueueKind, UplinkModel, TICKS_PER_SLOT};
use clustream_multitree::{greedy_forest, Construction, MultiTreeScheme, StreamMode};
use clustream_recovery::{FlashCrowdScheme, RecoveryConfig, SelfHealingMultiTree};
use clustream_sim::{MegaEngine, RunResult, SimConfig};
use clustream_telemetry::{to_jsonl, MemoryRecorder};
use clustream_workloads::{
    summarize, ChurnTrace, ChurnTraceConfig, NodeTimeline, PlayPolicy, ScenarioPlan,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use trace::{self_times, Span, Tracer};

/// The `simulate` flags the benchmark's workloads use.
const FLAGS: &[&str] = &[
    "scheme",
    "n",
    "d",
    "track",
    "engine",
    "scenario",
    "metrics-out",
    "runtime",
    "queue",
    "latency",
    "jitter",
    "recovery",
    "churn-leave",
    "churn-slots",
    "des-seed",
    "churn-seed",
];

/// `simulate`'s flags as `--key value` pairs.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .filter(|k| FLAGS.contains(k))
                .ok_or_else(|| {
                    format!(
                        "unsupported simulate argument `{flag}`; supported flags are: --{}",
                        FLAGS.join(", --")
                    )
                })?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        }
    }

    /// Fail unless `--key` (or its `simulate` default) is `want`, the
    /// only value the ledger reproduces.
    fn require(&self, key: &str, want: &str, default: &str) -> Result<(), String> {
        let got = self.get(key).unwrap_or(default);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "--{key} `{got}` is not reproduced by the ledger; it supports `{want}`"
            ))
        }
    }
}

fn core(e: CoreError) -> String {
    e.to_string()
}

/// A workload's inputs, built and ready for slot 0.
enum Inputs {
    /// The static multi-tree on mega, optionally exporting telemetry.
    Static {
        scheme: MultiTreeScheme,
        cfg: SimConfig,
        export: Option<(Arc<MemoryRecorder>, String)>,
    },
    /// A scripted flash crowd on mega.
    Crowd {
        plan: ScenarioPlan,
        scheme: FlashCrowdScheme,
        cfg: SimConfig,
    },
    /// The self-healing forest on the DES under churn.
    Des {
        scheme: SelfHealingMultiTree,
        cfg: DesConfig,
    },
}

/// Build the inputs the way `simulate` does for these arguments.
fn setup(a: &Args, t: &mut Tracer) -> Result<Inputs, String> {
    a.require("scheme", "multitree", "")?;
    let n: usize = a.num("n", 0)?;
    let d: usize = a.num("d", 2)?;
    let track: u64 = a.num("track", 48)?;
    let mode = StreamMode::PreRecorded;
    if a.get("runtime").is_some() {
        a.require("runtime", "des", "slot")?;
        a.require("queue", "wheel", "heap")?;
        a.require("latency", "jitter", "fixed")?;
        a.require("recovery", "repair+nack", "off")?;
        let jitter: f64 = a.num("jitter", 0.5)?;
        let churn = ChurnTraceConfig {
            initial_members: n,
            slots: a.num("churn-slots", 200)?,
            join_rate: 0.0,
            leave_rate: a.num("churn-leave", 0.0)?,
            rejoin_rate: 0.0,
            seed: a.num("churn-seed", 0)?,
        };
        let des_seed: u64 = a.num("des-seed", 0)?;
        let trace = t.span("workloads.churn", |_| ChurnTrace::generate(churn));
        let cfg = t.span("des.config", |_| -> Result<DesConfig, String> {
            let latency = LatencyModel::UniformJitter { jitter };
            latency.validate()?;
            let recovery = RecoveryConfig::repair_nack();
            recovery.validate()?;
            let horizon = trace.config.slots.max(4 * track);
            let cfg = DesConfig::slot_faithful(SimConfig::until_complete(track, horizon))
                .with_latency(latency)
                .with_uplink(UplinkModel::Unconstrained)
                .seeded(des_seed)
                .with_recovery(recovery)
                .with_queue(QueueKind::Wheel)
                .with_churn(trace);
            cfg.validate()?;
            Ok(cfg)
        })?;
        let scheme = t
            .span("recovery.heal_build", |_| {
                SelfHealingMultiTree::new(n, d, mode, Construction::Greedy)
            })
            .map_err(core)?;
        return Ok(Inputs::Des { scheme, cfg });
    }
    a.require("engine", "mega", "fast")?;
    if let Some(spec) = a.get("scenario") {
        let (plan, events) = t.span("workloads.scenario", |_| -> Result<_, String> {
            let plan = ScenarioPlan::parse(spec)?;
            let initial: Vec<u64> = (1..=n as u64).collect();
            let events = plan.compile(n).resolve(&initial, &[]);
            Ok((plan, events))
        })?;
        // `FlashCrowdScheme::from_plan` is exactly compile + resolve +
        // `new`; the first two are the workloads layer's share.
        let scheme = t
            .span("recovery.crowd_build", |_| {
                FlashCrowdScheme::new(n, d, mode, Construction::Greedy, events)
            })
            .map_err(core)?;
        let cfg = if plan.total_joins() > 0 || !plan.failures.is_empty() {
            SimConfig::lossy_regime(track, plan.last_event_slot().max(track) + 4 * track)
        } else {
            SimConfig::until_complete(track, 1_000_000)
        };
        return Ok(Inputs::Crowd { plan, scheme, cfg });
    }
    let scheme = t
        .span("multitree.build", |_| {
            greedy_forest(n, d).map(|forest| MultiTreeScheme::new(forest, mode))
        })
        .map_err(core)?;
    let mut cfg = SimConfig::until_complete(track, 1_000_000);
    let export = a.get("metrics-out").map(|path| {
        let (rec, tel) = MemoryRecorder::handle();
        cfg = cfg.clone().with_telemetry(tel);
        (rec, path.to_string())
    });
    Ok(Inputs::Static {
        scheme,
        cfg,
        export,
    })
}

/// Layer counters, by per-layer metric name.
type Counts = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Duration of the span closed last: the engine call just made.
fn last_span_ns(t: &Tracer) -> u64 {
    t.spans().last().map_or(0, Span::duration_ns)
}

/// `MegaEngine::run` under a `sim.engine` span, with its counters.
fn mega(
    scheme: &mut dyn Scheme,
    cfg: &SimConfig,
    t: &mut Tracer,
) -> Result<(RunResult, Counts), String> {
    let mut engine = MegaEngine::new();
    let r = t
        .span("sim.engine", |_| engine.run(scheme, cfg))
        .map_err(core)?;
    let tx = r.total_transmissions as f64;
    let counts = vec![
        ("sim.slots", r.slots_run as f64),
        ("sim.transmissions", tx),
        (
            "sim.steady_frac",
            ratio(engine.steady_slots() as f64, r.slots_run as f64),
        ),
        ("sim.ns_per_tx", ratio(last_span_ns(t) as f64, tx)),
        (
            "sim.useful_tx_frac",
            1.0 - ratio(r.duplicate_deliveries as f64, tx),
        ),
    ];
    Ok((r, counts))
}

/// Run the built workload, timing each layer call.
fn run(inputs: Inputs, t: &mut Tracer) -> Result<(RunResult, Counts), String> {
    match inputs {
        Inputs::Static {
            mut scheme,
            cfg,
            export,
        } => {
            let (r, mut counts) = mega(&mut scheme, &cfg, t)?;
            if let Some((rec, path)) = export {
                let lines = t.span("telemetry.export", |_| -> Result<usize, String> {
                    let text = to_jsonl(&rec.snapshot());
                    std::fs::write(&path, &text)
                        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    Ok(text.lines().count())
                })?;
                counts.push(("telemetry.lines", lines as f64));
            }
            Ok((r, counts))
        }
        Inputs::Crowd {
            plan,
            mut scheme,
            cfg,
        } => {
            let (r, mut counts) = mega(&mut scheme, &cfg, t)?;
            let track = cfg.track_packets;
            let nodes = t.span("workloads.qoe", |_| {
                let join_slots = scheme.join_slots();
                let failed = |id: u64| plan.failures.iter().any(|f| (f.lo..=f.hi).contains(&id));
                let timelines: Vec<NodeTimeline> = (1..=scheme.num_receivers() as u64)
                    .filter(|&id| !failed(id))
                    .map(|id| NodeTimeline {
                        node: id,
                        join_slot: join_slots.get(id as usize).copied().unwrap_or(0),
                        usable: (0..track)
                            .map(|p| {
                                r.arrivals
                                    .usable_slot(NodeId(id as u32), PacketId(p))
                                    .map(|s| s.t())
                            })
                            .collect(),
                    })
                    .collect();
                let bound = thm2_worst_delay_bound(timelines.len(), scheme.d());
                black_box(summarize(&timelines, PlayPolicy::Wait, bound));
                timelines.len()
            });
            counts.extend([
                ("workloads.qoe_nodes", nodes as f64),
                ("recovery.crowd_rebuilds", scheme.rebuilds() as f64),
                ("recovery.crowd_swaps", scheme.total_swaps() as f64),
                ("recovery.joins_applied", scheme.joins_applied() as f64),
                ("recovery.leaves_applied", scheme.leaves_applied() as f64),
            ]);
            Ok((r, counts))
        }
        Inputs::Des { mut scheme, cfg } => {
            let mut engine = DesEngine::new();
            let r = t
                .span("des.engine", |_| engine.run(&mut scheme, &cfg))
                .map_err(core)?;
            let s = *engine.stats();
            let events = s.events_processed as f64;
            let mut counts = vec![
                ("des.events", events),
                ("des.ns_per_event", ratio(last_span_ns(t) as f64, events)),
                ("des.deferred_sends", s.deferred_sends as f64),
                (
                    "des.released_frac",
                    ratio(s.released_sends as f64, s.deferred_sends as f64),
                ),
                (
                    "des.deliveries_to_departed",
                    s.deliveries_to_departed as f64,
                ),
            ];
            if let Some(res) = &r.resilience {
                counts.extend([
                    ("recovery.failures_detected", res.failures_detected as f64),
                    ("recovery.repairs_committed", res.repairs_committed as f64),
                    (
                        "recovery.displaced_per_repair",
                        ratio(res.displaced_total as f64, res.repairs_committed as f64),
                    ),
                    ("recovery.nacks_sent", res.nacks_sent as f64),
                    (
                        "recovery.nack_repaired_frac",
                        ratio(res.repaired_packets as f64, res.nacks_sent as f64),
                    ),
                    ("recovery.abandoned", res.abandoned_packets as f64),
                    ("recovery.control_msgs", res.control_messages as f64),
                    (
                        "recovery.latency_avg_slots",
                        res.avg_recovery_latency_slots(TICKS_PER_SLOT)
                            .unwrap_or(0.0),
                    ),
                ]);
            }
            Ok((r, counts))
        }
    }
}

/// JSON number; the ledger only produces finite values.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn setup_command(reps: usize, a: &Args) -> Result<String, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut t = Tracer::new(false);
        let start = Instant::now();
        let inputs = setup(a, &mut t)?;
        times.push(start.elapsed().as_secs_f64());
        black_box(&inputs);
    }
    let n: usize = a.num("n", 0)?;
    let d: usize = a.num("d", 2)?;
    let list: Vec<String> = times.into_iter().map(num).collect();
    Ok(object([
        ("setup_s", format!("[{}]", list.join(","))),
        ("bound", thm2_worst_delay_bound(n, d).to_string()),
    ]))
}

fn trace_command(a: &Args) -> Result<String, String> {
    let mut t = Tracer::new(true);
    let (r, counts) = t.span("run", |t| -> Result<_, String> {
        let inputs = t.span("setup", |t| setup(a, t))?;
        run(inputs, t)
    })?;
    let mut spans = String::from("[");
    for (i, s) in t.spans().iter().enumerate() {
        if i > 0 {
            spans.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            spans,
            "{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    spans.push(']');
    let self_s = object(
        self_times(t.spans())
            .into_iter()
            .map(|(name, ns)| (name, num(ns as f64 / 1e9))),
    );
    let counts = object(counts.into_iter().map(|(k, v)| (k, num(v))));
    let missing = r.loss.as_ref().map_or(0, |l| l.total_missing());
    let result = object([
        ("receivers", r.qos.n.to_string()),
        ("slots", r.slots_run.to_string()),
        ("transmissions", r.total_transmissions.to_string()),
        ("max_delay", r.qos.max_delay().to_string()),
        ("avg_delay", format!("\"{:.2}\"", r.qos.avg_delay())),
        ("max_buffer", r.qos.max_buffer().to_string()),
        ("missing", missing.to_string()),
    ]);
    Ok(object([
        ("spans", spans),
        ("self_s", self_s),
        ("counts", counts),
        ("result", result),
    ]))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench-ledger setup REPS -- <simulate args> | trace -- <simulate args>";
    let split = argv.iter().position(|s| s == "--");
    let outcome = match (argv.first().map(String::as_str), split) {
        (Some(cmd), Some(at)) => Args::parse(&argv[at + 1..]).and_then(|a| match (cmd, at) {
            ("setup", 2) => argv[1]
                .parse::<usize>()
                .ok()
                .filter(|&r| r > 0)
                .ok_or_else(|| format!("REPS must be a positive integer, got `{}`", argv[1]))
                .and_then(|reps| setup_command(reps, &a)),
            ("trace", 1) => trace_command(&a),
            _ => Err(usage.to_string()),
        }),
        _ => Err(usage.to_string()),
    };
    match outcome {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench-ledger: {e}");
            std::process::exit(2);
        }
    }
}
