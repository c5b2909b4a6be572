#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `clustream simulate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the `clustream` CLI and
the `perfbench-ledger` tracer from source (release profile, offline)
into `$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` calls `clustream simulate` on the workload over and over
  for S seconds, checks every summary it prints and reports the
  end-to-end metrics; set-up time is timed separately by the ledger
  with tracing off. Every call follows one run of the fixed reference
  kernel `perfbench-reference`, and times are reported relative to it;
* `--trace 1` alternates one untraced call with one traced ledger run
  for S seconds and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

# A call still running after this long is killed and counts as failed,
# which keeps every run inside the 180 s budget.
CALL_LIMIT_S = 150
# Set-up takes milliseconds and its timing drifts with the host's load,
# so after every timed call the ledger builds the inputs this many more
# times; setup_s is the median over all of them.
SETUP_REPS = 11
# Times are reported in seconds on a host where the fixed kernel
# `perfbench-reference` takes this long: a run's median time is
# multiplied by REFERENCE_S / (median wall clock of the reference runs
# interleaved with its calls). The shared host drifts between faster and
# slower phases lasting minutes, which move both medians by a similar
# factor; a call's own jitter is not tied to its neighbour's, so only
# the run's medians are scaled, not each call.
REFERENCE_S = 0.22
# des_churn's delay and buffer maxima (and its peak RSS, which takes one
# of two values) swing by tens of percent from one seed to the next, so
# each run averages this many sub-seeds derived from --seed.
DES_SUBSEEDS = 8

MEGA = ["--scheme", "multitree", "--n", "100000", "--d", "3", "--track", "256", "--engine", "mega"]
SCENARIO = "ramp:20000@10+200,fail:200-400@150"
CROWD = ["--scheme", "multitree", "--n", "1000", "--d", "3", "--track", "256", "--engine", "mega",
         "--scenario", SCENARIO]
CROWD_JOINS, CROWD_DEPARTURES = 20000, 201
DES = ["--scheme", "multitree", "--n", "5000", "--d", "3", "--track", "64", "--runtime", "des",
       "--queue", "wheel", "--latency", "jitter", "--jitter", "0.5", "--recovery", "repair+nack",
       "--churn-leave", "0.0005", "--churn-slots", "400"]

WORKLOADS = ("mega_metrics", "crowd_ramp", "des_churn")

# (name, unit) of every metric, in BENCHMARK.json's order.
END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("tx_per_s", "1/s"), ("peak_rss_mb", "MiB"),
    ("max_delay_slots", "slots"), ("avg_delay_slots", "slots"), ("max_buffer_pkts", "packets"),
    ("delivered_frac", "ratio"), ("ok_frac", "ratio"),
]
PER_LAYER = [
    ("multitree.build_s", "s"), ("workloads.scenario_s", "s"), ("workloads.churn_s", "s"),
    ("workloads.qoe_s", "s"), ("workloads.qoe_nodes", "count"),
    ("recovery.crowd_build_s", "s"), ("recovery.heal_build_s", "s"),
    ("recovery.crowd_rebuilds", "count"), ("recovery.crowd_swaps", "count"),
    ("recovery.joins_applied", "count"), ("recovery.leaves_applied", "count"),
    ("sim.engine_s", "s"), ("sim.slots", "count"), ("sim.transmissions", "count"),
    ("sim.steady_frac", "ratio"), ("sim.ns_per_tx", "ns"), ("sim.useful_tx_frac", "ratio"),
    ("des.config_s", "s"), ("des.engine_s", "s"), ("des.events", "count"), ("des.ns_per_event", "ns"),
    ("des.deferred_sends", "count"), ("des.released_frac", "ratio"),
    ("des.deliveries_to_departed", "count"),
    ("recovery.failures_detected", "count"), ("recovery.repairs_committed", "count"),
    ("recovery.displaced_per_repair", "count"), ("recovery.nacks_sent", "count"),
    ("recovery.nack_repaired_frac", "ratio"), ("recovery.abandoned", "count"),
    ("recovery.control_msgs", "count"), ("recovery.latency_avg_slots", "slots"),
    ("telemetry.export_s", "s"), ("telemetry.lines", "count"),
    ("cli.unattributed_s", "s"), ("trace.total_s", "s"), ("trace.overhead_s", "s"),
    ("host.reference_s", "s"),
]
# Ledger counters that are times, so they are reported as medians.
TIMED_COUNTS = ("sim.ns_per_tx", "des.ns_per_event")


def des_subseeds(seed):
    """Disjoint sub-seed blocks: seed s owns s*K .. s*K+K-1."""
    return [seed * DES_SUBSEEDS + i for i in range(DES_SUBSEEDS)]


def workload_inputs(name, seed, work):
    """The `simulate` argument lists one run of `name` cycles through."""
    if name == "mega_metrics":
        return [MEGA + ["--metrics-out", str(work / "mega_metrics.jsonl")]]
    if name == "crowd_ramp":
        return [CROWD]
    return [DES + ["--des-seed", str(s), "--churn-seed", str(s)] for s in des_subseeds(seed)]


def track_of(argv):
    return int(argv[argv.index("--track") + 1])


class Binaries:
    def __init__(self, target):
        self.cli = str(target / "release" / "clustream")
        self.ledger = str(target / "release" / "perfbench-ledger")
        self.reference = str(target / "release" / "perfbench-reference")


def build(root, target):
    """Build both binaries; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["-p", "clustream-cli"], ["--manifest-path", "perfbench/ledger/Cargo.toml"]):
        subprocess.run(["cargo", "build", "--release", "--offline", *extra],
                       cwd=root, env=env, stdout=sys.stderr, check=True)
    return Binaries(target)


def spawn(argv, work, limit=CALL_LIMIT_S):
    """Run `argv` to completion. Returns (wall seconds, peak RSS MiB,
    exit code, stdout, stderr); the exit code is negative on a signal."""
    out, err = work / "call.out", work / "call.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    timer = threading.Timer(limit, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status), out.read_text(), err.read_text()


def call_problems(code, stdout, stderr):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
    if "panicked" in stderr:
        problems.append("panicked: " + stderr.strip()[-300:])
    return problems + checks.check_core(checks.parse_summary(stdout))


def oracle_summary(bins, argv, work):
    """`--engine checked` (reference = fast = mega) on the same input.
    Cached per binary content, since one checked run at N=10^5 takes
    about half a minute."""
    digest = hashlib.sha256(Path(bins.cli).read_bytes())
    digest.update("\0".join(argv).encode())
    cache = work / f"oracle-{digest.hexdigest()[:24]}.txt"
    if cache.exists():
        return cache.read_text()
    checked = list(argv)
    checked[checked.index("--engine") + 1] = "checked"
    _, _, code, stdout, stderr = spawn([bins.cli, "simulate", *checked], work)
    if code != 0 or checks.core_values(checks.parse_summary(stdout)) is None:
        raise RuntimeError(f"checked engine failed (exit {code}): {stderr.strip()[-300:]}")
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(stdout)
    tmp.replace(cache)
    return stdout


def workload_checks(name, bins, work, inputs, bound):
    """Per-call output check for workload `name`: (input index, stdout)
    -> problems."""
    oracle = None
    if name == "mega_metrics":
        text = oracle_summary(bins, MEGA, work)
        oracle = (text, checks.core_values(checks.parse_summary(text)))

    def check(k, stdout):
        summary = checks.parse_summary(stdout)
        values = checks.core_values(summary)
        if values is None:
            return []  # already reported by call_problems
        problems = []
        if oracle:
            problems += checks.check_delay_bound(values, bound)
            problems += checks.check_against_oracle(values, oracle[1])
            problems += checks.check_same_summary(stdout, oracle[0])
        if name == "mega_metrics":
            path = Path(inputs[k][inputs[k].index("--metrics-out") + 1])
            jsonl = path.read_text() if path.exists() else ""
            problems += checks.check_jsonl(jsonl, values)
        if name == "crowd_ramp":
            problems += checks.check_scenario(summary, CROWD_JOINS, CROWD_DEPARTURES)
        if name == "des_churn":
            problems += checks.check_des_counters(summary)
        return problems

    return check


def median(xs):
    return statistics.median(xs) if xs else 0.0


def reference_time(bins, work):
    """Wall clock of one run of the reference kernel."""
    wall, _, code, _, stderr = spawn([bins.reference], work)
    if code != 0:
        raise RuntimeError(f"reference kernel failed (exit {code}): {stderr.strip()[-300:]}")
    return wall


def setup_times(bins, argv, work):
    _, _, code, stdout, stderr = spawn([bins.ledger, "setup", str(SETUP_REPS), "--", *argv], work)
    if code != 0:
        raise RuntimeError(f"ledger setup failed (exit {code}): {stderr.strip()[-300:]}")
    return json.loads(stdout)


def end_to_end(name, seed, seconds, bins, work):
    inputs = workload_inputs(name, seed, work)
    bound = setup_times(bins, inputs[0], work)["bound"]
    check = workload_checks(name, bins, work, inputs, bound)
    first = {}  # input index -> first stdout, for the repeatability check
    calls = []  # (input index, wall, rss, problems)
    refs = []  # reference kernel wall clock before each timed call
    setups = []
    start = time.perf_counter()
    while len(calls) < len(inputs) or time.perf_counter() - start < seconds:
        k = len(calls) % len(inputs)
        refs.append(reference_time(bins, work))
        wall, rss, code, stdout, stderr = spawn([bins.cli, "simulate", *inputs[k]], work)
        problems = call_problems(code, stdout, stderr)
        if not problems:
            problems = check(k, stdout)
            if first.setdefault(k, stdout) != stdout:
                problems += checks.check_same_summary(stdout, first[k], ignore=())
        calls.append((k, wall, rss, problems))
        setups += setup_times(bins, inputs[k], work)["setup_s"]
    if name == "mega_metrics":
        # The recorder must not change what the run computes.
        _, _, code, stdout, stderr = spawn([bins.cli, "simulate", *MEGA], work)
        extra = call_problems(code, stdout, stderr) or checks.check_same_summary(first.get(0, ""), stdout)
        calls.append((0, None, None, extra))

    values = {k: checks.core_values(checks.parse_summary(text)) for k, text in first.items()}
    values = {k: v for k, v in values.items() if v is not None}
    timed = [(k, wall, rss) for k, wall, rss, _ in calls if wall is not None and k in values]
    failed = sum(1 for *_, problems in calls if problems)

    def mean_of(f):
        return statistics.fmean(f(k, v) for k, v in values.items()) if values else 0.0

    scale = REFERENCE_S / median(refs)
    wall = median([w for _, w, _ in timed]) * scale
    metrics = {
        "wall_s": wall,
        "setup_s": median(setups) * scale,
        "tx_per_s": mean_of(lambda k, v: v["transmissions"]) / wall if wall else 0.0,
        "peak_rss_mb": mean_of(lambda k, v: median([r for i, _, r in timed if i == k])),
        "max_delay_slots": mean_of(lambda k, v: v["max_delay"]),
        "avg_delay_slots": mean_of(lambda k, v: float(v["avg_delay"])),
        "max_buffer_pkts": mean_of(lambda k, v: v["max_buffer"]),
        "delivered_frac": mean_of(lambda k, v: checks.delivered_frac(v, track_of(inputs[k]))),
        "ok_frac": (len(calls) - failed) / len(calls),
    }
    for i, (k, _, _, problems) in enumerate(calls):
        for p in problems:
            print(f"FAILED call {i} (input {k}): {p}")
    print(f"{name}: {len(calls)} calls, {len(timed)} timed, {len(inputs)} distinct inputs, "
          f"set-up built {len(setups)} times; h*d bound {bound}")
    print(f"unscaled medians: wall {median([w for _, w, _ in timed]):.4f} s, "
          f"set-up {median(setups):.6f} s, reference kernel {median(refs):.4f} s; "
          f"times below are scaled by {REFERENCE_S} s / {median(refs):.4f} s")
    print(f"{'metric':<18}{'value':>16}  unit")
    for metric, unit in END_TO_END:
        print(f"{metric:<18}{metrics[metric]:>16.6g}  {unit}")
    print(f"{'failed_frac':<18}{failed / len(calls):>16.6g}  ratio")
    return len(calls), failed, metrics


def per_layer(name, seed, seconds, bins, work):
    argv = workload_inputs(name, seed, work)[0]
    walls, totals, reps, problems, refs = [], [], [], [], []
    start = time.perf_counter()
    while not problems or time.perf_counter() - start < seconds:
        refs.append(reference_time(bins, work))
        wall, _, code, stdout, stderr = spawn([bins.cli, "simulate", *argv], work)
        call = call_problems(code, stdout, stderr)
        total, _, tcode, tout, terr = spawn([bins.ledger, "trace", "--", *argv], work)
        if tcode != 0:
            call.append(f"ledger trace failed (exit {tcode}): {terr.strip()[-300:]}")
        if not call:
            rep = json.loads(tout)
            call = checks.check_ledger(rep["result"], checks.core_values(checks.parse_summary(stdout)))
        problems.append(call)
        if not call:
            walls.append(wall)
            totals.append(total)
            reps.append(rep)

    def layers_s(rep):
        return {k: v for k, v in rep["self_s"].items() if "." in k}

    metrics = {metric: 0.0 for metric, _ in PER_LAYER}
    if reps:
        names = {k for rep in reps for k in layers_s(rep)}
        for layer in names:
            metrics[layer + "_s"] = median([layers_s(rep).get(layer, 0.0) for rep in reps])
        metrics.update({k: v for k, v in reps[-1]["counts"].items() if k not in TIMED_COUNTS})
        for k in TIMED_COUNTS:
            metrics[k] = median([rep["counts"].get(k, 0.0) for rep in reps])
        spans = [sum(layers_s(rep).values()) for rep in reps]
        metrics["cli.unattributed_s"] = median(walls) - median(spans)
        metrics["trace.total_s"] = median(totals)
        metrics["trace.overhead_s"] = median([t - s for t, s in zip(totals, spans)])
        metrics["host.reference_s"] = median(refs)
        wall = median(walls)
        print(f"{name}: {len(reps)} traced runs; untraced wall_s {wall:.4f} s, "
              f"traced total {metrics['trace.total_s']:.4f} s (unscaled; reference kernel "
              f"{metrics['host.reference_s']:.4f} s)")
        print(f"{'layer':<28}{'self s':>12}{'of wall_s':>11}")
        shares = sorted(((metrics[k + '_s'], k) for k in names), reverse=True)
        shares.append((metrics["cli.unattributed_s"], "cli.unattributed"))
        for t, layer in shares:
            print(f"{layer:<28}{t:>12.6f}{t / wall:>10.1%}")
        print(f"dominant layer: {shares[0][1]} ({shares[0][0] / wall:.1%} of wall_s)")
    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        for msg in p:
            print(f"FAILED traced rep {i}: {msg}")
    return len(problems), failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = Path.cwd()
    target = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if not (root / "crates" / "cli" / "Cargo.toml").is_file():
        print("perfbench: run from the repository root (crates/cli is missing)", file=sys.stderr)
        return 2
    work = target / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bins = build(root, target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.workload == "des_churn":
        print(f"seed {args.seed}: --des-seed/--churn-seed {des_subseeds(args.seed)}")
    else:
        print(f"seed {args.seed}: {args.workload} is seed-independent")
    measure = per_layer if args.trace else end_to_end
    try:
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, bins, work)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
