"""Output checks for `clustream simulate` summaries.

Each check takes what the program printed (or wrote) and returns a list
of problems; an empty list means the output passed. A call with any
problem counts as failed.
"""

import json
import re

# Lines every `simulate` summary prints, by label.
REQUIRED = ("receivers", "slots run", "max delay", "avg delay", "max buffer", "transmissions")


def parse_summary(text):
    """`label : value` lines of a summary, keyed by the stripped label."""
    out = {}
    for line in text.splitlines():
        label, sep, value = line.partition(":")
        if sep:
            out[label.strip()] = value.strip()
    return out


def _ints(value):
    return [int(x) for x in re.findall(r"\d+", value)]


def core_values(summary):
    """The numbers every workload reports, or None if a line is missing
    or malformed. `avg_delay` stays the printed two-decimal string."""
    if any(label not in summary for label in REQUIRED):
        return None
    try:
        avg = summary["avg delay"].split()[0]
        float(avg)
        return {
            "receivers": int(summary["receivers"]),
            "slots": int(summary["slots run"]),
            "max_delay": _ints(summary["max delay"])[0],
            "avg_delay": avg,
            "max_buffer": _ints(summary["max buffer"])[0],
            "transmissions": int(summary["transmissions"]),
            "missing": _ints(summary.get("missing", "0"))[0],
        }
    except (ValueError, IndexError):
        return None


def delivered_frac(values, track):
    """1 - missing / (receivers x track)."""
    return 1.0 - values["missing"] / (values["receivers"] * track)


def check_core(summary):
    if core_values(summary) is None:
        missing = [label for label in REQUIRED if label not in summary]
        return [f"summary lacks or garbles lines: {missing or list(REQUIRED)}"]
    return []


def check_delay_bound(values, bound):
    """Theorem 2: worst delay and worst buffer stay within h*d."""
    problems = []
    if values["max_delay"] > bound:
        problems.append(f"max delay {values['max_delay']} exceeds the h*d bound {bound}")
    if values["max_buffer"] > bound:
        problems.append(f"max buffer {values['max_buffer']} exceeds the h*d bound {bound}")
    return problems


def check_against_oracle(values, oracle):
    """Slots and transmissions equal the checked engine's on the same input."""
    return [
        f"{key} {values[key]} differs from the checked engine's {oracle[key]}"
        for key in ("slots", "transmissions")
        if values[key] != oracle[key]
    ]


def check_same_summary(text, reference, ignore=("engine", "metrics")):
    """Two summaries agree line for line, apart from the `ignore` labels."""
    def kept(t):
        return [
            line for line in t.splitlines() if line.partition(":")[0].strip() not in ignore
        ]

    a, b = kept(text), kept(reference)
    if a == b:
        return []
    diff = next((f"`{x}` vs `{y}`" for x, y in zip(a, b) if x != y), f"{len(a)} vs {len(b)} lines")
    return [f"summary differs from the reference: {diff}"]


def check_jsonl(jsonl_text, values):
    """The exported `engine.slots`/`engine.transmissions` counters equal
    the printed summary's."""
    counters = {}
    for line in jsonl_text.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            return [f"metrics file has a malformed line: `{line[:80]}`"]
        if row.get("kind") == "counter":
            counters[row.get("name")] = row.get("value")
    problems = []
    for name, key in (("engine.slots", "slots"), ("engine.transmissions", "transmissions")):
        if counters.get(name) != values[key]:
            problems.append(f"metrics file {name} = {counters.get(name)} but the summary says {values[key]}")
    return problems


def check_scenario(summary, joins, departures):
    """The scenario line reports the plan's joins and regional departures."""
    line = summary.get("scenario", "")
    m = re.search(r"\((\d+) joins, (\d+) regional departures\)", line)
    if not m:
        return [f"scenario line missing or malformed: `{line}`"]
    got = (int(m.group(1)), int(m.group(2)))
    if got != (joins, departures):
        return [f"scenario reports {got[0]} joins / {got[1]} departures, plan has {joins} / {departures}"]
    if not any(label.startswith("qoe @") for label in summary):
        return ["scenario run printed no qoe line"]
    return []


def check_des_counters(summary):
    """Recovery counters are mutually consistent."""
    try:
        detected = int(summary["failures det"])
        repairs = _ints(summary["repairs"])[0]
        sent, _retx, repaired, abandoned = _ints(summary["nacks"])[:4]
        _ints(summary["des events"])[0]
    except (KeyError, ValueError, IndexError):
        return ["des summary lacks recovery or event lines"]
    problems = []
    if repairs > detected:
        problems.append(f"{repairs} repairs committed but only {detected} failures detected")
    if repaired > sent:
        problems.append(f"{repaired} packets repaired but only {sent} NACKs sent")
    if abandoned > sent:
        problems.append(f"{abandoned} packets abandoned but only {sent} NACKs sent")
    return problems


def check_ledger(result, values):
    """The traced ledger reproduced the untraced run's numbers."""
    return [
        f"traced {key} {result.get(key)} differs from simulate's {values[key]}"
        for key in ("receivers", "slots", "transmissions", "max_delay", "avg_delay", "max_buffer", "missing")
        if result.get(key) != values[key]
    ]
