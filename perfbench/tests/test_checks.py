"""Unit tests of the benchmark's output checks: each defect the
benchmark must catch is fed in as a doctored summary and must come back
as a problem, while the genuine summaries pass.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import checks  # noqa: E402
import run  # noqa: E402

MEGA = """scheme      : multi-tree(d=3, prerecorded)
engine      : mega
receivers   : 100000
slots run   : 287
max delay   : 31 slots
avg delay   : 20.79 slots
max buffer  : 11 packets
max peers   : 6
transmissions: 26862784
"""

CHECKED = MEGA.replace("engine      : mega", "engine      : checked (reference ≡ fast ≡ mega)")

JSONL = "\n".join([
    '{"kind":"counter","name":"engine.deliveries","value":26862784}',
    '{"kind":"counter","name":"engine.slots","value":287}',
    '{"kind":"counter","name":"engine.transmissions","value":26862784}',
    '{"kind":"span","name":"engine.run","count":1,"total_ns":2309719308}',
])

CROWD = """scheme      : flash-crowd(n0=1000,d=3,joins=20000,fails=201)
engine      : mega
receivers   : 21000
slots run   : 1280
max delay   : 26 slots
avg delay   : 17.98 slots
max buffer  : 15 packets
max peers   : 22
transmissions: 24274346
missing     : 2117423 packets across 21000 nodes
scenario    : `ramp:20000@10+200,fail:200-400@150` (20000 joins, 201 regional departures)
qoe @ h·d=27: P(interrupt) 0.0072, 0.01 stall slots avg, smoothness 1.0000, throughput 0.9557 (wait policy)
"""

DES = """scheme      : self-healing multi-tree(d=3, prerecorded)
engine      : des (jitter ≤ 0.5 slots, self-healing repair+nack), wheel queue
receivers   : 5000
slots run   : 400
max delay   : 59 slots
avg delay   : 31.83 slots
max buffer  : 46 packets
max peers   : 116
transmissions: 1494851
des events  : 4872597
missing     : 3055 packets across 91 nodes
failures det: 54
repairs     : 54 committed, 89523 nodes displaced
nacks       : 36370 sent, 31805 retransmissions, 36358 repaired, 0 abandoned
control msgs: 116675
"""


def values(text):
    return checks.core_values(checks.parse_summary(text))


class GenuineOutputPasses(unittest.TestCase):
    def test_mega_summary_passes_every_check(self):
        v = values(MEGA)
        self.assertEqual(v["max_delay"], 31)
        self.assertEqual(checks.check_delay_bound(v, 33), [])
        self.assertEqual(checks.check_against_oracle(v, values(CHECKED)), [])
        self.assertEqual(checks.check_same_summary(MEGA, CHECKED), [])
        self.assertEqual(checks.check_jsonl(JSONL, v), [])

    def test_crowd_and_des_summaries_pass(self):
        self.assertEqual(checks.check_scenario(checks.parse_summary(CROWD), 20000, 201), [])
        self.assertAlmostEqual(checks.delivered_frac(values(CROWD), 256), 1 - 2117423 / (21000 * 256))
        self.assertEqual(checks.check_des_counters(checks.parse_summary(DES)), [])
        self.assertEqual(values(MEGA)["missing"], 0)


class DefectsAreFailures(unittest.TestCase):
    def test_delay_above_h_times_d_fails(self):
        late = values(MEGA.replace("max delay   : 31", "max delay   : 34"))
        self.assertTrue(checks.check_delay_bound(late, 33))

    def test_buffer_above_h_times_d_fails(self):
        full = values(MEGA.replace("max buffer  : 11", "max buffer  : 34"))
        self.assertTrue(checks.check_delay_bound(full, 33))

    def test_transmissions_off_by_one_fail(self):
        off = values(MEGA.replace("26862784", "26862785"))
        self.assertTrue(checks.check_against_oracle(off, values(CHECKED)))
        self.assertTrue(checks.check_same_summary(MEGA.replace("26862784", "26862785"), MEGA))

    def test_slots_differing_from_the_oracle_fail(self):
        off = values(MEGA.replace("slots run   : 287", "slots run   : 288"))
        self.assertTrue(checks.check_against_oracle(off, values(CHECKED)))

    def test_jsonl_counter_disagreeing_with_the_summary_fails(self):
        bad = JSONL.replace('"engine.slots","value":287', '"engine.slots","value":286')
        self.assertTrue(checks.check_jsonl(bad, values(MEGA)))
        self.assertTrue(checks.check_jsonl("", values(MEGA)), "a missing counter is a failure")
        self.assertTrue(checks.check_jsonl("not json", values(MEGA)))

    def test_scenario_line_off_plan_fails(self):
        fewer = CROWD.replace("(20000 joins", "(19999 joins")
        self.assertTrue(checks.check_scenario(checks.parse_summary(fewer), 20000, 201))
        no_qoe = "\n".join(line for line in CROWD.splitlines() if not line.startswith("qoe"))
        self.assertTrue(checks.check_scenario(checks.parse_summary(no_qoe), 20000, 201))

    def test_inconsistent_recovery_counters_fail(self):
        more_repairs = DES.replace("54 committed", "55 committed")
        self.assertTrue(checks.check_des_counters(checks.parse_summary(more_repairs)))
        over_repaired = DES.replace("36358 repaired", "36371 repaired")
        self.assertTrue(checks.check_des_counters(checks.parse_summary(over_repaired)))

    def test_truncated_summary_fails(self):
        cut = "\n".join(MEGA.splitlines()[:4])
        self.assertIsNone(values(cut))
        self.assertTrue(checks.check_core(checks.parse_summary(cut)))
        self.assertTrue(run.call_problems(0, cut, ""))

    def test_crash_and_panic_fail(self):
        self.assertTrue(run.call_problems(1, MEGA, "error"))
        self.assertTrue(run.call_problems(0, MEGA, "thread 'main' panicked at src/x.rs"))
        self.assertEqual(run.call_problems(0, MEGA, ""), [])

    def test_traced_run_must_reproduce_the_summary(self):
        v = values(MEGA)
        self.assertEqual(checks.check_ledger(dict(v), v), [])
        self.assertTrue(checks.check_ledger(dict(v, transmissions=v["transmissions"] - 1), v))


class MetricList(unittest.TestCase):
    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
