"""Seed plumbing: --seed reaches des_churn's --des-seed/--churn-seed, one
seed repeats the run byte for byte and another seed changes it; the
other workloads do not depend on the seed.

The last test builds the `clustream` binary (release, offline) into
$CARGO_TARGET_DIR, default `.bench_build`, and runs two des_churn inputs.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def flag(argv, name):
    return argv[argv.index(name) + 1]


class SeedPlumbing(unittest.TestCase):
    def test_seedless_workloads_ignore_the_seed(self):
        work = Path("work")
        for name in ("mega_metrics", "crowd_ramp"):
            self.assertEqual(run.workload_inputs(name, 1, work), run.workload_inputs(name, 2, work))

    def test_seed_reaches_both_des_flags_in_disjoint_blocks(self):
        inputs = run.workload_inputs("des_churn", 3, Path("work"))
        self.assertEqual(len(inputs), run.DES_SUBSEEDS)
        subseeds = [int(flag(argv, "--des-seed")) for argv in inputs]
        self.assertEqual(subseeds, run.des_subseeds(3))
        self.assertEqual(subseeds, [int(flag(argv, "--churn-seed")) for argv in inputs])
        self.assertFalse(set(subseeds) & set(run.des_subseeds(4)))

    def test_one_seed_repeats_des_churn_and_another_changes_it(self):
        target = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
        bins = run.build(ROOT, target)
        with tempfile.TemporaryDirectory(dir=target) as tmp:
            work = Path(tmp)

            def summary(seed):
                argv = run.workload_inputs("des_churn", seed, work)[0]
                _, _, code, stdout, stderr = run.spawn([bins.cli, "simulate", *argv], work)
                self.assertEqual(code, 0, stderr)
                return stdout

            first = summary(0)
            self.assertEqual(first, summary(0), "same seed, same bytes")
            self.assertNotEqual(first, summary(1), "another seed, another run")


if __name__ == "__main__":
    unittest.main()
