#!/usr/bin/env python3
"""Self-test of the benchmark: tiny-size runs of every workload, untraced and
traced; the run deadline; and the refusal to run without the sources.

    python3 perfbench/test_perfbench.py          # from the repository root

Builds through run.py the first time (about half a minute).
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer figures a correct run may report as 0: counts of events a short
# run need not see (no new stack maps once the pool is warm, no parks when
# no stream went idle long enough), join timings with no sample of their
# kind, the main thread's share when the other streams drained every region,
# and the scheduler's exclusive share of a region when every tasklet ended
# before spawn_bulk returned (tiny runs). trace.overhead_pct is a signed
# difference.
MAY_BE_ZERO = {
    "alloc.stack.maps_per_op",
    "sched.main_share",
    "region.sched.self_us_per_op",
    "sched.idle_yields_per_op",
    "sched.parks_per_op",
    "sched.park_timeout_ratio",
    "core.join.ready_ns",
    "core.join.handoff_us",
}
SIGNED = {"trace.overhead_pct"}


def run(*args, cwd=ROOT, script=HERE / "run.py", timeout=300):
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.monotonic() - t0


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        key = "per_layer" if trace else "end_to_end"
        proc, _ = run("--workload", workload, "--seed", "7", "--seconds",
                      "0.4", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = last_json(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in SPEC[key]})
        for m in SPEC[key]:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            value = got["value"]
            self.assertTrue(math.isfinite(value), m["name"])
            if m["name"] in SIGNED:
                continue
            if m["name"] in MAY_BE_ZERO:
                self.assertGreaterEqual(value, 0, m["name"])
            else:
                self.assertGreater(value, 0, m["name"])
        return proc

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0)

    def test_traced_writes_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = self.check_run(w, 1)
                path = next(line.split(": ", 1)[1]
                            for line in proc.stdout.splitlines()
                            if line.startswith("# spans: "))
                ops = {}
                for line in pathlib.Path(path).read_text().splitlines():
                    span = json.loads(line)
                    self.assertGreaterEqual(span["end_ns"], span["start_ns"])
                    ops.setdefault((span["workload"], span["op"]),
                                   []).append(span)
                self.assertEqual({k[0] for k in ops}, set(WORKLOADS))
                for spans in ops.values():
                    ids = {s["id"] for s in spans}
                    roots = [s for s in spans if s["parent"] == -1]
                    self.assertEqual(len(roots), 1)
                    for s in spans:
                        self.assertTrue(s["parent"] == -1 or
                                        s["parent"] in ids)


class Deadline(unittest.TestCase):
    def test_op_that_never_returns_ends_the_run(self):
        # --smoke sets the deadline to 2 s without a completed op.
        proc, secs = run("--workload", "tree", "--seed", "1", "--seconds",
                         "60", "--trace", "0", "--smoke", "--inject-hang",
                         timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertLess(secs, 60)  # ended by the deadline, not the clock
        res = last_json(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertGreaterEqual(res["attempted"], res["failed"])


class Refusal(unittest.TestCase):
    def test_fails_without_runtime_sources(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            d = pathlib.Path(d)
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, d / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, secs = run("--workload", "tree", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=d,
                             script=d / "perfbench" / "run.py", timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertLess(secs, 180)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
