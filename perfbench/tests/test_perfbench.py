"""Tests of the perfbench benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Runs each workload at --size tiny (traced and untraced), checks the
printed metric set against BENCHMARK.json, and checks that a failed
operation is counted in the result instead of aborting the run. The
first test builds the harness if needed (see perfbench/README.md).
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# Spans each traced workload's Chrome trace must hold: the program's own
# (campaign.*, model.profile_trace, "cell <benchmark>") and the
# harness's, around the public calls it times.
TRACE_SPANS = {
    "sweep": {"campaign.training", "campaign.calibrate",
              "model.profile_trace", "runner.serialize", "core.estimate",
              "power.measure", "wavelet.dwt"},
    "montecarlo": {"campaign.training", "campaign.calibrate",
                   "model.profile_trace", "runner.serialize",
                   "core.estimate", "power.measure", "wavelet.dwt",
                   "power.network_build"},
    "serve": {"serve.request", "serve.queue", "serve.merge",
              "serve.execute", "serve.serialize"},
    "control": {"core.cosim"},
}

# Per-layer metrics each workload reaches, so they must be positive.
REACHED = {
    "sweep": {"sim.simulations", "sim.cycles", "runner.training_s",
              "runner.calibrate_s", "runner.cell_s", "core.profile_trace_s",
              "core.estimate_s", "power.measure_s", "wavelet.dwt_s"},
    "montecarlo": {"sim.simulations", "runner.training_s",
                   "runner.calibrate_s", "core.profile_trace_s",
                   "power.network_build_s", "power.measure_s"},
    "serve": {"serve.execute_ms_mean", "serve.batch_size_mean"},
    "control": {"sim.cycles", "core.cosim_s", "core.control_stall_cycles"},
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, out_dir, env=None, size="tiny"):
    """Run one workload; return (exit code, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", size,
         "--out-dir", out_dir],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, **(env or {})})
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stderr


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_well_formed(self):
        spec = load_spec()
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        for w in spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class Smoke(unittest.TestCase):
    """A tiny run of every workload reports exactly the declared set."""

    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.out = tempfile.mkdtemp(prefix="perfbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def check(self, workload, trace):
        code, result, stderr = run(workload, trace, self.out)
        self.assertEqual(code, 0, stderr)
        self.assertIsNotNone(result, stderr)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        group = self.spec["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in group}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace or name in REACHED[workload]:
                self.assertGreater(metric["value"], 0, name)
        if trace:
            path = os.path.join(self.out, workload + ".trace.json")
            with open(path) as f:
                names = {e["name"] for e in json.load(f)["traceEvents"]}
            self.assertLessEqual(TRACE_SPANS[workload], names)

    def test_sweep(self):
        self.check("sweep", 0)
        self.check("sweep", 1)

    def test_montecarlo(self):
        self.check("montecarlo", 0)
        self.check("montecarlo", 1)

    def test_serve(self):
        self.check("serve", 0)
        self.check("serve", 1)

    def test_control(self):
        self.check("control", 0)
        self.check("control", 1)


class FailedOperations(unittest.TestCase):
    """An injected fault fails one operation; the run still reports."""

    def check_counted(self, workload, failpoints):
        with tempfile.TemporaryDirectory(prefix="perfbench-fail-") as out:
            code, result, stderr = run(workload, 0, out,
                                       {"DIDT_FAILPOINTS": failpoints})
        self.assertEqual(code, 0, stderr)
        self.assertIsNotNone(result, stderr)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("failed operation", stderr)
        self.assertIn("cells_per_s", result["metrics"])

    def test_failed_cell_is_counted(self):
        self.check_counted("sweep", "campaign.cell=key:gzip@1.5")

    def test_failed_request_is_counted(self):
        # The daemon's 7th decoded request is the second timed request
        # (ping, two warm-ups and two stats requests come first).
        self.check_counted("serve", "serve.decode=nth:7")


class Refusals(unittest.TestCase):
    def test_bad_workload_exits_nonzero(self):
        code, result, _ = run("nonesuch", 0, tempfile.gettempdir())
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_without_sources_exits_nonzero(self):
        with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as bare:
            shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
