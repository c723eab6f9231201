"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The first class only reads files.  The second builds the harness (as
run.py does) and runs short benchmark processes, a few minutes in all.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

RUN_PY = os.path.join(HERE, "run.py")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# A seed every reference file covers, and one none does.
RECORDED_SEED = 3
UNRECORDED_SEED = 987654


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_bench(*args):
    """Run run.py; return (exit code, stdout lines, result or None)."""
    proc = subprocess.run([sys.executable, RUN_PY] + list(args),
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc.returncode, lines, result


class DeclaredMetrics(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_prints(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(bench.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            bench.per_layer_metrics())

    def test_every_layer_metric_of_the_readme_table_is_declared(self):
        with open(os.path.join(HERE, "README.md")) as handle:
            readme = handle.read()
        table = readme.split("## Per-layer metrics")[1].split("\n## ")[0]
        names = set()
        for row in table.splitlines():
            if not row.startswith("| `"):
                continue
            cell = row.split("|")[1]
            for token in re.findall(r"`([^`]+)`", cell):
                names.add(token)
        declared = {m["name"] for m in load_spec()["per_layer"]}
        self.assertTrue(names)
        for name in names:
            if name.startswith("."):
                # `.events` style siblings of the first name in a row.
                continue
            if "<engine>" in name:
                pattern = name.replace("<engine>", "[a-z-]+").replace(
                    "<shape>", "(calib|paper)")
                hits = [d for d in declared if re.match(pattern, d)]
                self.assertEqual(len(hits), 8 * 3, name)
                continue
            self.assertTrue(name in declared or name + ".p50" in declared,
                            name)

    def test_references_cover_the_same_seeds_for_every_workload(self):
        seeds = None
        for workload in bench.WORKLOADS:
            reference = bench.load_reference(workload)
            self.assertIsNotNone(reference, workload)
            self.assertIn(str(RECORDED_SEED), reference["digests"])
            self.assertNotIn(str(UNRECORDED_SEED), reference["digests"])
            for digests in reference["digests"].values():
                self.assertEqual(len(digests), len(reference["ops"]))
            if seeds is None:
                seeds = set(reference["digests"])
            self.assertEqual(set(reference["digests"]), seeds)


class RunningBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def test_untraced_run_prints_every_end_to_end_metric(self):
        code, _, result = run_bench("--workload", "fleet-scale", "--seed",
                                    str(RECORDED_SEED), "--seconds", "1",
                                    "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], bench.MIN_REPS)
        spec = load_spec()
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        for metric in spec["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"])
            self.assertGreater(entry["value"], 0.0, metric["name"])

    def test_traced_run_prints_every_per_layer_metric(self):
        code, _, result = run_bench("--workload", "fleet-scale", "--seed",
                                    str(RECORDED_SEED), "--seconds", "2",
                                    "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        spec = load_spec()
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        metrics = result["metrics"]
        for name, _ in bench.LAYER_TIMINGS:
            self.assertGreater(metrics[name + ".p50"]["value"], 0.0, name)
            self.assertGreater(metrics[name + ".calls"]["value"], 0, name)
        self.assertEqual(metrics["core.fleet.requests_done"]["value"],
                         150000)
        self.assertGreater(metrics["core.fleet.events"]["value"], 0)

    def test_perturbed_fleet_output_is_a_failed_op(self):
        code, _, result = run_bench("--workload", "fleet-scale", "--seed",
                                    str(RECORDED_SEED), "--seconds", "1",
                                    "--trace", "0", "--perturb")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_engine_request_with_wrong_seed_is_a_failed_op(self):
        rep = bench.question("offline-sweep", RECORDED_SEED, False, True)
        attempted, failed = bench.check_outputs(
            "offline-sweep", RECORDED_SEED, [rep])
        self.assertEqual(attempted, 42)
        self.assertEqual(failed, 1)

    def test_unrecorded_seed_says_the_check_was_skipped(self):
        code, lines, result = run_bench(
            "--workload", "fleet-scale", "--seed", str(UNRECORDED_SEED),
            "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(any("SKIPPED" in line for line in lines[:-1]))
        self.assertTrue(result["correct"])

    def test_seed_changes_the_generated_inputs(self):
        def digests(seed):
            rep = bench.question("chat-sessions", seed, False, False)
            return [op["digest"] for op in rep["report"]["ops"]]

        first = digests(RECORDED_SEED)
        self.assertEqual(first, digests(RECORDED_SEED))
        self.assertNotEqual(first, digests(RECORDED_SEED + 1))
        reference = bench.load_reference("chat-sessions")
        self.assertEqual(first, reference["digests"][str(RECORDED_SEED)])


if __name__ == "__main__":
    unittest.main()
