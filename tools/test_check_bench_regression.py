#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (stdlib only)."""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression",
        os.path.join(HERE, "check_bench_regression.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def run_check(baseline, current, tolerance=0.2):
    args = types.SimpleNamespace(
        baseline=baseline, current=current, tolerance=tolerance
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        TOOL.check(args)
    return out.getvalue()


class CheckMode(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)
        self.baseline = write_json(
            self.dir.name,
            "baseline.json",
            {
                "bench": "bench_fleet",
                "tiers": {
                    "multiturn-scale": {
                        "tier": "multiturn-scale",
                        "events": 5000,
                        "calibration_tapes": 12,
                        "events_per_sec": 1000.0,
                    }
                },
            },
        )

    def current(self, **fields):
        payload = {
            "tier": "multiturn-scale",
            "events": 5000,
            "calibration_tapes": 12,
            "events_per_sec": 990.0,
        }
        payload.update(fields)
        return write_json(self.dir.name, "current.json", payload)

    def test_within_tolerance_passes(self):
        out = run_check(self.baseline, self.current())
        self.assertIn("ok: within tolerance", out)

    def test_regression_fails(self):
        with self.assertRaises(SystemExit) as caught:
            run_check(self.baseline, self.current(events_per_sec=700.0))
        self.assertIn("REGRESSION", str(caught.exception))

    def test_exact_counters_pass(self):
        out = run_check(self.baseline, self.current())
        self.assertIn("counters exact", out)

    def test_event_count_mismatch_fails_even_when_fast(self):
        # Hardware-independent: one event more is a failure however
        # fast the run was.
        with self.assertRaises(SystemExit) as caught:
            run_check(
                self.baseline,
                self.current(events=5001, events_per_sec=5000.0),
            )
        self.assertIn("COUNTER MISMATCH", str(caught.exception))
        self.assertNotIn("REGRESSION", str(caught.exception))

    def test_mismatch_and_regression_both_reported(self):
        with self.assertRaises(SystemExit) as caught:
            run_check(
                self.baseline,
                self.current(events=4999, events_per_sec=700.0),
            )
        self.assertIn("COUNTER MISMATCH", str(caught.exception))
        self.assertIn("REGRESSION", str(caught.exception))

    def test_runs_without_counters_skip_the_exact_gate(self):
        current = self.current()
        with open(current, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["events"]
        current = write_json(self.dir.name, "current.json", payload)
        out = run_check(self.baseline, current)
        self.assertIn("ok: within tolerance", out)

    def test_tape_count_mismatch_fails_naming_the_counter(self):
        # A tier that recorded one tape more or less simulated
        # different calibration work, whatever the timings say.
        args = types.SimpleNamespace(
            baseline=self.baseline,
            current=self.current(calibration_tapes=11),
            tolerance=0.2,
        )
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with self.assertRaises(SystemExit) as caught:
                TOOL.check(args)
        self.assertIn("COUNTER MISMATCH", str(caught.exception))
        self.assertIn("calibration_tapes: 11 vs pinned 12", out.getvalue())

    def test_tape_count_absent_from_either_side_is_skipped(self):
        # Baselines pinned before the key existed, and runs that do
        # not emit it, compare only the counters both carry.
        current = self.current()
        with open(current, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["calibration_tapes"]
        current = write_json(self.dir.name, "current.json", payload)
        out = run_check(self.baseline, current)
        self.assertIn("counters exact", out)

        with open(self.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        del baseline["tiers"]["multiturn-scale"]["calibration_tapes"]
        old = write_json(self.dir.name, "old.json", baseline)
        out = run_check(old, self.current(calibration_tapes=99))
        self.assertIn("counters exact", out)

    def test_unknown_tier_is_a_note_not_a_failure(self):
        out = run_check(
            self.baseline, self.current(tier="huge-smoke")
        )
        self.assertIn("nothing to compare", out)

    def test_calibration_bound_tier_is_flagged(self):
        out = run_check(
            self.baseline,
            self.current(loop_ms=5.0, calibration_ms=41800.0),
        )
        self.assertIn("calibration-bound", out)
        # Non-fatal: the events/sec gate still runs and passes.
        self.assertIn("ok: within tolerance", out)

    def test_loop_bound_tier_is_not_flagged(self):
        out = run_check(
            self.baseline,
            self.current(loop_ms=100.0, calibration_ms=5.0),
        )
        self.assertNotIn("calibration-bound", out)

    def test_runs_without_timing_fields_are_not_flagged(self):
        out = run_check(self.baseline, self.current())
        self.assertNotIn("calibration-bound", out)


class MergeMode(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def merge(self, out_name, runs, seed_baseline=None):
        args = types.SimpleNamespace(
            merge=os.path.join(self.dir.name, out_name),
            runs=runs,
            seed_baseline=seed_baseline,
        )
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            TOOL.merge(args)
        with open(args.merge, "r", encoding="utf-8") as handle:
            return json.load(handle), captured.getvalue()

    def test_merge_folds_runs_and_carries_prior_tiers(self):
        prior = {
            "bench": "bench_fleet",
            "seed_baseline_events_per_sec": 29011.0,
            "tiers": {
                "scale": {"tier": "scale", "events_per_sec": 4.0e6}
            },
        }
        write_json(self.dir.name, "out.json", prior)
        fresh = write_json(
            self.dir.name,
            "multiturn.json",
            {"tier": "multiturn", "events_per_sec": 4.1e6},
        )
        merged, _ = self.merge("out.json", [fresh])
        self.assertEqual(
            sorted(merged["tiers"]), ["multiturn", "scale"]
        )
        # The untouched tier and the seed pin are carried over.
        self.assertEqual(
            merged["tiers"]["scale"]["events_per_sec"], 4.0e6
        )
        self.assertEqual(
            merged["seed_baseline_events_per_sec"], 29011.0
        )

    def test_merge_flags_calibration_bound_runs(self):
        fresh = write_json(
            self.dir.name,
            "multiturn.json",
            {
                "tier": "multiturn",
                "events_per_sec": 4.1e6,
                "loop_ms": 5.4,
                "calibration_ms": 41800.0,
            },
        )
        _, output = self.merge("out.json", [fresh])
        self.assertIn("calibration-bound", output)


if __name__ == "__main__":
    unittest.main()
