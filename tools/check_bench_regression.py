#!/usr/bin/env python3
"""Guard the fleet kernel's events/sec against silent regressions.

Two modes:

  check (default)
      Compare a fresh bench run against the committed baseline and
      fail when events/sec regressed beyond the tolerance, or when a
      deterministic work counter (the kernel's `events`, the
      `calibration_tapes` recorded) differs from the baseline at
      all — the same tier simulates exactly
      the same events and records exactly the same calibration
      tapes on any hardware, so a mismatch means the simulation
      itself changed:

          check_bench_regression.py --baseline BENCH_fleet.json \
              --current build/BENCH_fleet.json [--tolerance 0.2]

      The current file is the flat JSON one `bench_fleet --json`
      writes; its "tier" field selects which baseline tier to
      compare against (CI runs `--scale --smoke`, so it compares
      the "scale-smoke" tier).

  merge
      Fold one or more fresh runs (one flat JSON per tier) into
      the committed baseline.  Tiers already in the baseline but
      not among the runs are carried over unchanged, so adding a
      new tier does not force re-measuring every other one:

          check_bench_regression.py --merge BENCH_fleet.json \
              scale.json huge.json ... [--seed-baseline 29011]

      `--seed-baseline` pins the pre-optimization measurement the
      perf trajectory is tracked against; omitted, an existing
      baseline's pin is carried over.

Standard library only — CI runs it with a bare python3.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"{path}: {error}")


def flag_calibration_bound(tier, run):
    """Warn when a tier spends more wall-clock calibrating cost
    caches than running the kernel loop: its events/sec then
    measures engine-simulation throughput, not kernel throughput,
    and the tier should probably warm its caches up front.
    Non-fatal — calibration cost is real but tracked separately
    from the loop."""
    loop_ms = run.get("loop_ms")
    calibration_ms = run.get("calibration_ms")
    if loop_ms is None or calibration_ms is None:
        return False
    if float(calibration_ms) <= float(loop_ms):
        return False
    print(
        f"warning: tier {tier} is calibration-bound "
        f"({float(calibration_ms):,.1f} ms calibrating vs "
        f"{float(loop_ms):,.1f} ms in the loop)"
    )
    return True


# Deterministic work counters every tier pins: hardware-independent,
# so they must match the baseline exactly (events/sec, a timing, gets
# the tolerance band instead).  `events` counts the kernel's events,
# `calibration_tapes` the full trace-driven engine simulations behind
# the tier's cost surfaces.
EXACT_COUNTERS = ("events", "calibration_tapes")


def counter_mismatches(pinned, current):
    """One message per exact counter present in both runs whose
    values differ."""
    mismatches = []
    for name in EXACT_COUNTERS:
        if name not in pinned or name not in current:
            continue
        if int(current[name]) != int(pinned[name]):
            mismatches.append(
                f"{name}: {int(current[name]):,} vs pinned "
                f"{int(pinned[name]):,}"
            )
    return mismatches


def check(args):
    current = load(args.current)
    baseline = load(args.baseline)
    tier = current.get("tier")
    if not tier:
        sys.exit(f"{args.current}: no 'tier' field")
    flag_calibration_bound(tier, current)
    tiers = baseline.get("tiers", {})
    pinned = tiers.get(tier)
    if pinned is None:
        print(
            f"note: baseline has no '{tier}' tier "
            f"(tiers: {', '.join(sorted(tiers)) or 'none'}); "
            "nothing to compare"
        )
        return
    now = float(current.get("events_per_sec", 0.0))
    then = float(pinned.get("events_per_sec", 0.0))
    if then <= 0.0:
        sys.exit(f"{args.baseline}: tier '{tier}' pins no "
                 "events_per_sec")
    floor = then * (1.0 - args.tolerance)
    ratio = now / then
    print(
        f"tier {tier}: {now:,.0f} events/s vs pinned "
        f"{then:,.0f} ({ratio:.2f}x, floor {floor:,.0f})"
    )
    failures = []
    mismatches = counter_mismatches(pinned, current)
    for mismatch in mismatches:
        print(f"counter mismatch: {mismatch}")
    if mismatches:
        failures.append(
            "COUNTER MISMATCH: deterministic work counters differ "
            "from the committed baseline — the simulation did "
            "different work; if that is intentional, regenerate "
            "BENCH_fleet.json with --merge and commit it"
        )
    if now < floor:
        failures.append(
            f"REGRESSION: events/sec fell more than "
            f"{args.tolerance:.0%} below the committed baseline — "
            "if the slowdown is intentional, regenerate "
            "BENCH_fleet.json with --merge and commit it"
        )
    if failures:
        sys.exit("\n".join(failures))
    print("ok: within tolerance, counters exact")


def merge(args):
    previous = load(args.merge) if os.path.exists(args.merge) else {}
    merged = {
        "bench": "bench_fleet",
        "tiers": dict(previous.get("tiers", {})),
    }
    if args.seed_baseline is not None:
        merged["seed_baseline_events_per_sec"] = args.seed_baseline
    elif "seed_baseline_events_per_sec" in previous:
        merged["seed_baseline_events_per_sec"] = previous[
            "seed_baseline_events_per_sec"
        ]
    for path in args.runs:
        run = load(path)
        tier = run.get("tier")
        if not tier:
            sys.exit(f"{path}: no 'tier' field")
        flag_calibration_bound(tier, run)
        merged["tiers"][tier] = run
    with open(args.merge, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"{args.merge}: tiers {', '.join(sorted(merged['tiers']))}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--baseline", help="committed BENCH_fleet.json")
    parser.add_argument("--current", help="fresh run to check")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional regression (default 0.2)",
    )
    parser.add_argument(
        "--merge", metavar="OUT", help="rebuild OUT from per-tier runs"
    )
    parser.add_argument(
        "--seed-baseline",
        type=float,
        default=None,
        help="pin the pre-optimization events/sec in the merged file",
    )
    parser.add_argument("runs", nargs="*", help="per-tier runs to merge")
    args = parser.parse_args()

    if args.merge:
        if not args.runs:
            parser.error("--merge needs at least one run file")
        merge(args)
    elif args.baseline and args.current:
        check(args)
    else:
        parser.error("need --baseline and --current, or --merge")


if __name__ == "__main__":
    main()
