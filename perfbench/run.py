#!/usr/bin/env python3
"""Host-time benchmark of the Hermes NDP-DIMM simulator.

    python3 perfbench/run.py --workload offline-sweep --seed 1 \
        --seconds 35 --trace 0

Builds the harness (perfbench/CMakeLists.txt) into .bench_build/ on
first use, then asks the simulator one workload question per process,
repeatedly, for about --seconds seconds.  Each process is timed from
outside: wall time from spawn to exit, user+sys CPU and peak RSS from
wait4().  The harness reports its own set-up time against the same
monotonic clock and one digest of simulated outputs per op; digests
are compared with perfbench/reference/<workload>.json.

--trace 0 prints the end-to-end metrics (medians over the run's
processes).  --trace 1 alternates untraced and traced processes,
replays every simulator layer with inputs shaped like the workload,
and prints the per-layer metrics.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hbench")
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("offline-sweep", "chat-sessions", "fleet-scale")

# Every run answers its question at least this often, so medians and
# the cross-process determinism check always have two samples.
MIN_REPS = 2

# Per-layer unit timings the harness replays, with their units.
LAYER_TIMINGS = (
    ("sparsity.trace_init_ms", "ms"),
    ("sparsity.next_token_ms", "ms"),
    ("dram.rank_simulate_ms", "ms"),
    ("dram.probe_cold_ms", "ms"),
    ("ndp.sparse_gemv_us", "us"),
    ("sched.ilp_solve_ms", "ms"),
    ("sched.predictor_step_us", "us"),
    ("sched.mapper_adjust_us", "us"),
    ("sched.window_rebalance_us", "us"),
    ("sched.router_route_ns", "ns"),
    ("runtime.pipeline_token_us", "us"),
) + tuple(
    ("runtime.engine_run_ms.%s.%s" % (engine, shape), "ms")
    for engine in ("hermes", "hermes-host", "hermes-base", "dejavu")
    for shape in ("calib", "paper")
) + (
    ("core.serving.cost_cell_ms", "ms"),
    ("core.workload.generate_ms", "ms"),
    ("core.event_queue.push_pop_ns", "ns"),
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run prints."""
    metrics = []
    for name, unit in LAYER_TIMINGS:
        metrics.append((name + ".p50", unit, "lower"))
        metrics.append((name + ".p90", unit, "lower"))
        metrics.append((name + ".calls", "count", "higher"))
    metrics += [
        ("runtime.engine_run_total_s", "s", "lower"),
        ("core.fleet.run_s", "s", "lower"),
        ("core.fleet.loop_s", "s", "lower"),
        ("core.fleet.events", "count", "lower"),
        ("core.fleet.events_per_s", "1/s", "higher"),
        ("core.fleet.calibration_s", "s", "lower"),
        ("core.fleet.other_s", "s", "lower"),
        ("runtime.engine_runs", "count", "lower"),
        ("runtime.trace_tokens", "count", "lower"),
        ("core.fleet.steals", "count", "lower"),
        ("core.fleet.session_continues", "count", "lower"),
        ("core.fleet.requests_done", "count", "higher"),
        ("bench.trace_overhead_s", "s", "lower"),
    ]
    return metrics


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; raise on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "fleet.hh")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                           check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            raise BenchError("build step failed: %s (%s)"
                             % (" ".join(step), error))


def spawn(args):
    """Run the harness once; time the whole process from outside."""
    start = time.monotonic()
    proc = subprocess.Popen([BINARY] + args + ["--spawn-time", repr(start)],
                            stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").strip().splitlines()
    report = None
    if proc.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # Linux: KiB.
        "report": report,
    }


def question(workload, seed, traced, perturb):
    args = ["question", "--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--trace")
    if perturb:
        args.append("--perturb")
    rep = spawn(args)
    if rep["report"] is None:
        log("harness question failed (exit %d)" % rep["exit"])
    return rep


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, workload + ".json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def check_outputs(workload, seed, reps):
    """Count attempted/failed ops over every rep of the run.

    An op fails when it threw, when its digest differs from the
    recorded reference for this seed, or -- on a seed with no
    reference -- when it differs between two processes of the run.
    """
    reference = load_reference(workload)
    expected = None
    if reference is not None:
        expected = reference["digests"].get(str(seed))
    names = reference["ops"] if reference else None
    if expected is None:
        notice = ("output check: no recorded reference for workload %s "
                  "seed %d; reference comparison SKIPPED, only "
                  "cross-process determinism and op errors were checked"
                  % (workload, seed))
        log(notice)
        print(notice, flush=True)
    attempted = failed = 0
    first = None
    for rep in reps:
        report = rep["report"]
        if report is None:
            count = len(names) if names else 1
            attempted += count
            failed += count
            continue
        ops = report["ops"]
        digests = [op["digest"] for op in ops]
        if first is None:
            first = digests
        want = expected if expected is not None else first
        if len(ops) != len(want):
            log("output check: %d ops, expected %d" % (len(ops), len(want)))
        for index, op in enumerate(ops):
            attempted += 1
            bad = bool(op["error"]) or not op["digest"]
            bad = bad or index >= len(want) or op["digest"] != want[index]
            if bad:
                failed += 1
                log("output check: op %s failed (%s)"
                    % (op["name"], op["error"] or "digest " + op["digest"]))
        missing = max(0, len(want) - len(ops))
        attempted += missing
        failed += missing
    return attempted, failed


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps):
    ok = [rep for rep in reps if rep["report"] is not None] or reps
    metrics = {
        "wall_s": median([rep["wall_s"] for rep in ok]),
        "setup_s": median([rep["report"]["setup_s"] for rep in ok
                           if rep["report"] is not None]),
        "cpu_s": median([rep["cpu_s"] for rep in ok]),
        "peak_rss_mib": median([rep["peak_rss_mib"] for rep in ok]),
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}


def repeat_questions(workload, seed, seconds, traced_pairs, perturb):
    """Ask the question until `seconds` would be exceeded.

    Another process starts only if the median process so far would
    still finish inside the budget, and at least MIN_REPS always run.
    With traced_pairs, each step is an untraced plus a traced process
    and one step is enough (it already holds two processes).
    """
    untraced, traced = [], []
    min_steps = 1 if traced_pairs else MIN_REPS
    start = time.monotonic()
    while True:
        step_start = time.monotonic()
        untraced.append(question(workload, seed, False, perturb))
        if traced_pairs:
            traced.append(question(workload, seed, True, perturb))
        steps = len(untraced)
        step = time.monotonic() - step_start
        elapsed = time.monotonic() - start
        per_step = max(step, elapsed / steps)
        if steps >= min_steps and elapsed + per_step > seconds:
            return untraced, traced


def span_total(report, name):
    """Seconds a traced question spent in spans called `name`."""
    return sum(span["s"] for span in report["spans"] if span["name"] == name)


def layer_metrics(workload, seed, budget, untraced, traced):
    layers = spawn(["layers", "--workload", workload, "--seed", str(seed),
                    "--budget", repr(budget)])
    if layers["report"] is None:
        raise BenchError("per-layer replay failed (exit %d)"
                         % layers["exit"])
    replayed = layers["report"]["metrics"]
    values = {}
    for name, _ in LAYER_TIMINGS:
        entry = replayed[name]
        values[name + ".p50"] = entry["p50"]
        values[name + ".p90"] = entry["p90"]
        values[name + ".calls"] = entry["calls"]

    reports = [rep["report"] for rep in traced if rep["report"] is not None]
    fleet_runs = [(span_total(report, "core.fleet.run"), report["kernel"])
                  for report in reports if report["kernel"] is not None]
    run = median([seconds for seconds, _ in fleet_runs])
    loop = median([k["loop_s"] for _, k in fleet_runs])
    events = fleet_runs[0][1]["events"] if fleet_runs else 0
    calibration = median([k["calibration_s"] for _, k in fleet_runs])
    other = 0.0
    if fleet_runs and all(k["calibration_threads"] == 1
                          for _, k in fleet_runs):
        other = median([seconds - k["loop_s"] - k["calibration_s"]
                        for seconds, k in fleet_runs])
    counters = reports[0]["counters"] if reports else {}
    values.update({
        "runtime.engine_run_total_s": median(
            [span_total(report, "runtime.engine_run")
             for report in reports]),
        "core.fleet.run_s": run,
        "core.fleet.loop_s": loop,
        "core.fleet.events": events,
        "core.fleet.events_per_s": events / loop if loop > 0 else 0.0,
        "core.fleet.calibration_s": calibration,
        "core.fleet.other_s": other,
        "runtime.engine_runs": counters.get("engine_runs", 0),
        "runtime.trace_tokens": counters.get("trace_tokens", 0),
        "core.fleet.steals": counters.get("steals", 0),
        "core.fleet.session_continues": counters.get("session_continues", 0),
        "core.fleet.requests_done": counters.get("requests_done", 0),
        "bench.trace_overhead_s":
            median([rep["wall_s"] for rep in traced])
            - median([rep["wall_s"] for rep in untraced]),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_metrics()}


def record(workload, seeds):
    """Write reference digests for `seeds` (one process per seed)."""
    digests = {}
    names = None
    for seed in seeds:
        rep = question(workload, seed, False, False)
        report = rep["report"]
        if report is None or any(op["error"] for op in report["ops"]):
            raise BenchError("cannot record seed %d: the question failed"
                             % seed)
        names = [op["name"] for op in report["ops"]]
        digests[str(seed)] = [op["digest"] for op in report["ops"]]
        log("recorded %s seed %d (%.1f s)" % (workload, seed, rep["wall_s"]))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, workload + ".json"), "w") as out:
        json.dump({"workload": workload, "ops": names, "digests": digests},
                  out, indent=1, sort_keys=False)
        out.write("\n")


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="give the first Hermes op the wrong trace "
                             "seed (the output check must fail it)")
    parser.add_argument("--record", metavar="FIRST-LAST",
                        help="record reference digests for these seeds "
                             "instead of benchmarking")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
        if args.record:
            record(args.workload, parse_seeds(args.record))
            return 0
        # A traced run spends about half its time on question
        # processes and a third on the per-layer replays, whose
        # minimum call counts can overrun their share.
        question_seconds = args.seconds / 2.0 if args.trace else args.seconds
        untraced, traced = repeat_questions(
            args.workload, args.seed, question_seconds, args.trace == 1,
            args.perturb)
        attempted, failed = check_outputs(args.workload, args.seed,
                                          untraced + traced)
        if args.trace:
            metrics = layer_metrics(args.workload, args.seed,
                                    max(2.0, args.seconds / 3.0),
                                    untraced, traced)
        else:
            metrics = end_to_end(untraced)
    except BenchError as error:
        log("perfbench: %s" % error)
        return 2
    log("%s seed %d: %d processes, %d/%d ops failed (fail_frac %.4f)"
        % (args.workload, args.seed, len(untraced) + len(traced), failed,
           attempted, failed / attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
