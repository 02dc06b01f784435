"""certicube benchmark: time to a certified integral on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload refine-midpoint --seed 1 \\
        --seconds 20 --trace 0

Generates the workload's inputs from the seed, computes independent
references, measures set-up time in fresh interpreters, runs the
workload in a fresh worker process for the given number of seconds and
checks every operation. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(HERE, "_work")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 100

sys.path.insert(0, HERE)

import calibration  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from worker import TARGETS  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker_env():
    """certicube on ``PYTHONPATH``; numpy's BLAS held to one thread so
    that the worker is one process with one busy thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    return env


def _setup_sample(spec_path):
    """(seconds, speed): wall seconds from spawning a fresh interpreter to
    the worker's ready, less the time its speed sampler took, and the
    machine speed the sampler saw."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, spec_path, "--setup-only"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_worker_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("set-up worker timed out")
    word, _, rest = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"set-up worker failed:\n{err}")
    sampled = json.loads(rest)
    if not sampled["loops"]:
        raise BenchmarkError("set-up worker took no speed sample")
    return (elapsed - sampled["paused_s"],
            calibration.speed(sampled["loops"]))


def _run_worker(spec_path, seconds, trace, spans_path):
    cmd = [sys.executable, WORKER, spec_path, "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        raise BenchmarkError(f"worker failed (exit {proc.returncode}):\n"
                             f"{err}")
    return json.loads(lines[-1])


def _parse_cli(stdout):
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return {
        "estimate": float(fields["estimate"]),
        "radius": float(fields["radius"]),
        "certified": fields["K"].endswith("(certified: yes)"),
        "cells": int(fields["cells"]),
    }


def _check_cli_op(op, check, first_stdout):
    """Return (failure reason or None, parsed stdout or None)."""
    if op["error"] is not None:
        return "exception", None
    if op["code"] != 0:
        return f"exit code {op['code']}", None
    try:
        parsed = _parse_cli(op["stdout"])
    except (KeyError, ValueError):
        return "unparsable stdout", None
    if op["stdout"] != first_stdout:
        return "stdout differs from the first run", parsed
    if not parsed["radius"] <= check["tol"]:
        return "radius > tol", parsed
    if not reference.encloses(check["reference"], parsed["estimate"],
                              parsed["radius"]):
        return "reference outside estimate +- radius", parsed
    return None, parsed


def _check_call(name, value, error, ref):
    if error is not None:
        return "exception"
    if name == "sandwich":
        if not reference.between(ref, value[0], value[1]):
            return "reference outside [lower, upper]"
    elif not (value[1] >= 0 and reference.encloses(ref, value[0], value[1])):
        return "reference outside estimate +- radius"
    return None


def _judge_cli(ops, checks):
    """Return (attempted, failed, known defect misses, reasons).

    A miss on an operation marked ``known_defect`` whose output says
    ``certified: no`` is the documented defect: it is counted on its
    own, not as a failure. The same miss with ``certified: yes`` fails.
    """
    attempted = failed = known_misses = 0
    first = {}
    reasons = []
    for op in ops:
        check = checks[op["id"]]
        first.setdefault(op["id"], op["stdout"])
        reason, parsed = _check_cli_op(op, check, first[op["id"]])
        op["parsed"] = parsed
        attempted += 1
        if reason is None:
            continue
        if (check.get("known_defect") and parsed is not None
                and not parsed["certified"]
                and reason != "stdout differs from the first run"):
            known_misses += 1
            print(f"documented known defect: {op['id']}: {reason}, "
                  f"output says certified: no")
            continue
        failed += 1
        reasons.append(f"{op['id']}: {reason}")
    return attempted, failed, known_misses, reasons


def _judge_bounds(ops, checks):
    """The worker returns the first battery's values, and a later
    battery's only when they differ from the first."""
    refs = checks["references"]
    per_battery = len(ops[0]["calls"])
    attempted = failed = 0
    reasons = []
    for number, op in enumerate(ops):
        attempted += per_battery
        if op["calls"] is None:
            continue
        for index, name, value, error in op["calls"]:
            reason = _check_call(name, value, error, refs[index])
            if reason is None and number > 0:
                reason = "results differ from the first battery"
            if reason is not None:
                failed += 1
                reasons.append(f"problem {index} {name}: {reason}")
    return attempted, failed, 0, reasons


def percentile(samples, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(ops, kind, setup, peak_kb):
    """Timings in reference seconds (``calibration.py``): each operation's
    latency, and the latencies of the calls in it, times the machine
    speed sampled while it ran."""
    timed = [op for op in ops if op["phase"] == "timed"]
    every_loop = [t for op in timed for t in op["loops"]]
    if not every_loop:
        raise BenchmarkError("the timed phase took no speed sample")
    speeds = [calibration.speed(op["loops"] or every_loop) for op in timed]
    solve = [op["latency"] * v for op, v in zip(timed, speeds)]
    if kind == "bounds":
        # Percentiles of each battery's 3,000 calls, median over batteries.
        batteries = [[t * v * 1e6 for t in op["call_latency"]]
                     for op, v in zip(timed, speeds)]
        p50 = statistics.median(percentile(b, 50) for b in batteries)
        p99 = statistics.median(percentile(b, 99) for b in batteries)
        count = sum(map(len, batteries))
    else:
        p50 = percentile([t * 1e6 for t in solve], 50)
        p99 = percentile([t * 1e6 for t in solve], 99)
        count = len(solve)
    setup_s = [elapsed * v for elapsed, v in setup]
    metrics = {
        "solve_s": _metric(statistics.median(solve), "s"),
        "cert_us_p50": _metric(p50, "us"),
        "cert_us_p99": _metric(p99, "us"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
    }
    print(f"wall clock: solve_s "
          f"{statistics.median(op['latency'] for op in timed):.6g} s, "
          f"setup_s {statistics.median(e for e, _ in setup):.6g} s; "
          f"machine speed {statistics.median(speeds):.4g} while timed, "
          f"{statistics.median(v for _, v in setup):.4g} in set-up")
    return metrics, count


def _max_depth(report_text):
    depths = []
    in_hist = False
    for line in report_text.splitlines():
        if line.startswith("depth histogram"):
            in_hist = True
        elif in_hist and line.strip():
            depths.append(int(line.split()[0]))
    return max(depths) if depths else 0


def _per_layer(ops, trace, kind, checks, attempted, failed, known_misses):
    untraced = [op["latency"] for op in ops if op["phase"] == "untraced"]
    traced_ops = [op for op in ops if op["phase"] == "traced"]
    traced = [op["latency"] for op in traced_ops]
    summaries = [entry["summary"] for entry in trace["layers"]]
    names = [target[0] for target in TARGETS]

    def calls(name):
        return summaries[0][name]["calls"]

    def self_s(name):
        return statistics.median(s[name]["self_s"] for s in summaries)

    def items(name):
        return summaries[0][name]["items"]

    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = _metric(calls(name), "count")
        metrics[f"{name}.self_s"] = _metric(self_s(name), "s")
    metrics["field.evaluate_batch.points"] = _metric(
        items("field.evaluate_batch"), "count")
    points = calls("field.evaluate") + items("field.evaluate_batch")
    point_calls = calls("field.evaluate") + calls("field.evaluate_batch")
    metrics["field.points"] = _metric(points, "count")
    metrics["field.points_per_call"] = _metric(
        points / point_calls if point_calls else 0.0, "points/call")

    untraced_solve = statistics.median(untraced)
    cells = max_depth = 0
    radius_over_tol = 0.0
    parsed = [op for op in traced_ops if op.get("parsed")]
    if kind == "cli" and parsed:
        cells = parsed[0]["parsed"]["cells"]
        radius_over_tol = parsed[0]["parsed"]["radius"] / checks["main"]["tol"]
        max_depth = _max_depth(parsed[0].get("report", ""))
    integrate_self = self_s("adaptive.integrate_adaptive")
    metrics["adaptive.cells"] = _metric(cells, "count")
    metrics["adaptive.max_depth"] = _metric(max_depth, "count")
    metrics["adaptive.radius_over_tol"] = _metric(radius_over_tol, "ratio")
    metrics["adaptive.self_us_per_cell"] = _metric(
        integrate_self / cells * 1e6 if cells else 0.0, "us")
    metrics["adaptive.cells_per_s"] = _metric(
        cells / untraced_solve if cells else 0.0, "1/s")
    metrics["trace.solve_s"] = _metric(statistics.median(traced), "s")
    metrics["trace.untraced_solve_s"] = _metric(untraced_solve, "s")
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(traced) / untraced_solve - 1.0, "ratio")
    metrics["trace.remainder_s"] = _metric(
        statistics.median(entry["remainder_s"] for entry in trace["layers"]),
        "s")
    metrics["trace.missing_layers"] = _metric(len(trace["missing"]), "count")
    metrics["failed_frac"] = _metric(failed / attempted, "ratio")
    metrics["known_defect_misses"] = _metric(known_misses, "count")
    return metrics


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "certicube", "__init__.py")):
        raise BenchmarkError(f"certicube sources not found under {SRC}")
    workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        spec, checks = workloads.build(workload, seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        setup = (None if trace else
                 [_setup_sample(spec_path) for _ in range(SETUP_SAMPLES)])
        spans_path = None
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}.tsv")
        result = _run_worker(spec_path, seconds, trace, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    if spec["kind"] == "cli":
        attempted, failed, known_misses, reasons = _judge_cli(ops, checks)
    else:
        attempted, failed, known_misses, reasons = _judge_bounds(ops, checks)
    for reason in reasons[:20]:
        print(f"failed: {reason}")

    if trace:
        metrics = _per_layer(ops, result["trace"], spec["kind"], checks,
                             attempted, failed, known_misses)
        for name in result["trace"]["missing"]:
            print(f"layer not found, reported as zero: {name}")
    else:
        metrics, samples = _end_to_end(ops, spec["kind"], setup,
                                       result["peak_rss_kb"])
        timed = sum(op["phase"] == "timed" for op in ops)
        print(f"{workload} seed {seed}: {timed} timed operations, "
              f"{samples} latency samples, {failed}/{attempted} failed "
              f"(failed_frac {failed / attempted:.6g})")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:<14.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
