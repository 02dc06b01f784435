"""Run one workload's operations in a fresh process, as a closed loop.

Usage: python3 worker.py SPEC.json (--setup-only | --seconds S --trace 0|1)

The process imports certicube, does the program-side set-up the
workload needs and prints ``ready``. With ``--setup-only`` it then
exits; otherwise it runs one untimed warm-up operation, the workload's
extra operations, and then timed operations one after another, each
starting when the previous one has returned, until S seconds have
passed. While set-up or timed operations run, ``calibration.py``'s
sampler times a short fixed loop every few tens of milliseconds, and
the time it takes is left out of every latency. With ``--setup-only``
the ``ready`` line carries the sampler's figures as JSON. Otherwise the
last line of stdout is a JSON object with every operation's raw output,
latency and loop times; the parent process judges them.

With ``--trace 1`` the timed phase is split: untraced operations first
(for the overhead ratio), then operations with the public functions of
each certicube module wrapped by ``tracer.Tracer``.

Only the standard library, certicube, the tracer and the calibration
loop are imported, so the peak resident memory reported is certicube's
own.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def _batch_size(args, kwargs):
    points = kwargs.get("points", args[1] if len(args) > 1 else ())
    return len(points)


# (metric prefix, module, attribute, item counter). Private helpers and
# closures (_det_inplace, _longest_edge, make_cell, local_k) are not
# wrapped; their time stays in the caller's self time.
TARGETS = (
    ("cli.run", "certicube.cli", "run", None),
    ("adaptive.integrate_adaptive", "certicube.adaptive",
     "integrate_adaptive", None),
    ("adaptive.kahan_sum", "certicube.adaptive", "kahan_sum", None),
    ("bounds.midpoint_bound", "certicube.bounds", "midpoint_bound", None),
    ("bounds.rule_bound", "certicube.bounds", "rule_bound", None),
    ("bounds.hh_sandwich", "certicube.bounds", "hh_sandwich", None),
    ("cubature.verify", "certicube.cubature", "verify", None),
    ("cubature.apply_rule", "certicube.cubature", "apply_rule", None),
    ("moments.central_second_moment", "certicube.moments",
     "central_second_moment", None),
    ("geometry.volume", "certicube.geometry", "volume", None),
    ("geometry.chart", "certicube.geometry", "chart", None),
    ("field.hessian_at", "certicube.field", "hessian_at", None),
    ("qform.operator_norm", "certicube.qform", "operator_norm", None),
    ("field.evaluate", "certicube.field", "evaluate", None),
    ("field.evaluate_batch", "certicube.field", "evaluate_batch",
     _batch_size),
    ("expr.evaluate", "certicube.expr", "evaluate", None),
)


def _cli_workload(spec):
    """Set up a CLI workload; return (op, extra ops)."""
    from certicube import cli

    rule_path = spec["setup"].get("verify_rule")
    if rule_path is not None:
        out = io.StringIO()
        if cli.run(["verify-rule", rule_path], out=out) != 0:
            raise SystemExit(f"verify-rule rejected {rule_path}:\n"
                             f"{out.getvalue()}")

    def make(op):
        def run():
            out = io.StringIO()
            result = {"id": op["id"], "code": None, "error": None}
            try:
                result["code"] = cli.run(op["argv"], out=out)
            except Exception:
                result["error"] = traceback.format_exc()
            result["stdout"] = out.getvalue()
            if op.get("report") and os.path.exists(op["report"]):
                with open(op["report"]) as fh:
                    result["report"] = fh.read()
            return result
        return run

    return make(spec["op"]), [make(op) for op in spec["extra_ops"]]


# Speed sampler for set-up and the timed phase; not run while tracing.
SAMPLER = calibration.SpeedSampler()
SETUP_SAMPLER = calibration.SpeedSampler(interval=0.02)


def _bounds_workload(spec):
    """Set up the certificate battery; return (op, no extra ops)."""
    from certicube import bounds, cubature, field, geometry

    stroud = cubature.load_rule(spec["setup"]["stroud_rule"])
    rules = {"stroud": stroud, "hh-mix-2d": cubature.builtin("hh-mix-2d", 2)}
    for rule in rules.values():
        if not cubature.verify(rule).thm2_applicable:
            raise SystemExit(f"rule {rule.provenance} is not certifiable")

    calls = []
    for index, problem in enumerate(spec["problems"]):
        f = field.parse_expr(problem["expr"], problem["dim"])
        s = geometry.Simplex(problem["vertices"])
        k = problem["K"]
        for name in problem["calls"]:
            if name == "midpoint":
                def call(f=f, s=s, k=k):
                    r = bounds.midpoint_bound(f, s, k, gauge_certified=True)
                    return [r.estimate, r.radius]
            elif name == "sandwich":
                def call(f=f, s=s):
                    r = bounds.hh_sandwich(f, s)
                    return [r.lower, r.upper]
            else:
                rule = rules[name.split(":", 1)[1]]

                def call(f=f, s=s, k=k, rule=rule):
                    r = bounds.rule_bound(rule, f, s, k, gauge_certified=True)
                    return [r.estimate, r.radius]
            calls.append((index, name, call))

    clock = time.perf_counter
    sampler = SAMPLER
    first = []

    def battery():
        """Run every call once. Only the first battery's values are
        returned; a later battery returns them only if they differ.
        A call's latency leaves out time spent in the speed sampler."""
        results = []
        latencies = array("d")
        for index, name, call in calls:
            paused = sampler.paused_s
            start = clock()
            try:
                value, error = call(), None
            except Exception:
                value, error = None, traceback.format_exc()
            end = clock()
            latencies.append(end - start - (sampler.paused_s - paused))
            results.append([index, name, value, error])
        if not first:
            first.append(results)
        elif results == first[0]:
            results = None
        return {"id": "battery", "calls": results, "call_latency": latencies}

    return battery, []


def _timed(op, clock=time.perf_counter):
    """Run ``op``; its latency leaves out time spent in ``SAMPLER``, and
    ``loops`` holds the loop times the sampler took meanwhile."""
    mark = SAMPLER.mark()
    start = clock()
    result = op()
    end = clock()
    loops, paused = SAMPLER.since(mark)
    result["latency"] = end - start - paused
    result["loops"] = loops
    return result


def _run_phase(op, seconds, minimum, phase, ops):
    """Run ``op`` until ``seconds`` have passed and ``minimum`` are done."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        result = _timed(op)
        result["phase"] = phase
        ops.append(result)
        done += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spec")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="write the last traced operation's spans here")
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)

    if args.setup_only:
        SETUP_SAMPLER.start()
    if spec["kind"] == "cli":
        op, extra_ops = _cli_workload(spec)
    else:
        op, extra_ops = _bounds_workload(spec)
    if args.setup_only:
        SETUP_SAMPLER.stop()
        print("ready", json.dumps({"paused_s": SETUP_SAMPLER.paused_s,
                                   "loops": SETUP_SAMPLER.samples.tolist()}),
              flush=True)
        return 0
    print("ready", flush=True)

    ops = []
    warm = _timed(op)
    warm["phase"] = "warmup"
    ops.append(warm)
    for extra in extra_ops:
        result = _timed(extra)
        result["phase"] = "extra"
        ops.append(result)

    report = {"missing": [], "layers": []}
    if not args.trace:
        SAMPLER.start()
        _run_phase(op, args.seconds, 5, "timed", ops)
        SAMPLER.stop()
    else:
        _run_phase(op, args.seconds / 3.0, 3, "untraced", ops)
        tracer = tracer_mod.Tracer()
        tracer.install(TARGETS)
        report["missing"] = tracer.missing
        deadline = time.perf_counter() + 2.0 * args.seconds / 3.0
        while len(report["layers"]) < 2 or time.perf_counter() < deadline:
            tracer.reset()
            result = _timed(op)
            result["phase"] = "traced"
            ops.append(result)
            report["layers"].append({
                "summary": tracer.summary(),
                "remainder_s": result["latency"] - tracer.root_time()})
        tracer.uninstall()
        if args.spans:
            tracer.dump(args.spans)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for result in ops:
        if "call_latency" in result:
            result["call_latency"] = result["call_latency"].tolist()
    print(json.dumps({"ops": ops, "peak_rss_kb": peak_kb, "trace": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
