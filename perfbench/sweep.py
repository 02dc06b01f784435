"""Run the benchmark over several seeds and report medians and spreads.

Usage (from the repository root):

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --workloads percell-k --seeds 1-5 --trace 1

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
with ``run_seconds`` from BENCHMARK.json. For each metric it prints the
median over the seeds and the spread, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median; for end-to-end metrics it also prints the metric's
bound and whether the spread stays below a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    all_ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                all_ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            all_ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<40} {'median':>12} {'spread':>8} "
              f"{'bound':>6}  unit")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            line = (f"  {name:<40} {median:>12.6g} "
                    f"{spread(values):>8.4f} ")
            if name in bounds:
                ok = name == "setup_s" or spread(values) < bounds[name] / 3
                all_ok &= ok
                line += f"{bounds[name]:>6.2f}  {first['unit']}" \
                        f"{'' if ok else '  SPREAD TOO WIDE'}"
            else:
                line += f"{'':>6}  {first['unit']}"
            print(line)
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
