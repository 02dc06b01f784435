"""Seeded inputs for the four workloads.

``build(workload, seed, workdir)`` writes the input files a workload
needs into ``workdir`` and returns ``(spec, checks)``. ``spec`` is the
JSON-able description the worker process runs; ``checks`` holds what
the parent needs to judge the results: the independent references,
the tolerance and the documented known defect.

The adaptive workloads place a fixed reference simplex by a seeded
similarity (rotation, scale, translation) and use a tolerance that is a
fixed fraction of the root cell's certified radius. Longest-edge
bisection commutes with similarities, so every seed refines the same
tree and the run length does not depend on the seed; the seed still
changes every coordinate, coefficient and constant the program sees.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference

WORKLOADS = ("refine-midpoint", "refine-rule-3d", "percell-k",
             "oneshot-bounds")

# Unit triangle: longest-edge bisection keeps every child a right
# isosceles triangle with a unique longest edge, so no tie is broken by
# rounding after a rotation.
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# A tetrahedron with six distinct edge lengths, for the same reason (the
# unit tetrahedron has three tied longest edges).
TETRAHEDRON = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.31, 0.93, 0.0], [0.22, 0.37, 0.86]])

# Tolerance as a fraction of the root cell's certified radius. Each is
# chosen so that one integrate call takes about 1.5 s with the initial
# code on a 2-core x86-64 box.
TOL_FRACTION = {
    "refine-midpoint": 5e-5,
    "refine-rule-3d": 2.6e-3,
    "percell-k": 2.7e-3,
}
# Problems per certificate battery in oneshot-bounds.
BATTERY_PROBLEMS = 1200

# ROADMAP item 4's per-cell K defect: the 5-point lattice misses the
# bump, so the run stops after one cell with an interval that excludes
# the integral while saying "certified: no".
BUMP_WIDTH = 1000.0
BUMP_CENTRE = 0.37
BUMP_EXPR = f"exp(-{BUMP_WIDTH:g}*(x1-{BUMP_CENTRE!r})^2)"
BUMP_TOL = 1e-2

# Stroud T3:2-1: four points (a, b, b, b) and permutations with weight
# 1/4, a = (5 + 3 sqrt 5)/20, b = (5 - sqrt 5)/20; degree 2 exact.
_STROUD_A = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
_STROUD_B = (5.0 - math.sqrt(5.0)) / 20.0


def stroud_rule_text():
    lines = ["# Stroud T3:2-1, 4 points, degree 2", "dim 3", "nodes 4"]
    for k in range(4):
        coords = [_STROUD_A if j == k else _STROUD_B for j in range(4)]
        lines.append(" ".join(repr(c) for c in coords))
    lines += ["1/4"] * 4
    return "\n".join(lines) + "\n"


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _place(rng, shape):
    """Seeded similarity image of ``shape``: (vertices, rotation, scale)."""
    n = shape.shape[1]
    rotation = _rotation(rng, n)
    scale = rng.uniform(0.6, 1.5)
    shift = rng.uniform(-1.0, 1.0, n)
    return scale * shape @ rotation.T + shift, rotation, scale


def _direction(rng, n):
    d = rng.standard_normal(n)
    return d / np.linalg.norm(d)


def _write_simplex(path, vertices):
    with open(path, "w") as fh:
        for row in vertices:
            fh.write(" ".join(repr(float(c)) for c in row) + "\n")


def _linear_text(coeffs):
    return " + ".join(f"{float(c)!r}*x{i + 1}" for i, c in enumerate(coeffs))


def _quadratic_text(c, b, a):
    n = len(b)
    terms = [repr(float(c)), _linear_text(b)]
    for i in range(n):
        terms.append(f"{float(a[i][i])!r}*x{i + 1}*x{i + 1}")
        for j in range(i + 1, n):
            terms.append(f"{2.0 * float(a[i][j])!r}*x{i + 1}*x{j + 1}")
    return " + ".join(terms)


def _integrate_argv(expr, simplex_path, tol, *extra):
    return ["integrate", "--expr", expr, "--simplex", simplex_path,
            "--tol", repr(float(tol)), *extra]


def _adaptive(workload, rng, workdir):
    if workload == "refine-rule-3d":
        shape = TETRAHEDRON
    else:
        shape = TRIANGLE
    n = shape.shape[1]
    vertices, rotation, scale = _place(rng, shape)
    if workload == "percell-k":
        # exp(u1 + u2) in the reference frame, carried along with the
        # simplex, so that per-cell K varies over the cells the same way
        # for every seed.
        a = rotation @ np.ones(n) / scale
    else:
        a = _direction(rng, n)
    a = [float(c) for c in a]
    k = reference.exp_curvature(a, vertices)
    csm = reference.central_second_moment(vertices)
    factor = 1.0 if workload == "refine-rule-3d" else 0.5
    tol = TOL_FRACTION[workload] * factor * k * csm

    simplex_path = os.path.join(workdir, "domain.spx")
    _write_simplex(simplex_path, vertices)
    report_path = os.path.join(workdir, "run.report")
    extra = ["--report", report_path]
    setup = {}
    if workload == "refine-midpoint":
        extra += ["--k-mode", "global", "--K", repr(k)]
    elif workload == "refine-rule-3d":
        rule_path = os.path.join(workdir, "stroud3.rule")
        with open(rule_path, "w") as fh:
            fh.write(stroud_rule_text())
        extra += ["--rule", rule_path, "--k-mode", "global", "--K", repr(k)]
        setup["verify_rule"] = rule_path
    argv = _integrate_argv(f"exp({_linear_text(a)})", simplex_path, tol,
                           *extra)
    spec = {"workload": workload, "kind": "cli", "setup": setup,
            "op": {"id": "main", "argv": argv, "report": report_path},
            "extra_ops": []}
    checks = {"main": {"reference": reference.exp_integral(a, vertices),
                       "tol": tol}}

    if workload == "percell-k":
        segment_path = os.path.join(workdir, "unit.spx")
        _write_simplex(segment_path, [[0.0], [1.0]])
        spec["extra_ops"].append(
            {"id": "bump",
             "argv": _integrate_argv(BUMP_EXPR, segment_path, BUMP_TOL)})
        checks["bump"] = {
            "reference": reference.gaussian_bump_integral(BUMP_WIDTH,
                                                          BUMP_CENTRE),
            "tol": BUMP_TOL, "known_defect": True}
    return spec, checks


def _random_simplex(rng, n):
    """Jittered, placed unit simplex with a volume well away from 0."""
    unit = np.vstack([np.zeros(n), np.eye(n)])
    while True:
        shape = unit + rng.uniform(-0.2, 0.2, unit.shape)
        edges = shape[1:] - shape[0]
        if abs(np.linalg.det(edges)) > 0.3:
            vertices, _, _ = _place(rng, shape)
            return vertices


def _oneshot(rng, workdir):
    rule_path = os.path.join(workdir, "stroud3.rule")
    with open(rule_path, "w") as fh:
        fh.write(stroud_rule_text())
    problems = []
    references = []
    for index in range(BATTERY_PROBLEMS):
        n = 1 + index % 4
        vertices = _random_simplex(rng, n)
        spread = rng.standard_normal((n, n))
        a = spread @ spread.T / n + 0.2 * np.eye(n)
        b = rng.standard_normal(n)
        c = float(rng.standard_normal())
        calls = ["midpoint", "sandwich"]
        if n == 2:
            calls.append("rule:hh-mix-2d")
        elif n == 3:
            calls.append("rule:stroud")
        problems.append({
            "dim": n,
            "vertices": [[float(x) for x in row] for row in vertices],
            "expr": _quadratic_text(c, b, a),
            "K": reference.quadratic_curvature(a),
            "calls": calls,
        })
        references.append(reference.quadratic_integral(c, b, a, vertices))
    spec = {"workload": "oneshot-bounds", "kind": "bounds",
            "setup": {"stroud_rule": rule_path}, "problems": problems}
    return spec, {"references": references}


def build(workload, seed, workdir):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "oneshot-bounds":
        return _oneshot(rng, workdir)
    return _adaptive(workload, rng, workdir)
