"""End-to-end acceptance suite.

Each test covers one advertised guarantee of the package and records a
single PASS/FAIL line with the measured quantity; the lines are printed
in the terminal summary after the run, so a log of this module doubles
as a conformance report.
"""

import io
import math

import numpy as np

from certicube import bounds, cubature, field, geometry, moments, qform
from certicube.adaptive import AdaptiveConfig, integrate_adaptive
from certicube.cli import run
from certicube.field import ScalarField
from certicube.qform import QuadraticForm

from conftest import ACCEPTANCE_LINES
from util import rand_convex_quadratic, rand_polynomial_field, rand_simplex

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# Smooth battery with closed-form references:
#   iint_T exp(x1+x2)      = int_0^1 (e - e^x) dx        = 1
#   int_0^1 exp(x1)                                      = e - 1
#   iint_T sin(x1)cos(x2)  = (sin 1 - cos 1) / 2
BATTERY = [
    ("exp(x1+x2)", 2, 1.0),
    ("exp(x1)", 1, math.e - 1.0),
    ("sin(x1)*cos(x2)", 2, (math.sin(1.0) - math.cos(1.0)) / 2.0),
]


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number} ({name}): {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def battery_field(text, n):
    f = field.parse_expr(text, n)
    return f


def test_criterion_1_constants_table():
    worst = 0.0
    for n in range(1, 7):
        expected = n * n / (math.factorial(n + 2) * (n + 1))
        got = moments.central_second_moment_unit(n)
        trace = float(np.trace(np.array(moments.central_matrix_exact(n),
                                       dtype=float)))
        worst = max(worst,
                    abs(got - expected) / expected,
                    abs(trace - expected) / expected)
    report(1, "central second moment constants", worst <= 1e-14,
           f"max relative error {worst:.3e} over n=1..6 "
           f"(values 1/12, 1/18, 3/160, 1/225, 5/6048, 1/7840)")


def test_criterion_2_mix_rule_certificate():
    rule = cubature.builtin("hh-mix-2d", 2)
    rep = cubature.verify(rule)
    residual = max(rep.residuals.values())
    f = battery_field("exp(x1+x2)", 2)
    applied = cubature.apply_rule(rule, f, UNIT_TRIANGLE)
    measured = abs(1.0 - applied)
    bound = 2.0 * math.e / 18.0
    ratio = measured / bound
    ok = (rep.positivity and rep.exactness_degree >= 2
          and residual <= 1e-14 and ratio <= 1.0)
    report(2, "mixed rule degree-2 certificate", ok,
           f"residual {residual:.3e}, measured/bound ratio {ratio:.4f}")


def test_criterion_3_midpoint_sharpness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 3
        s = rand_simplex(rng, n)
        identity = QuadraticForm(np.eye(n))
        f = ScalarField(
            dimension=n,
            evaluator=lambda x: np.sum(x ** 2, axis=-1),
            hessian=lambda u, n=n: np.broadcast_to(2.0 * np.eye(n),
                                                   u.shape + (n,)))
        result = bounds.midpoint_bound(f, s, 2.0)
        exact = moments.integrate_poly2((0.0, None, identity), s)
        gap = abs(abs(exact - result.estimate) - result.radius)
        worst = max(worst, gap / result.radius)
    report(3, "midpoint bound sharpness on |x|^2", worst <= 1e-12,
           f"max relative equality defect {worst:.3e} over 20 simplices")


def test_criterion_4_sandwich_suite():
    rng = np.random.default_rng(202)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        s = rand_simplex(rng, n)
        f, (c, b, phi) = rand_convex_quadratic(rng, n)
        exact = moments.integrate_poly2((c, b, phi), s)
        result = bounds.hh_sandwich(f, s)
        if not (result.lower - 1e-10 <= exact <= result.upper + 1e-10):
            failures += 1
    report(4, "convex sandwich containment", failures == 0,
           f"{200 - failures}/200 random convex quadratics contained")


def _mc_mean_se(rng, s, values_of_points, samples):
    gaps = rng.standard_exponential((samples, s.dimension + 1))
    bary = gaps / gaps.sum(axis=1, keepdims=True)
    pts = bary @ s.vertices
    vals = values_of_points(pts)
    vol = geometry.volume(s)
    mean = vol * float(np.mean(vals))
    se = vol * float(np.std(vals)) / math.sqrt(samples)
    return mean, se


def test_criterion_5_moment_oracle_agreement():
    rng = np.random.default_rng(303)
    hits = 0
    for trial in range(10):
        n = 1 + trial % 3
        s = rand_simplex(rng, n)
        unit = geometry.unit_simplex(n)
        center = s.vertices.mean(axis=0)

        mean, se = _mc_mean_se(
            rng, s, lambda p: np.sum((p - center) ** 2, axis=1), 10 ** 6)
        ok = abs(mean - moments.central_second_moment(s)) <= 3 * se

        alpha = [0] * n
        for _ in range(int(rng.integers(0, 3))):
            alpha[int(rng.integers(0, n))] += 1
        alpha = tuple(alpha)
        mean_m, se_m = _mc_mean_se(
            rng, unit,
            lambda p: np.prod(p ** np.asarray(alpha), axis=1), 10 ** 6)
        ok = ok and abs(mean_m - moments.monomial_moment(n, alpha)) <= 3 * se_m
        hits += ok
    report(5, "moments vs Monte Carlo oracle", hits >= 9,
           f"{hits}/10 simplices within 3 standard errors (1e6 samples)")


def test_criterion_6_adaptive_certificates():
    worst_radius = 0.0
    worst_miss = 0.0
    for text, n, reference in BATTERY:
        f = battery_field(text, n)
        s = UNIT_TRIANGLE if n == 2 else geometry.Simplex([[0.0], [1.0]])
        result = integrate_adaptive(
            f, s, AdaptiveConfig(tolerance=1e-6, k_mode="global"))
        miss = abs(result.estimate - reference)
        assert miss <= result.radius
        worst_radius = max(worst_radius, result.radius)
        worst_miss = max(worst_miss, miss)
    report(6, "adaptive certificate validity", worst_radius <= 1e-6,
           f"max radius {worst_radius:.3e}, max true error "
           f"{worst_miss:.3e} over the 3-field battery at tol 1e-6")


def test_criterion_7_norm_axioms():
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        phi = QuadraticForm(a + a.T)
        psi = QuadraticForm(rng.normal(size=(n, n)))
        norm = qform.operator_norm(phi)
        x = rng.normal(size=n)
        c = float(rng.normal())
        ok = abs(qform.evaluate(phi, x)) <= norm * float(x @ x) + 1e-10
        ok &= norm <= qform.sum_abs_bound(phi) + 1e-10
        scaled = qform.operator_norm(QuadraticForm(c * phi.coeffs))
        ok &= abs(scaled - abs(c) * norm) <= 1e-10 * (1 + abs(c) * norm)
        total = qform.operator_norm(QuadraticForm(phi.coeffs + psi.coeffs))
        ok &= total <= norm + qform.operator_norm(psi) + 1e-10
        violations += not ok
    report(7, "quadratic form norm axioms", violations == 0,
           f"{violations}/1000 random forms violated an axiom")


def test_criterion_8_convexification_lattice():
    rng = np.random.default_rng(505)
    worst_eig = 0.0
    worst_norm = 0.0
    for _ in range(20):
        f = rand_polynomial_field(rng, 2)
        gauge = field.d2f_sup_norm(f, UNIT_TRIANGLE, resolution=20)
        plus, minus = field.convexify(f, gauge)
        for g in (plus, minus):
            for point in geometry.lattice_points(UNIT_TRIANGLE, 20):
                h = field.hessian_at(g, point)
                worst_eig = min(worst_eig, qform.min_eigenvalue(h))
                worst_norm = max(
                    worst_norm, qform.operator_norm(h) - 2 * gauge)
    ok = worst_eig >= -1e-8 and worst_norm <= 1e-8
    report(8, "convexified pair lattice check", ok,
           f"min eigenvalue {worst_eig:.3e}, max norm excess "
           f"{worst_norm:.3e} over 20 polynomial fields")


def test_criterion_9_thread_count_determinism(tmp_path):
    tri = tmp_path / "tri.spx"
    tri.write_text("0 0\n1 0\n0 1\n")
    seg = tmp_path / "seg.spx"
    seg.write_text("0\n1\n")
    identical = True
    for text, n, _ in BATTERY:
        simplex = str(tri if n == 2 else seg)
        outputs = []
        for threads in ("1", "8"):
            out = io.StringIO()
            code = run(["--threads", threads, "integrate", "--expr", text,
                        "--simplex", simplex, "--tol", "1e-6",
                        "--k-mode", "global"], out=out)
            assert code == 0
            outputs.append(out.getvalue())
        identical &= outputs[0] == outputs[1]
    report(9, "thread-count determinism", identical,
           "integrate output byte-identical for --threads 1 and 8 "
           "across the battery")
