import math

import numpy as np
import pytest

from certicube import bounds, cubature, field, geometry, moments
from certicube.errors import (ConvexityScreenFailed, InvariantViolation,
                              NegativeGauge, RuleNotApplicable)
from certicube.field import ScalarField
from certicube.qform import QuadraticForm

from util import (quadratic_field, rand_convex_quadratic, rand_simplex,
                  vertices_plus_barycenter_rule)

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
NORM_SQ_2D = quadratic_field(0.0, np.zeros(2), QuadraticForm(np.eye(2)))


def test_sandwich_norm_squared():
    result = bounds.hh_sandwich(NORM_SQ_2D, UNIT_TRIANGLE)
    assert result.lower == pytest.approx(1 / 9)
    assert result.upper == pytest.approx(1 / 3)
    true = moments.integrate_poly2(
        (0.0, None, QuadraticForm(np.eye(2))), UNIT_TRIANGLE)
    assert true == pytest.approx(1 / 6)
    assert result.lower <= true <= result.upper


def test_sandwich_collapses_for_affine():
    rng = np.random.default_rng(3)
    s = rand_simplex(rng, 3)
    f = quadratic_field(1.5, np.array([2.0, -1.0, 0.5]), None)
    result = bounds.hh_sandwich(f, s)
    exact = moments.integrate_poly2(
        (1.5, np.array([2.0, -1.0, 0.5]), None), s)
    assert result.lower == pytest.approx(result.upper, rel=1e-12)
    assert result.lower == pytest.approx(exact, rel=1e-12)


def test_sandwich_exp_on_segment():
    seg = geometry.Simplex([[0.0], [1.0]])
    f = ScalarField(dimension=1, evaluator=lambda x: np.exp(x[0]))
    result = bounds.hh_sandwich(f, seg)
    assert result.lower == pytest.approx(math.exp(0.5))
    assert result.upper == pytest.approx((1 + math.e) / 2)
    assert result.lower <= math.e - 1 <= result.upper


def test_sandwich_screening_rejects_concave():
    f = quadratic_field(0.0, np.zeros(2), QuadraticForm(-np.eye(2)))
    with pytest.raises(ConvexityScreenFailed):
        bounds.hh_sandwich(f, UNIT_TRIANGLE, screen=True)
    bounds.hh_sandwich(NORM_SQ_2D, UNIT_TRIANGLE, screen=True)


def test_midpoint_bound_sharp_for_norm_squared():
    result = bounds.midpoint_bound(NORM_SQ_2D, UNIT_TRIANGLE, 2.0)
    assert result.estimate == pytest.approx(1 / 9)
    assert result.radius == pytest.approx(1 / 18)
    true = 1 / 6
    assert abs(true - result.estimate) == pytest.approx(result.radius,
                                                        rel=1e-12)


def test_midpoint_bound_affine_zero_radius():
    f = quadratic_field(2.0, np.array([1.0, 1.0]), None)
    result = bounds.midpoint_bound(f, UNIT_TRIANGLE, 0.0)
    assert result.radius == 0.0
    exact = moments.integrate_poly2((2.0, np.array([1.0, 1.0]), None),
                                    UNIT_TRIANGLE)
    assert result.estimate == pytest.approx(exact, rel=1e-12)


def test_midpoint_bound_exp():
    f = ScalarField(dimension=2, evaluator=lambda x: np.exp(x[0] + x[1]))
    result = bounds.midpoint_bound(f, UNIT_TRIANGLE, 2 * math.e)
    assert result.radius == pytest.approx(math.e / 18)
    true = 1.0  # iterated integral of e^{x+y} over the unit triangle
    assert abs(true - result.estimate) <= result.radius


def test_midpoint_bound_negative_gauge():
    with pytest.raises(NegativeGauge):
        bounds.midpoint_bound(NORM_SQ_2D, UNIT_TRIANGLE, -1.0)


def test_bounds_reject_nan_gauge():
    with pytest.raises(NegativeGauge):
        bounds.midpoint_bound(NORM_SQ_2D, UNIT_TRIANGLE, math.nan)
    with pytest.raises(NegativeGauge):
        bounds.rule_bound(cubature.builtin("hh-mix-2d", 2), NORM_SQ_2D,
                          UNIT_TRIANGLE, math.nan)


def test_rule_bound_exp_mix_rule():
    rule = cubature.builtin("hh-mix-2d", 2)
    f = ScalarField(dimension=2, evaluator=lambda x: np.exp(x[0] + x[1]))
    result = bounds.rule_bound(rule, f, UNIT_TRIANGLE, 2 * math.e)
    assert result.radius == pytest.approx(math.e / 9)
    assert abs(1.0 - result.estimate) <= result.radius


def test_rule_bound_exact_on_degree_2():
    rng = np.random.default_rng(8)
    rule = cubature.builtin("hh-mix-2d", 2)
    f, (c, b, phi) = rand_convex_quadratic(rng, 2)
    gauge = 2 * float(np.max(np.abs(np.linalg.eigvalsh(phi.coeffs))))
    result = bounds.rule_bound(rule, f, UNIT_TRIANGLE, gauge)
    exact = moments.integrate_poly2((c, b, phi), UNIT_TRIANGLE)
    assert abs(result.estimate - exact) <= 1e-13
    assert result.radius == pytest.approx(gauge / 18)


def test_rule_bound_refuses_degree_1_rule():
    rule = cubature.builtin("vertex", 2)
    with pytest.raises(RuleNotApplicable) as err:
        bounds.rule_bound(rule, NORM_SQ_2D, UNIT_TRIANGLE, 2.0)
    assert err.value.report.exactness_degree == 1


def test_barycenter_rule_file_is_evaluated_at_the_exact_barycenter(
        tmp_path):
    # The file's node is the barycenter rounded to decimals; the
    # certificate swaps in the exact builtin rule.
    path = tmp_path / "bary.rule"
    path.write_text("dim 2\nnodes 1\n0.3333333333333333 0.3333333333333333"
                    " 0.3333333333333334\n1\n")
    points = []
    f = ScalarField(dimension=2,
                    evaluator=lambda x: points.append(tuple(x)) or x[1])
    result = bounds.rule_bound(cubature.load_rule(path), f, UNIT_TRIANGLE,
                               2.0)
    exact = cubature.builtin("barycenter", 2).nodes @ UNIT_TRIANGLE.vertices
    assert points == [tuple(exact[0])] and points[0][1] == 1 / 3
    assert result == bounds.midpoint_bound(f, UNIT_TRIANGLE, 2.0)


def test_sandwich_containment_random_quadratics():
    rng = np.random.default_rng(64)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        s = rand_simplex(rng, n)
        f, (c, b, phi) = rand_convex_quadratic(rng, n)
        exact = moments.integrate_poly2((c, b, phi), s)
        result = bounds.hh_sandwich(f, s)
        assert result.lower - 1e-10 <= exact <= result.upper + 1e-10


def test_midpoint_validity_smooth_battery():
    from certicube.adaptive import AdaptiveConfig, integrate_adaptive

    cases = [
        (2, lambda x: np.exp(x[..., 0] + x[..., 1])),
        (2, lambda x: np.sin(x[..., 0]) * np.cos(x[..., 1])),
        (1, lambda x: np.exp(x[..., 0])),
        (1, lambda x: np.sin(3.0 * x[..., 0])),
    ]
    rng = np.random.default_rng(15)
    for n, evaluator in cases:
        f = ScalarField(dimension=n, evaluator=evaluator,
                        supports_batch=True)
        s = rand_simplex(rng, n)
        gauge = 1.05 * field.d2f_sup_norm(f, s, resolution=20).value
        result = bounds.midpoint_bound(f, s, gauge)
        # reference radius is accounted for in the slack, so 1e-7 is
        # plenty against a midpoint radius of order 1e-2
        reference = integrate_adaptive(
            f, s, AdaptiveConfig(tolerance=1e-7, k_mode="global"))
        measured = abs(reference.estimate - result.estimate)
        assert measured <= result.radius + reference.radius


def test_midpoint_sharpness_random_simplices():
    rng = np.random.default_rng(30)
    for n in (1, 2, 3):
        identity = QuadraticForm(np.eye(n))
        f = quadratic_field(0.0, np.zeros(n), identity)
        for _ in range(5):
            s = rand_simplex(rng, n)
            result = bounds.midpoint_bound(f, s, 2.0)
            exact = moments.integrate_poly2((0.0, None, identity), s)
            assert abs(exact - result.estimate) == pytest.approx(
                result.radius, rel=1e-12)


def test_midpoint_is_half_of_rule_radius():
    rng = np.random.default_rng(44)
    for n in (1, 2, 3):
        rule = vertices_plus_barycenter_rule(n)
        assert cubature.verify(rule).thm2_applicable
        s = rand_simplex(rng, n)
        f = quadratic_field(0.0, np.zeros(n), QuadraticForm(np.eye(n)))
        mid = bounds.midpoint_bound(f, s, 2.0)
        full = bounds.rule_bound(rule, f, s, 2.0)
        assert mid.radius == full.radius / 2.0


def test_rule_radius_reference_constant():
    # K * n^2 / ((n+2)! (n+1)) on the unit simplex
    for n in range(1, 7):
        rule = vertices_plus_barycenter_rule(n)
        s = geometry.unit_simplex(n)
        f = quadratic_field(0.0, np.zeros(n), QuadraticForm(np.eye(n)))
        result = bounds.rule_bound(rule, f, s, 2.0)
        expected = 2.0 * n * n / (math.factorial(n + 2) * (n + 1))
        assert result.radius == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("fields", [
    dict(estimate=math.inf), dict(estimate=-math.inf),
    dict(estimate=math.nan), dict(radius=math.inf), dict(radius=math.nan),
    dict(radius=-1e-300), dict(K_used=math.inf), dict(K_used=math.nan),
    dict(estimate=1.79e308, radius=1e307),
    dict(estimate=-1.79e308, radius=1e307)])
def test_certified_result_rejects_non_finite_or_negative(fields):
    values = dict(estimate=1.0, radius=0.5, K_used=2.0) | fields
    with pytest.raises(InvariantViolation):
        bounds.CertifiedResult(K_certified=True, **values)


@pytest.mark.parametrize("fields", [
    dict(lower=math.inf), dict(upper=math.nan), dict(upper=-math.inf)])
def test_sandwich_result_rejects_non_finite(fields):
    with pytest.raises(InvariantViolation):
        bounds.SandwichResult(**(dict(lower=0.0, upper=1.0) | fields))
