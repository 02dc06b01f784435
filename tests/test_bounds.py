import math
import warnings

import numpy as np
import pytest

from certicube import bounds, cubature, field, geometry, moments, qform
from certicube.errors import (ConvexityScreenFailed, DegenerateSimplex,
                              EvaluationFailure, InvariantViolation,
                              NegativeGauge, RuleNotApplicable)
from certicube.field import ScalarField
from certicube.qform import QuadraticForm

from util import (polynomial_field, quadratic_terms, rand_convex_quadratic,
                  rand_simplex, stroud_t3_rule, vertices_plus_barycenter_rule)

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
NORM_SQ_2D = polynomial_field(2, {(2, 0): 1.0, (0, 2): 1.0})


@pytest.mark.parametrize("values", [
    [1e100, 1.0, -1e100],
    [0.1] * 10 + [-1.0],
    [1e16, 1.0, 1.0, -1e16, 3e-300, -5e-324],
    np.random.default_rng(5).standard_normal(300)
    * 10.0 ** np.random.default_rng(6).integers(-30, 30, 300),
    [2.5],
    []], ids=["cancel", "tenths", "mixed", "random", "one", "empty"])
def test_exact_sum_is_fsum_bit_for_bit(values):
    x = np.array(values, dtype=float)
    for view in (x, x[::3], x[1::3][::-1]):
        got = bounds.exact_sum(view)
        assert type(got) is float
        assert got.hex() == math.fsum(view.tolist()).hex()


@pytest.mark.parametrize("values,expected", [
    ([math.inf, -math.inf], "nan"),
    ([1e308, 1e308], "nan"),
    ([math.nan, 1.0], "nan"),
    ([math.inf, 1.0], "inf")])
def test_exact_sum_of_special_values(values, expected):
    got = bounds.exact_sum(np.array(values))
    assert math.isnan(got) if expected == "nan" else got == math.inf


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
    f = polynomial_field(3, quadratic_terms(1.5, [2.0, -1.0, 0.5], None))
    result = bounds.hh_sandwich(f, s)
    exact = moments.integrate_poly2(
        (1.5, np.array([2.0, -1.0, 0.5]), None), s)
    assert result.lower == pytest.approx(result.upper, rel=1e-12)
    assert result.lower == pytest.approx(exact, rel=1e-12)


def test_sandwich_exp_on_segment():
    seg = geometry.Simplex([[0.0], [1.0]])
    f = ScalarField(dimension=1, evaluator=lambda x: np.exp(x[..., 0]))
    result = bounds.hh_sandwich(f, seg)
    assert result.lower == pytest.approx(math.exp(0.5))
    assert result.upper == pytest.approx((1 + math.e) / 2)
    assert result.lower <= math.e - 1 <= result.upper


def test_sandwich_lower_is_the_midpoint_estimate_bit_for_bit():
    for seed in range(1, 5):
        rng = np.random.default_rng(seed)
        for n in range(1, 5):
            f = field.parse_expr("exp(0.3*(" + "+".join(
                f"x{i + 1}" for i in range(n)) + "))", n)
            for _ in range(50):
                s = rand_simplex(rng, n)
                assert bounds.hh_sandwich(f, s).lower == \
                    bounds.midpoint_bound(f, s, 0.0).estimate


def test_sandwich_screening_rejects_concave():
    # The message reports the lowest eigenvalue sampled on the lattice.
    f = field.parse_expr("x1^2 - x1^4 - 3*x1*x2", 2)
    points = geometry.lattice_points(UNIT_TRIANGLE, bounds.SCREEN_RESOLUTION)
    low, _ = qform.extreme_eigenvalues(field.hessians(f, points))
    with pytest.raises(ConvexityScreenFailed) as err:
        bounds.hh_sandwich(f, UNIT_TRIANGLE, screen=True)
    assert str(err.value) == \
        f"lowest sampled Hessian eigenvalue {low.min():g}"
    assert low[0] > low.min()  # not the first point's value
    f = polynomial_field(2, {(2, 0): -1.0, (0, 2): -1.0})
    with pytest.raises(ConvexityScreenFailed):
        bounds.hh_sandwich(f, UNIT_TRIANGLE, screen=True)
    bounds.hh_sandwich(NORM_SQ_2D, UNIT_TRIANGLE, screen=True)


def test_sandwich_screening_passes_a_singular_convex_field():
    # x1^2 in 2-D: every Hessian is diag(2, 0), lowest eigenvalue exactly 0.
    f = field.parse_expr("x1^2", 2)
    points = geometry.lattice_points(UNIT_TRIANGLE, bounds.SCREEN_RESOLUTION)
    low, _ = qform.extreme_eigenvalues(field.hessians(f, points))
    assert np.all(low == 0.0)
    result = bounds.hh_sandwich(f, UNIT_TRIANGLE, screen=True)
    assert result == bounds.hh_sandwich(f, UNIT_TRIANGLE)


def test_midpoint_bound_sharp_for_norm_squared():
    result = bounds.midpoint_bound(NORM_SQ_2D, UNIT_TRIANGLE, 2.0)
    assert result.estimate == pytest.approx(1 / 9)
    assert result.radius == pytest.approx(1 / 18)
    true = 1 / 6
    assert abs(true - result.estimate) == pytest.approx(result.radius,
                                                        rel=1e-12)


def test_midpoint_bound_affine_zero_radius():
    f = polynomial_field(2, quadratic_terms(2.0, [1.0, 1.0], None))
    result = bounds.midpoint_bound(f, UNIT_TRIANGLE, 0.0)
    assert result.radius == 0.0
    exact = moments.integrate_poly2((2.0, np.array([1.0, 1.0]), None),
                                    UNIT_TRIANGLE)
    assert result.estimate == pytest.approx(exact, rel=1e-12)


def test_midpoint_bound_exp():
    f = ScalarField(dimension=2,
                    evaluator=lambda x: np.exp(x[..., 0] + x[..., 1]))
    result = bounds.midpoint_bound(f, UNIT_TRIANGLE, 2 * math.e)
    assert result.radius == pytest.approx(math.e / 18)
    true = 1.0  # iterated integral of e^{x+y} over the unit triangle
    assert abs(true - result.estimate) <= result.radius


def test_midpoint_bound_negative_gauge():
    with pytest.raises(NegativeGauge):
        bounds.midpoint_bound(NORM_SQ_2D, UNIT_TRIANGLE, -1.0)


def test_bounds_reject_nan_gauge():
    for gauge in (math.nan, math.inf):
        with pytest.raises(NegativeGauge):
            bounds.midpoint_bound(NORM_SQ_2D, UNIT_TRIANGLE, gauge)
        with pytest.raises(NegativeGauge):
            bounds.rule_bound(cubature.builtin("hh-mix-2d", 2), NORM_SQ_2D,
                              UNIT_TRIANGLE, gauge)


def test_rule_bound_exp_mix_rule():
    rule = cubature.builtin("hh-mix-2d", 2)
    f = ScalarField(dimension=2,
                    evaluator=lambda x: np.exp(x[..., 0] + x[..., 1]))
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
                    evaluator=lambda x: points.extend(map(tuple, x))
                    or x[..., 1])
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
        (2, "exp(x1 + x2)"),
        (2, "sin(x1)*cos(x2)"),
        (1, "exp(x1)"),
        (1, "sin(3.0*x1)"),
    ]
    rng = np.random.default_rng(15)
    for n, text in cases:
        f = field.parse_expr(text, n)
        s = rand_simplex(rng, n)
        gauge = 1.05 * field.d2f_sup_norm(f, s, resolution=20)
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
        f = polynomial_field(n, quadratic_terms(0.0, np.zeros(n), identity))
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
        f = polynomial_field(n, quadratic_terms(0.0, np.zeros(n),
                                                QuadraticForm(np.eye(n))))
        mid = bounds.midpoint_bound(f, s, 2.0)
        full = bounds.rule_bound(rule, f, s, 2.0)
        assert mid.radius == full.radius / 2.0


def test_rule_radius_reference_constant():
    # K * n^2 / ((n+2)! (n+1)) on the unit simplex
    for n in range(1, 7):
        rule = vertices_plus_barycenter_rule(n)
        s = geometry.unit_simplex(n)
        f = polynomial_field(n, quadratic_terms(0.0, np.zeros(n),
                                                QuadraticForm(np.eye(n))))
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


def _certificates(f, s):
    """(estimate, radius) of a midpoint and a degree-2 rule certificate,
    and the kept second moment, all on s."""
    mid = bounds.midpoint_bound(f, s, 2.0)
    rule = bounds.rule_bound(vertices_plus_barycenter_rule(s.dimension), f,
                             s, 2.0)
    return [mid.estimate, mid.radius, rule.estimate, rule.radius,
            moments.central_second_moment(s)]


def test_second_moment_is_computed_once(monkeypatch):
    calls = []
    cell_stats = geometry.cell_stats
    monkeypatch.setattr(geometry, "cell_stats",
                        lambda *args: calls.append(1) or cell_stats(*args))
    rng = np.random.default_rng(17)
    for n in range(1, 5):
        f = field.parse_expr("exp(0.3*(" + "+".join(
            f"x{i + 1}" for i in range(n)) + "))", n)
        s = rand_simplex(rng, n)
        assert calls == []  # lazily: building a Simplex computes none
        first = _certificates(f, s)
        assert calls == [1]
        again = _certificates(f, s)
        assert calls == [1]  # kept: the second certificates compute none
        fresh = _certificates(f, geometry.Simplex(s.vertices))
        assert np.array(again).tobytes() == np.array(first).tobytes() \
            == np.array(fresh).tobytes()
        calls.clear()


def test_degenerate_simplex_raises_on_every_certificate():
    flat = geometry.Simplex([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    for _ in range(2):
        with pytest.raises(DegenerateSimplex):
            flat.second_moment
        with pytest.raises(DegenerateSimplex):
            bounds.midpoint_bound(NORM_SQ_2D, flat, 1.0)
        with pytest.raises(DegenerateSimplex):
            moments.central_second_moment(flat)


def test_huge_simplex_radius_is_refused_without_a_warning():
    # Its second moment overflows; the inf that is kept is rejected by
    # every certificate that reads it, with no RuntimeWarning.
    huge = geometry.Simplex([[0.0, 0.0], [1e150, 0.0], [0.0, 1e150]])
    one = field.parse_expr("1", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(InvariantViolation,
                               match="non-finite cell radius"):
                bounds.midpoint_bound(one, huge, 1.0)
            with pytest.raises(InvariantViolation,
                               match="non-finite cell radius"):
                bounds.midpoint_bound(one, huge, 0.0)  # 0 * inf
            with pytest.raises(InvariantViolation,
                               match="non-finite second moment"):
                moments.central_second_moment(huge)
        assert huge.second_moment == math.inf


def test_sandwich_reads_the_vertices_with_their_signs():
    # exp(1/x1) is 0 at -0.0 and inf at 0.0: a vertex weighted by an
    # identity row would become 0.0 and fail the evaluation.
    seg = geometry.Simplex([[-0.0], [1.0]])
    result = bounds.hh_sandwich(field.parse_expr("exp(1/x1)", 1), seg)
    assert (result.lower, result.upper) == (math.exp(2.0), math.e / 2)


# Each one-shot certificate on a unit simplex scaled by 10 (volume > 1),
# as (its call given f and K, the simplex's dimension).
ONE_SHOT = {
    "midpoint": (lambda f, s, k: bounds.midpoint_bound(f, s, k), 2),
    "rule-hh-mix-2d": (lambda f, s, k: bounds.rule_bound(
        cubature.builtin("hh-mix-2d", 2), f, s, k), 2),
    "rule-stroud-3d": (lambda f, s, k: bounds.rule_bound(
        stroud_t3_rule(), f, s, k), 3),
    "sandwich": (lambda f, s, k: bounds.hh_sandwich(f, s), 2),
}
# (integrand, K, error, message): f overflows at a node; f divides by
# zero at every point, the midpoint's one point in numpy scalars; f is
# finite but its mean times the volume overflows; K times the second
# moment overflows (the sandwich has no K).
FAILURES = {
    "node": ("exp(1e4*x1)", 1.0, EvaluationFailure, "non-finite on a batch"),
    "pole": ("1/(x1-x1)", 1.0, EvaluationFailure, "non-finite on a batch"),
    "volume": ("1e308", 1.0, InvariantViolation,
               r"non-finite (estimate|lower) inf"),
    "radius": ("x1", 1e308, InvariantViolation, "non-finite cell radius"),
}


@pytest.mark.parametrize("certificate,case", [
    (certificate, case) for certificate in ONE_SHOT for case in FAILURES
    if (certificate, case) != ("sandwich", "radius")])
def test_one_shot_certificates_fail_with_their_error_and_no_warning(
        certificate, case):
    call, n = ONE_SHOT[certificate]
    text, k, error, message = FAILURES[case]
    s = geometry.Simplex(10.0 * np.vstack([np.zeros(n), np.eye(n)]))
    f = field.parse_expr(text, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            call(f, s, k)
