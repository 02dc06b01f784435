import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from certicube import bounds, cubature, geometry, moments
from certicube import adaptive as adaptive_mod
from certicube import field as field_mod
from certicube.adaptive import (AdaptiveConfig, RunDiagnostics,
                                integrate_adaptive)
from certicube.errors import (BudgetExhausted, CerticubeError,
                              DimensionMismatch, EvaluationFailure,
                              InvariantViolation, NegativeGauge,
                              RuleNotApplicable)
from certicube.field import ScalarField
from certicube.qform import QuadraticForm

from util import (centered_k, heap_integrate, mc_integral, polynomial_field,
                  quadratic_terms, rand_simplex, refine_steps,
                  stroud_t3_rule, vertices_plus_barycenter_rule)

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EXP_SUM_2D = ScalarField(
    dimension=2,
    evaluator=lambda x: np.exp(x[..., 0] + x[..., 1]),
    hessian=lambda u: np.exp(u[:, 0] + u[:, 1])[:, None, None]
    * np.ones((2, 2)))
EXP_1D = ScalarField(
    dimension=1, evaluator=lambda x: np.exp(x[..., 0]),
    hessian=lambda u: np.exp(u[:, :, None]))


def test_degree2_polynomial_estimate_is_exact():
    rng = np.random.default_rng(6)
    phi = QuadraticForm([[2.0, 0.5], [0.5, 1.0]])
    f = polynomial_field(2, quadratic_terms(0.3, [1.0, -2.0], phi))
    rule = cubature.builtin("hh-mix-2d", 2)
    s = rand_simplex(rng, 2)
    exact = moments.integrate_poly2((0.3, np.array([1.0, -2.0]), phi), s)
    # The estimate is exact at every refinement state (zero error on the
    # exactness class); the radius still tracks K * moment, so a modest
    # tolerance keeps the cell count sane.
    result = integrate_adaptive(
        f, s, AdaptiveConfig(tolerance=1e-3, rule=rule))
    assert abs(result.estimate - exact) <= 1e-12
    assert result.radius <= 1e-3


def test_affine_field_converges_with_one_cell():
    f = polynomial_field(2, quadratic_terms(1.0, [2.0, -1.0], None))
    result = integrate_adaptive(
        f, UNIT_TRIANGLE, AdaptiveConfig(tolerance=1e-8))
    assert result.cells == 1
    exact = moments.integrate_poly2(
        (1.0, np.array([2.0, -1.0]), None), UNIT_TRIANGLE)
    assert abs(result.estimate - exact) <= 1e-12


def test_exp_2d_to_tolerance():
    result = integrate_adaptive(
        EXP_SUM_2D, UNIT_TRIANGLE,
        AdaptiveConfig(tolerance=1e-6, k_mode="global"))
    assert result.radius <= 1e-6
    assert abs(result.estimate - 1.0) <= result.radius


def test_exp_1d_to_tolerance():
    seg = geometry.Simplex([[0.0], [1.0]])
    result = integrate_adaptive(
        EXP_1D, seg, AdaptiveConfig(tolerance=1e-8))
    assert result.radius <= 1e-8
    assert abs(result.estimate - (math.e - 1)) <= result.radius


def test_per_cell_k_beats_global_k():
    cfg_local = AdaptiveConfig(tolerance=1e-4)
    cfg_global = AdaptiveConfig(tolerance=1e-4, k_mode="global")
    local = integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, cfg_local)
    global_ = integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, cfg_global)
    assert local.cells <= global_.cells
    for result in (local, global_):
        assert abs(result.estimate - 1.0) <= result.radius <= 1e-4


def test_rejects_degree_1_rule():
    with pytest.raises(RuleNotApplicable) as err:
        integrate_adaptive(
            EXP_SUM_2D, UNIT_TRIANGLE,
            AdaptiveConfig(tolerance=1e-4,
                           rule=cubature.builtin("vertex", 2)))
    assert err.value.report.exactness_degree == 1


def test_budget_exhausted_carries_partial_result():
    with pytest.raises(BudgetExhausted) as err:
        integrate_adaptive(
            EXP_SUM_2D, UNIT_TRIANGLE,
            AdaptiveConfig(tolerance=1e-12, max_cells=50, k_mode="global"))
    partial = err.value.result
    assert partial.cells == 50
    assert abs(partial.estimate - 1.0) <= partial.radius


def test_partition_additivity_after_one_bisection():
    diag = RunDiagnostics()
    cfg = AdaptiveConfig(tolerance=1.0, k_mode="global")
    partial = refine_steps(EXP_SUM_2D, UNIT_TRIANGLE, cfg, 1,
                           diagnostics=diag)
    assert len(diag.radii) == 2
    left, right = geometry.bisect(UNIT_TRIANGLE)
    two_cell = sum(
        geometry.volume(c) * math.exp(np.sum(c.vertices.mean(axis=0)))
        for c in (left, right))
    assert partial.estimate == pytest.approx(two_cell, rel=1e-15)
    assert partial.estimate == pytest.approx(
        sum(diag.estimates), rel=1e-15)


def test_partition_volumes_at_any_refinement_state():
    cfg = AdaptiveConfig(tolerance=1.0, k_mode="global")
    for steps in (1, 5, 17, 40):
        diag = RunDiagnostics()
        refine_steps(EXP_SUM_2D, UNIT_TRIANGLE, cfg, steps,
                     diagnostics=diag)
        total = sum(geometry.volume(geometry.Simplex(v))
                    for v in diag.vertices)
        assert total == pytest.approx(0.5, rel=1e-10)


def test_monotone_radius_with_global_k():
    cfg = AdaptiveConfig(tolerance=1.0, k_mode="global")
    previous = math.inf
    for steps in range(25):
        diag = RunDiagnostics()
        refine_steps(EXP_SUM_2D, UNIT_TRIANGLE, cfg, steps,
                     diagnostics=diag)
        radius = sum(diag.radii)
        assert radius <= previous + 1e-15
        previous = radius


def test_determinism_repeat_runs():
    cfg = AdaptiveConfig(tolerance=1e-5, k_mode="global")
    first = integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, cfg)
    second = integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, cfg)
    # The barycenter rule is the midpoint rule, with its certificate.
    named = integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, replace(
        cfg, rule=cubature.builtin("barycenter", 2)))
    assert first == second == named


def test_rule_based_adaptive():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3):
        rule = vertices_plus_barycenter_rule(n)
        s = rand_simplex(rng, n)
        f = field_mod.parse_expr(
            "exp(" + "+".join(f"x{i + 1}" for i in range(n)) + ")", n)
        result = integrate_adaptive(
            f, s, AdaptiveConfig(tolerance=1e-4, rule=rule, k_mode="global"))
        oracle, se = mc_integral(np.random.default_rng(n), s,
                                 lambda p: field_mod.evaluate_batch(f, p),
                                 200000)
        assert abs(result.estimate - oracle) <= result.radius + 3 * se
        assert result.radius <= 1e-4


def test_oracle_constant_field():
    rng = np.random.default_rng(2)
    s = rand_simplex(rng, 3)
    f = ScalarField(dimension=3, evaluator=lambda x: np.ones(len(x)))
    mean, se = mc_integral(np.random.default_rng(5), s,
                           lambda p: field_mod.evaluate_batch(f, p), 1000)
    assert mean == pytest.approx(geometry.volume(s), rel=1e-12)
    assert se == 0.0


def test_oracle_linear_moment():
    f = ScalarField(dimension=2, evaluator=lambda x: x[..., 0])
    mean, se = mc_integral(np.random.default_rng(7), geometry.unit_simplex(2),
                           lambda p: field_mod.evaluate_batch(f, p), 10 ** 6)
    assert abs(mean - 1 / 6) <= 3 * se


def test_oracle_exp_field():
    mean, se = mc_integral(np.random.default_rng(11), UNIT_TRIANGLE,
                           EXP_SUM_2D.evaluator, 10 ** 6)
    assert abs(mean - 1.0) <= 3 * se


def test_oracle_deterministic_given_seed():
    assert mc_integral(np.random.default_rng(3), UNIT_TRIANGLE,
                       EXP_SUM_2D.evaluator, 1000) == \
        mc_integral(np.random.default_rng(3), UNIT_TRIANGLE,
                    EXP_SUM_2D.evaluator, 1000)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(tolerance=1e-6, k_mode="magic")
    with pytest.raises(ValueError):
        AdaptiveConfig(tolerance=1e-6, rule="trapezoid")
    for budget in ({"max_cells": 0}, {"max_cells": -5}, {"max_depth": -1}):
        with pytest.raises(ValueError):
            AdaptiveConfig(tolerance=1e-6, **budget)


@pytest.mark.parametrize("k", [-1.0, math.nan, math.inf])
def test_config_rejects_bad_k_override(k):
    with pytest.raises(NegativeGauge):
        AdaptiveConfig(tolerance=1e-6, k_override=k)


def test_non_finite_k_or_radius_raises():
    # The Hessian of 1e308*x1^2 overflows, so per-cell K is inf.
    huge = field_mod.parse_expr("1e308*x1*x1", 2)
    # A finite K times the moment of a huge simplex overflows the radius.
    big = geometry.Simplex(1e80 * UNIT_TRIANGLE.vertices)
    affine = polynomial_field(2, quadratic_terms(1.0, [1.0, 1.0], None))
    # The overflow is reported by the error alone, not by a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CerticubeError, match="Hessian"):
            integrate_adaptive(huge, UNIT_TRIANGLE,
                               AdaptiveConfig(tolerance=1.0))
        with pytest.raises(CerticubeError, match="radius"):
            integrate_adaptive(affine, big, AdaptiveConfig(
                tolerance=1.0, k_override=1.0))


def test_result_fields_are_python_floats():
    rule = vertices_plus_barycenter_rule(2)
    results = [
        integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE,
                           AdaptiveConfig(tolerance=1e-3)),
        integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE,
                           AdaptiveConfig(tolerance=1e-3, rule=rule)),
    ]
    with pytest.raises(BudgetExhausted) as err:
        integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, AdaptiveConfig(
            tolerance=1e-12, max_cells=9, k_override=np.float64(6.0)))
    results.append(err.value.result)
    results.append(bounds.rule_bound(
        cubature.builtin("hh-mix-2d", 2), EXP_SUM_2D, UNIT_TRIANGLE, 6.0))
    results.append(bounds.midpoint_bound(
        EXP_SUM_2D, UNIT_TRIANGLE, np.float64(6.0)))
    for result in results:
        assert [type(v) for v in (result.estimate, result.radius,
                                  result.K_used)] == [float] * 3


@pytest.mark.parametrize("kwargs", [{"k_override": 2 * math.e},
                                    {"k_mode": "global"}],
                         ids=["override", "global"])
def test_one_k_is_given_to_every_leaf(kwargs):
    # The loop keeps a global or override K as one float; the diagnostics
    # give it to every leaf, and K_used is it.
    diag = RunDiagnostics()
    result = integrate_adaptive(
        EXP_SUM_2D, UNIT_TRIANGLE,
        AdaptiveConfig(tolerance=1e-4, **kwargs), diagnostics=diag)
    assert result.cells > 1
    assert diag.k_cells.shape == (result.cells,)
    assert diag.k_cells.dtype == np.float64
    assert (diag.k_cells == result.K_used).all()
    if "k_override" in kwargs:
        assert result.K_used == kwargs["k_override"]


def test_k_override_marks_certified():
    result = integrate_adaptive(
        EXP_SUM_2D, UNIT_TRIANGLE,
        AdaptiveConfig(tolerance=1e-4, k_override=2 * math.e))
    assert result.K_certified
    assert result.K_used == 2 * math.e
    assert abs(result.estimate - 1.0) <= result.radius


def _exp_field(a, hessian):
    """exp(a.x), opaque with its "analytic" Hessian or parsed ("tape":
    exact jets)."""
    n = len(a)
    if hessian == "tape":
        terms = " + ".join(f"{float(c)!r}*x{i + 1}" for i, c in enumerate(a))
        return field_mod.parse_expr(f"exp({terms})", n)

    def analytic(u):
        return np.exp(u @ a)[:, None, None] * np.outer(a, a)

    return ScalarField(dimension=n, evaluator=lambda x: np.exp(x @ a),
                       hessian=analytic)


# (dimension, rule?, K mode, tol / root radius, max_cells, max_depth):
# K mode "override" passes the analytic constant, "global" the lattice
# sup, "tape" and "analytic" are per-cell K from a parsed field's jets
# or analytic Hessians.
HEAP_CASES = [
    (1, False, "override", 1e-4, 10 ** 6, 60),
    (1, True, "tape", 1e-4, 10 ** 6, 60),
    (2, False, "override", 5e-3, 10 ** 6, 60),
    (2, False, "global", 5e-3, 10 ** 6, 60),
    (2, True, "override", 4e-3, 10 ** 6, 60),
    (2, False, "tape", 4e-3, 10 ** 6, 60),
    (2, True, "analytic", 5e-3, 10 ** 6, 60),
    (3, False, "override", 3e-2, 10 ** 6, 60),
    (3, True, "override", 2e-2, 10 ** 6, 60),
    (3, False, "tape", 0.06, 10 ** 6, 60),
    (2, False, "override", 1e-6, 37, 60),
    (3, True, "tape", 1e-6, 21, 60),
    (3, False, "override", 1e-9, 60, 60),
    (3, True, "override", 1e-9, 45, 60),
    (2, False, "tape", 1e-9, 50, 60),
    (2, False, "tape", 1e-6, 10 ** 6, 4),
    (1, False, "override", 1e-9, 10 ** 6, 5),
    (2, True, "tape", 4e-3, 10 ** 6, 60),
    (3, False, "tape", 1e-6, 21, 60),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", range(len(HEAP_CASES)))
def test_matches_reference_heap(case, seed):
    n, use_rule, k_mode, tol_fraction, max_cells, max_depth = \
        HEAP_CASES[case]
    rng = np.random.default_rng(1000 * seed + case)
    s = rand_simplex(rng, n)
    a = rng.uniform(-1.5, 1.5, size=n)
    f = _exp_field(a, "tape" if k_mode == "tape" else "analytic")
    rule = vertices_plus_barycenter_rule(n) if use_rule else None
    k_ref = None
    if k_mode == "override":
        k_ref = 1.01 * float(a @ a) * math.exp(
            float(np.max(s.vertices @ a)))
    elif k_mode == "global":
        k_ref = field_mod.d2f_sup_norm(f, s, resolution=20)
    root = heap_integrate(f, s, math.inf, rule=rule, K=k_ref)[1]
    tol = tol_fraction * root
    ref = heap_integrate(f, s, tol, rule=rule, K=k_ref,
                         max_cells=max_cells, max_depth=max_depth)
    cfg = AdaptiveConfig(
        tolerance=tol, max_cells=max_cells, max_depth=max_depth,
        rule=rule or cubature.builtin("barycenter", n),
        k_mode="global" if k_mode == "global" else "per-cell",
        k_override=k_ref if k_mode == "override" else None)
    diag = RunDiagnostics()
    try:
        result = integrate_adaptive(f, s, cfg, diagnostics=diag)
        stop = "tol"
    except BudgetExhausted as exc:
        result = exc.result
        stop = str(exc).split()[0]
    estimate, radius, cells, hist, ref_stop = ref
    assert (stop, result.cells, diag.depth_histogram) == \
        (ref_stop, cells, hist)
    assert diag.stop == ("tolerance" if stop == "tol" else stop)
    # Near-equal radii may pick different cells on rounding noise, so
    # the two partitions can differ while both enclose the integral.
    assert abs(result.estimate - estimate) <= result.radius + radius


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_k_matches_hessian_at(n):
    rng = np.random.default_rng(70 + n)
    s = rand_simplex(rng, n)
    f = _exp_field(rng.uniform(-1.5, 1.5, size=n), "tape")
    diag = RunDiagnostics()
    refine_steps(f, s, AdaptiveConfig(tolerance=1.0), 12, diagnostics=diag)
    assert len(diag.k_cells) == 13
    # Per-cell K is centered: the largest norm of D^2 f - D^2 f(pbar).
    for v, k_local in zip(diag.vertices, diag.k_cells):
        expected = centered_k(f, geometry.Simplex(v), 4)[1]
        assert k_local == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_matches_reference_heap_at_every_cell_budget(monkeypatch, n):
    # Per-cell K lets a child outgrow other leaves of its round, so the
    # prefix rule decides which leaves are split before the budget.
    rng = np.random.default_rng(40 + n)
    s = rand_simplex(rng, n)
    f = _exp_field(rng.uniform(-2.0, 2.0, size=n), "analytic")
    monkeypatch.setattr(adaptive_mod, "K_RESOLUTION", 2)
    for max_cells in range(2, 48):
        ref = heap_integrate(f, s, 1e-12, k_resolution=2,
                             max_cells=max_cells)
        diag = RunDiagnostics()
        with pytest.raises(BudgetExhausted) as err:
            integrate_adaptive(f, s, AdaptiveConfig(
                tolerance=1e-12, max_cells=max_cells),
                diagnostics=diag)
        partial = err.value.result
        assert (partial.cells, diag.depth_histogram) == (ref[2], ref[3])
        assert abs(partial.estimate - ref[0]) <= partial.radius + ref[1]


@pytest.mark.parametrize("points", [64, 1])
def test_partition_does_not_depend_on_round_size(monkeypatch, points):
    rng = np.random.default_rng(9)
    s = rand_simplex(rng, 2)
    f = _exp_field(rng.uniform(-2.0, 2.0, size=2), "tape")
    cfg = AdaptiveConfig(tolerance=1e-6)
    base = RunDiagnostics()
    expected = integrate_adaptive(f, s, cfg, diagnostics=base)
    monkeypatch.setattr(adaptive_mod, "POINTS_PER_ROUND", points)
    diag = RunDiagnostics()
    assert integrate_adaptive(f, s, cfg, diagnostics=diag) == expected
    assert diag.depth_histogram == base.depth_histogram
    assert diag.rounds != base.rounds


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leaves_inherit_exact_volumes(monkeypatch, n):
    # f = 1 + 1e-30 * sqrt(1e-12 + |x|^2) rounds to 1 everywhere, and its
    # quadratic term to nothing beside the volume, so a leaf's estimate
    # is its volume: |det E| of the root halved once per level. Its own
    # Hessian peaks at the vertex at the origin, which drives one corner
    # past depth 15 while coordinates stay relative.
    rng = np.random.default_rng(80 + n)
    monkeypatch.setattr(adaptive_mod, "K_RESOLUTION", 1)
    norm = " + ".join(f"x{i + 1}^2" for i in range(n))
    one = field_mod.parse_expr(f"1 + 1e-30*sqrt(1e-12 + {norm})", n)
    for _ in range(3):
        vertices = rand_simplex(rng, n).vertices
        s = geometry.Simplex(vertices - vertices[0])
        diag = RunDiagnostics()
        result = refine_steps(one, s, AdaptiveConfig(tolerance=1.0), 150,
                              diagnostics=diag)
        assert max(diag.depths) >= 15
        for v, estimate in zip(diag.vertices, diag.estimates):
            assert estimate == pytest.approx(
                geometry.volume(geometry.Simplex(v)), rel=1e-12)
        # Halving is exact and the depths tile the root, so the sum is
        # the root volume to the last bit.
        assert math.fsum(diag.estimates) \
            == result.estimate == geometry.volume(s)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_cell_is_the_one_shot_certificate(n):
    # One cell, one certificate: the loop's root and the API's one-shot
    # bound run the same kernel on the same simplex, bit for bit.
    rng = np.random.default_rng(5)
    f = field_mod.parse_expr(
        "exp(" + "+".join(f"x{i + 1}" for i in range(n)) + ")", n)
    pair = vertices_plus_barycenter_rule(n)
    for _ in range(100):
        s = rand_simplex(rng, n)
        for rule, one_shot in ((None, bounds.midpoint_bound(f, s, 2.5, True)),
                               (pair, bounds.rule_bound(pair, f, s, 2.5,
                                                        True))):
            cfg = AdaptiveConfig(tolerance=math.inf, max_cells=1, rule=rule,
                                 k_override=2.5)
            assert integrate_adaptive(f, s, cfg) == one_shot


# heap_integrate(EXP_SUM_2D, UNIT_TRIANGLE, 1e-6, K=global K) takes
# about 45 s, so its cell count and depth histogram are pinned here.
HEAP_AT_1E6 = (165692, {17: 96452, 18: 69240})


@pytest.mark.parametrize("tol", [1.5e-5, 1e-6])
def test_rounds_do_not_over_split(tol):
    diag = RunDiagnostics()
    result = integrate_adaptive(
        EXP_SUM_2D, UNIT_TRIANGLE,
        AdaptiveConfig(tolerance=tol, k_mode="global"), diagnostics=diag)
    if tol == 1e-6:
        cells, hist = HEAP_AT_1E6
    else:
        k = field_mod.d2f_sup_norm(EXP_SUM_2D, UNIT_TRIANGLE)
        cells, hist = heap_integrate(EXP_SUM_2D, UNIT_TRIANGLE, tol,
                                     K=k)[2:4]
    assert (result.cells, diag.depth_histogram) == (cells, hist)
    assert diag.discarded_splits <= 0.05 * result.cells


def test_3d_rounds_do_not_over_split():
    # With a fixed band of a quarter of the largest radius, 479 of these
    # 3,654 splits were discarded: 3-D children shrink less than 2-D ones.
    s = rand_simplex(np.random.default_rng(5), 3)
    diag = RunDiagnostics()
    result = integrate_adaptive(
        field_mod.parse_expr("exp(x1+x2+x3)", 3), s,
        AdaptiveConfig(tolerance=3e-4, rule=vertices_plus_barycenter_rule(3),
                       k_mode="global"), diagnostics=diag)
    assert result.radius <= 3e-4
    assert diag.discarded_splits <= 0.02 * result.cells


def test_per_cell_rounds_do_not_over_split():
    # Per-cell K on a peaked integrand: 2 of these 3,874 splits are
    # discarded. With every leaf in the band, 1,236 were.
    diag = RunDiagnostics()
    result = integrate_adaptive(
        field_mod.parse_expr("exp(-30*((x1-0.2)^2+(x2-0.2)^2))", 2),
        UNIT_TRIANGLE, AdaptiveConfig(tolerance=1e-5), diagnostics=diag)
    assert result.radius <= 1e-5
    assert diag.discarded_splits <= 0.01 * result.cells


def test_child_k_above_parent_k():
    # The 5-point lattice of the root misses the bump, so children find
    # a larger K than their parent and outgrow it.
    bump = field_mod.parse_expr("exp(-1000*(x1-0.37)^2)", 1)
    segment = geometry.Simplex([[0.0], [1.0]])
    diag = RunDiagnostics()
    result = integrate_adaptive(bump, segment, AdaptiveConfig(tolerance=1e-3),
                                diagnostics=diag)
    estimate, radius, cells, hist, stop = heap_integrate(bump, segment, 1e-3)
    assert (stop, result.cells, diag.depth_histogram) == ("tol", cells, hist)
    assert result.cells == 15
    assert abs(result.estimate - estimate) <= result.radius + radius


def _counting_exp(n):
    """exp(x1 + ... + xn), opaque with its analytic Hessian, and the
    number of points its evaluator has been asked for."""
    points = []

    def evaluator(x):
        points.append(len(x))
        return np.exp(x.sum(axis=-1))

    def hessian(u):
        return np.exp(u.sum(axis=-1))[:, None, None] * np.ones((n, n))

    return ScalarField(dimension=n, evaluator=evaluator,
                       hessian=hessian), points


@pytest.mark.parametrize("k_mode", ["override", "per-cell"])
@pytest.mark.parametrize("n, rule", [(2, None), (3, stroud_t3_rule())])
def test_integrand_is_evaluated_once_per_leaf_node(n, rule, k_mode):
    # Radii need only K and geometry: the rounds evaluate nothing, and
    # the final pass evaluates each leaf's rule nodes once.
    f, points = _counting_exp(n)
    s = rand_simplex(np.random.default_rng(n), n)
    override = k_mode == "override"
    cfg = AdaptiveConfig(tolerance=1e-4 if override else 1e-5, rule=rule,
                         k_override=math.exp(n) if override else None)
    result = integrate_adaptive(f, s, cfg)
    nodes = 1 if rule is None else len(rule.weights)
    assert result.cells > 100
    assert points == [result.cells * nodes]


def test_final_estimates_come_in_chunks_of_points_per_round(monkeypatch):
    f, points = _counting_exp(3)
    s = rand_simplex(np.random.default_rng(3), 3)
    cfg = AdaptiveConfig(tolerance=1e-4, rule=stroud_t3_rule(),
                         k_override=math.exp(3))
    expected = integrate_adaptive(f, s, cfg)
    points.clear()
    monkeypatch.setattr(adaptive_mod, "POINTS_PER_ROUND", 402)
    assert integrate_adaptive(f, s, cfg) == expected
    assert points[:-1] == [400] * (len(points) - 1)
    assert 0 < points[-1] <= 400
    assert sum(points) == 4 * expected.cells


def test_budget_exhausted_partial_result_estimates_its_leaves():
    diag = RunDiagnostics()
    with pytest.raises(BudgetExhausted) as err:
        integrate_adaptive(
            EXP_SUM_2D, UNIT_TRIANGLE,
            AdaptiveConfig(tolerance=1e-12, max_cells=50, k_mode="global"),
            diagnostics=diag)
    partial = err.value.result
    assert len(diag.estimates) == partial.cells == 50
    assert partial.estimate == math.fsum(diag.estimates)
    # Each leaf's estimate is the rule on that leaf with its inherited
    # volume, bit for bit.
    rule = cubature.builtin("barycenter", 2)
    root_vol = geometry.volume(UNIT_TRIANGLE)
    for v, est, depth in zip(diag.vertices, diag.estimates, diag.depths):
        assert est == cubature.estimate(rule, EXP_SUM_2D, v[..., None],
                                        np.ldexp(root_vol, -depth))[0]


@pytest.mark.parametrize("tol, fails", [(1.0, True), (1e-3, False)])
def test_only_leaf_nodes_must_be_finite(tol, fails):
    # f is NaN at the root's barycenter alone. A run that stops at the
    # root evaluates it and fails; a run that splits the root never
    # evaluates that node (f is not C^2 there, so no K given holds).
    bary = geometry.points(cubature.builtin("barycenter", 2).nodes,
                           UNIT_TRIANGLE.batch()[0])[0]

    def evaluator(x):
        return np.where(np.all(x == bary, axis=-1), math.nan, 1.0)

    f = ScalarField(dimension=2, evaluator=evaluator)
    cfg = AdaptiveConfig(tolerance=tol, k_override=1.0)
    if fails:
        with pytest.raises(EvaluationFailure):
            integrate_adaptive(f, UNIT_TRIANGLE, cfg)
    else:
        result = integrate_adaptive(f, UNIT_TRIANGLE, cfg)
        assert result.cells > 1 and result.estimate == 0.5


@pytest.mark.parametrize("mode", ["override", "global", "per-cell-rule",
                                  "per-cell"])
def test_only_per_cell_runs_are_centered(monkeypatch, mode):
    # Per-cell K samples each cell with its barycenter as the center, and
    # only a midpoint run integrates q_A, in one kernel call over all
    # final leaves; --K and global K do neither.
    centers, kernel_calls = [], []
    spectrum = field_mod.lattice_spectrum
    integrals = geometry.quadratic_integrals
    monkeypatch.setattr(field_mod, "lattice_spectrum",
                        lambda f, W, r, centered=False:
                        centers.append(centered)
                        or spectrum(f, W, r, centered))
    monkeypatch.setattr(geometry, "quadratic_integrals",
                        lambda A, W, vol: kernel_calls.append(vol.shape)
                        or integrals(A, W, vol))
    cfg = AdaptiveConfig(
        tolerance=1e-4, k_mode="global" if mode == "global" else "per-cell",
        k_override=2 * math.e if mode == "override" else None,
        rule=cubature.builtin("hh-mix-2d", 2) if mode == "per-cell-rule"
        else None)
    result = integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, cfg)
    if mode == "override":
        assert centers == []
    elif mode == "global":
        assert centers == [False]
    else:
        assert len(centers) > 1
        assert all(c is True for c in centers)
    assert kernel_calls == ([(result.cells,)] if mode == "per-cell" else [])


@pytest.mark.parametrize("k_mode", ["per-cell", "global"])
def test_rule_of_another_dimension_fails_before_any_split(monkeypatch,
                                                          k_mode):
    # The rule's dimension is checked before the root cell is built: no
    # report is computed, no K is sampled and no cell is split.
    calls = []
    split, spectrum = geometry.split, field_mod.lattice_spectrum
    verify = cubature._verify
    monkeypatch.setattr(cubature, "_verify", lambda rule: calls.append(
        "verify") or verify(rule))
    monkeypatch.setattr(geometry, "split", lambda W, longest: calls.append(
        "split") or split(W, longest))
    monkeypatch.setattr(field_mod, "lattice_spectrum", lambda *a, **k:
                        calls.append("K") or spectrum(*a, **k))
    cfg = AdaptiveConfig(tolerance=1e-8, rule=stroud_t3_rule(),
                         k_mode=k_mode)
    with pytest.raises(DimensionMismatch,
                       match=r"^rule dimension 3 vs simplex 2$"):
        integrate_adaptive(EXP_SUM_2D, UNIT_TRIANGLE, cfg)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratic_ends_at_the_root_with_radius_zero(n):
    # A quadratic's Hessian is A everywhere, so centered K is 0, and the
    # midpoint estimate plus tr(A M_S) / 2 is its integral up to rounding,
    # which the radius does not cover.
    rng = np.random.default_rng(90 + n)
    s = rand_simplex(rng, n)
    a = rng.uniform(-1.0, 1.0, (n, n))
    phi = QuadraticForm(0.5 * (a + a.T))
    b = rng.uniform(-1.0, 1.0, n)
    f = polynomial_field(n, quadratic_terms(0.4, b, phi))
    result = integrate_adaptive(f, s, AdaptiveConfig(tolerance=1e-12))
    assert (result.cells, result.radius, result.K_used) == (1, 0.0, 0.0)
    assert not result.K_certified
    exact = moments.integrate_poly2((0.4, b, phi), s)
    assert result.estimate == pytest.approx(exact, rel=1e-13, abs=1e-15)
    # Without the quadratic term the estimate is the midpoint rule's.
    midpoint = bounds.midpoint_bound(f, s, 0.0).estimate
    assert abs(midpoint - exact) > 1e-6 * abs(exact)


@pytest.mark.parametrize("expr,L", [("1e300*x1^2", 1e5),
                                    ("3.2e307 + 2e307*x1^2", 1.0)])
def test_centered_correction_that_overflows_is_an_estimate_error(expr, L):
    # The barycenter is the origin and centered K is 0, so the run stops
    # at the root. The first correction, tr(A M_S) / 2, is about 2e320;
    # the second, 4.5e307, is finite, and adding it to the rule's 1.44e308
    # overflows.
    triangle = geometry.Simplex([[-L, -L], [2 * L, -L], [-L, 2 * L]])
    f = field_mod.parse_expr(expr, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation,
                           match="non-finite estimate inf"):
            integrate_adaptive(f, triangle, AdaptiveConfig(tolerance=1.0))


def test_centered_k_that_overflows_is_a_radius_error():
    # |D^2 f| <= 1.5e308 on [-2, 1], but D^2 f(1) - D^2 f(-0.5) is about
    # -2e308: centered K is inf, reported by the error alone.
    f = field_mod.parse_expr("1.5e308*sin(x1)", 1)
    segment = geometry.Simplex([[-2.0], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CerticubeError, match="non-finite cell radius"):
            integrate_adaptive(f, segment, AdaptiveConfig(tolerance=1.0))
