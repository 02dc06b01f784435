import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from certicube import bounds, cubature, geometry, moments, qform
from certicube import adaptive as adaptive_mod
from certicube import field as field_mod
from certicube.adaptive import (AdaptiveConfig, RunDiagnostics,
                                integrate_adaptive, oracle_integrate,
                                refine_steps)
from certicube.errors import (BudgetExhausted, CerticubeError,
                              NegativeGauge, RuleNotApplicable)
from certicube.field import ScalarField
from certicube.qform import QuadraticForm

from util import (heap_integrate, quadratic_field, rand_simplex,
                  vertices_plus_barycenter_rule)

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EXP_SUM_2D = ScalarField(
    dimension=2,
    evaluator=lambda x: np.exp(x[..., 0] + x[..., 1]),
    hessian=lambda u: QuadraticForm(
        np.exp(u[0] + u[1]) * np.ones((2, 2))),
    supports_batch=True)
EXP_1D = ScalarField(
    dimension=1, evaluator=lambda x: np.exp(x[..., 0]),
    hessian=lambda u: QuadraticForm([[np.exp(u[0])]]),
    supports_batch=True)


def test_degree2_polynomial_estimate_is_exact():
    rng = np.random.default_rng(6)
    phi = QuadraticForm([[2.0, 0.5], [0.5, 1.0]])
    f = quadratic_field(0.3, np.array([1.0, -2.0]), phi)
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
    f = quadratic_field(1.0, np.array([2.0, -1.0]), None)
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
    diag = RunDiagnostics(collect_cells=True)
    cfg = AdaptiveConfig(tolerance=1.0, k_mode="global")
    partial = refine_steps(EXP_SUM_2D, UNIT_TRIANGLE, cfg, 1,
                           diagnostics=diag)
    assert len(diag.leaves) == 2
    left, right = geometry.bisect(UNIT_TRIANGLE)
    two_cell = sum(
        geometry.volume(c) * math.exp(np.sum(geometry.barycenter(c)))
        for c in (left, right))
    assert partial.estimate == pytest.approx(two_cell, rel=1e-15)
    assert partial.estimate == pytest.approx(
        sum(cell.estimate for cell in diag.leaves), rel=1e-15)


def test_partition_volumes_at_any_refinement_state():
    cfg = AdaptiveConfig(tolerance=1.0, k_mode="global")
    for steps in (1, 5, 17, 40):
        diag = RunDiagnostics(collect_cells=True)
        refine_steps(EXP_SUM_2D, UNIT_TRIANGLE, cfg, steps,
                     diagnostics=diag)
        total = sum(geometry.volume(cell.simplex) for cell in diag.leaves)
        assert total == pytest.approx(0.5, rel=1e-10)


def test_monotone_radius_with_global_k():
    cfg = AdaptiveConfig(tolerance=1.0, k_mode="global")
    previous = math.inf
    for steps in range(25):
        diag = RunDiagnostics(collect_cells=True)
        refine_steps(EXP_SUM_2D, UNIT_TRIANGLE, cfg, steps,
                     diagnostics=diag)
        radius = sum(cell.radius for cell in diag.leaves)
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
        f = ScalarField(
            dimension=n,
            evaluator=lambda x: np.exp(np.sum(np.asarray(x), axis=-1)),
            supports_batch=True)
        result = integrate_adaptive(
            f, s, AdaptiveConfig(tolerance=1e-4, rule=rule, k_mode="global"))
        oracle, se = oracle_integrate(f, s, 200000, seed=n)
        assert abs(result.estimate - oracle) <= result.radius + 3 * se
        assert result.radius <= 1e-4


def test_oracle_constant_field():
    rng = np.random.default_rng(2)
    s = rand_simplex(rng, 3)
    f = ScalarField(dimension=3, evaluator=lambda x: 1.0)
    mean, se = oracle_integrate(f, s, 1000, seed=5)
    assert mean == pytest.approx(geometry.volume(s), rel=1e-12)
    assert se == 0.0


def test_oracle_linear_moment():
    f = ScalarField(dimension=2, evaluator=lambda x: x[..., 0],
                    supports_batch=True)
    mean, se = oracle_integrate(f, geometry.unit_simplex(2), 10 ** 6, seed=7)
    assert abs(mean - 1 / 6) <= 3 * se


def test_oracle_exp_field():
    mean, se = oracle_integrate(EXP_SUM_2D, UNIT_TRIANGLE, 10 ** 6, seed=11)
    assert abs(mean - 1.0) <= 3 * se


def test_oracle_deterministic_given_seed():
    assert oracle_integrate(EXP_SUM_2D, UNIT_TRIANGLE, 1000, seed=3) == \
        oracle_integrate(EXP_SUM_2D, UNIT_TRIANGLE, 1000, seed=3)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(tolerance=1e-6, k_mode="magic")
    with pytest.raises(ValueError):
        AdaptiveConfig(tolerance=1e-6, rule="trapezoid")


@pytest.mark.parametrize("k", [-1.0, math.nan, math.inf])
def test_config_rejects_bad_k_override(k):
    with pytest.raises(NegativeGauge):
        AdaptiveConfig(tolerance=1e-6, k_override=k)


def test_non_finite_k_or_radius_raises():
    # FD second differences of 1e308 overflow, so per-cell K is inf.
    huge = ScalarField(dimension=2, evaluator=lambda x: 1e308)
    # A finite K times the moment of a huge simplex overflows the radius.
    big = geometry.Simplex(1e80 * UNIT_TRIANGLE.vertices)
    affine = quadratic_field(1.0, np.array([1.0, 1.0]), None)
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


def test_k_override_marks_certified():
    result = integrate_adaptive(
        EXP_SUM_2D, UNIT_TRIANGLE,
        AdaptiveConfig(tolerance=1e-4, k_override=2 * math.e))
    assert result.K_certified
    assert result.K_used == 2 * math.e
    assert abs(result.estimate - 1.0) <= result.radius


def _exp_field(a, analytic):
    """exp(a.x), with its analytic Hessian or through the parser (FD)."""
    n = len(a)
    if not analytic:
        terms = " + ".join(f"{float(c)!r}*x{i + 1}" for i, c in enumerate(a))
        return field_mod.parse_expr(f"exp({terms})", n)
    return ScalarField(
        dimension=n, evaluator=lambda x: np.exp(np.asarray(x) @ a),
        hessian=lambda u: QuadraticForm(np.exp(u @ a) * np.outer(a, a)),
        supports_batch=True)


# (dimension, rule?, K mode, tol / root radius, max_cells, max_depth):
# K mode "override" passes the analytic constant, "global" the lattice
# sup, "fd" and "analytic" are per-cell K from FD or analytic Hessians.
HEAP_CASES = [
    (1, False, "override", 1e-4, 10 ** 6, 60),
    (1, True, "fd", 1e-4, 10 ** 6, 60),
    (2, False, "override", 5e-3, 10 ** 6, 60),
    (2, False, "global", 5e-3, 10 ** 6, 60),
    (2, True, "override", 4e-3, 10 ** 6, 60),
    (2, False, "fd", 4e-3, 10 ** 6, 60),
    (2, True, "analytic", 5e-3, 10 ** 6, 60),
    (3, False, "override", 3e-2, 10 ** 6, 60),
    (3, True, "override", 2e-2, 10 ** 6, 60),
    (3, False, "fd", 0.06, 10 ** 6, 60),
    (2, False, "override", 1e-6, 37, 60),
    (3, True, "fd", 1e-6, 21, 60),
    (3, False, "override", 1e-9, 60, 60),
    (3, True, "override", 1e-9, 45, 60),
    (2, False, "fd", 1e-9, 50, 60),
    (2, False, "fd", 1e-6, 10 ** 6, 4),
    (1, False, "override", 1e-9, 10 ** 6, 5),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", range(len(HEAP_CASES)))
def test_matches_reference_heap(case, seed):
    n, use_rule, k_mode, tol_fraction, max_cells, max_depth = \
        HEAP_CASES[case]
    rng = np.random.default_rng(1000 * seed + case)
    s = rand_simplex(rng, n)
    a = rng.uniform(-1.5, 1.5, size=n)
    f = _exp_field(a, analytic=k_mode != "fd")
    rule = vertices_plus_barycenter_rule(n) if use_rule else None
    k_ref = None
    if k_mode == "override":
        k_ref = 1.01 * float(a @ a) * math.exp(
            float(np.max(s.vertices @ a)))
    elif k_mode == "global":
        k_ref = field_mod.d2f_sup_norm(f, s, resolution=20).value
    root = heap_integrate(f, s, math.inf, rule=rule, K=k_ref)[1]
    tol = tol_fraction * root
    ref = heap_integrate(f, s, tol, rule=rule, K=k_ref,
                         max_cells=max_cells, max_depth=max_depth)
    cfg = AdaptiveConfig(
        tolerance=tol, max_cells=max_cells, max_depth=max_depth,
        rule=rule or "midpoint",
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
    # Near-equal radii may pick different cells on rounding noise, so
    # the two partitions can differ while both enclose the integral.
    assert abs(result.estimate - estimate) <= result.radius + radius


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_fd_k_matches_hessian_at(n):
    rng = np.random.default_rng(70 + n)
    s = rand_simplex(rng, n)
    f = _exp_field(rng.uniform(-1.5, 1.5, size=n), analytic=False)
    diag = RunDiagnostics(collect_cells=True)
    refine_steps(f, s, AdaptiveConfig(tolerance=1.0), 12, diagnostics=diag)
    assert len(diag.leaves) == 13
    for cell in diag.leaves:
        expected = max(
            qform.operator_norm(field_mod.hessian_at(f, p))
            for p in geometry.lattice_points(cell.simplex, 4))
        assert cell.K_local == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_matches_reference_heap_at_every_cell_budget(n):
    # Per-cell K lets a child outgrow other leaves of its round, so the
    # prefix rule decides which leaves are split before the budget.
    rng = np.random.default_rng(40 + n)
    s = rand_simplex(rng, n)
    f = _exp_field(rng.uniform(-2.0, 2.0, size=n), analytic=True)
    for max_cells in range(2, 48):
        ref = heap_integrate(f, s, 1e-12, k_resolution=2,
                             max_cells=max_cells)
        diag = RunDiagnostics()
        with pytest.raises(BudgetExhausted) as err:
            integrate_adaptive(f, s, AdaptiveConfig(
                tolerance=1e-12, max_cells=max_cells, k_resolution=2),
                diagnostics=diag)
        partial = err.value.result
        assert (partial.cells, diag.depth_histogram) == (ref[2], ref[3])
        assert abs(partial.estimate - ref[0]) <= partial.radius + ref[1]


@pytest.mark.parametrize("band,points", [(1.0, 2 ** 20), (0.01, 1)])
def test_partition_does_not_depend_on_round_size(monkeypatch, band, points):
    rng = np.random.default_rng(9)
    s = rand_simplex(rng, 2)
    f = _exp_field(rng.uniform(-2.0, 2.0, size=2), analytic=False)
    cfg = AdaptiveConfig(tolerance=1e-4)
    base = RunDiagnostics()
    expected = integrate_adaptive(f, s, cfg, diagnostics=base)
    monkeypatch.setattr(adaptive_mod, "BAND", band)
    monkeypatch.setattr(adaptive_mod, "POINTS_PER_ROUND", points)
    diag = RunDiagnostics()
    assert integrate_adaptive(f, s, cfg, diagnostics=diag) == expected
    assert diag.depth_histogram == base.depth_histogram
    assert diag.rounds != base.rounds


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leaves_inherit_exact_volumes(n):
    # f = 1, so a leaf's estimate is its volume: |det E| of the root
    # halved once per level. K peaks at the vertex at the origin, which
    # drives one corner past depth 15 while coordinates stay relative.
    rng = np.random.default_rng(80 + n)
    for _ in range(3):
        vertices = rand_simplex(rng, n).vertices
        s = geometry.Simplex(vertices - vertices[0])
        one = ScalarField(
            dimension=n, evaluator=lambda x: np.ones(np.shape(x)[:-1]),
            hessian=lambda u: QuadraticForm(
                np.eye(len(u)) / (1e-12 + float(u @ u))),
            supports_batch=True)
        diag = RunDiagnostics(collect_cells=True)
        result = refine_steps(one, s, AdaptiveConfig(
            tolerance=1.0, k_resolution=1), 150, diagnostics=diag)
        assert max(cell.depth for cell in diag.leaves) >= 15
        for cell in diag.leaves:
            assert cell.estimate == pytest.approx(
                geometry.volume(cell.simplex), rel=1e-12)
        # Halving is exact and the depths tile the root, so the sum is
        # the root volume to the last bit.
        assert math.fsum(cell.estimate for cell in diag.leaves) \
            == result.estimate == geometry.volume(s)


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
        k = field_mod.d2f_sup_norm(EXP_SUM_2D, UNIT_TRIANGLE).value
        cells, hist = heap_integrate(EXP_SUM_2D, UNIT_TRIANGLE, tol,
                                     K=k)[2:4]
    assert (result.cells, diag.depth_histogram) == (cells, hist)
    assert diag.discarded_splits <= 0.05 * result.cells
