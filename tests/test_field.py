import warnings

import numpy as np
import pytest

from certicube import bounds, cubature, field, geometry, qform
from certicube.adaptive import AdaptiveConfig, integrate_adaptive
from certicube.errors import (ArityError, DimensionMismatch,
                              EvaluationFailure, InvariantViolation,
                              NegativeGauge, ParseError)
from certicube.expr import Tape, parse
from certicube.field import ScalarField

from util import rand_polynomial_field, rand_simplex

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def norm_sq_field(n):
    return ScalarField(
        dimension=n,
        evaluator=lambda x: np.sum(x ** 2, axis=-1),
        hessian=lambda u: np.broadcast_to(2.0 * np.eye(n), u.shape + (n,)))


NO_HESSIAN = ScalarField(dimension=2,
                         evaluator=lambda x: np.exp(x[..., 0] + x[..., 1]))


def test_hessian_norm_squared():
    f = norm_sq_field(2)
    h = field.hessian_at(f, [0.3, -0.4])
    assert np.allclose(h.coeffs, 2.0 * np.eye(2))


def test_hessian_is_symmetric():
    f = field.parse_expr("x1^3*x2", 2)
    h = field.hessian_at(f, [0.4, 0.9])
    assert h.coeffs[0, 1] == h.coeffs[1, 0]


def test_hessian_non_finite_raises():
    f = field.parse_expr("log(x1)", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the error
        with pytest.raises(InvariantViolation, match="non-finite Hessian"):
            field.hessian_at(f, [0.0])


@pytest.mark.parametrize("hessian", [
    lambda u: 1.0 / u[..., None],  # inf at 0
    lambda u: np.log(u - 1.0)[..., None],  # nan below 1
], ids=["inf", "nan"])
def test_analytic_hessian_non_finite_raises(hessian):
    f = ScalarField(dimension=1, evaluator=lambda x: x[..., 0],
                    hessian=hessian)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the error
        with pytest.raises(InvariantViolation, match="non-finite Hessian"):
            field.hessian_at(f, [0.0])


def test_sup_norm_constant_hessian():
    f = norm_sq_field(2)
    estimate = field.d2f_sup_norm(f, UNIT_TRIANGLE, resolution=5)
    assert type(estimate) is float
    assert estimate == pytest.approx(2.0)


def test_sup_norm_exp_on_triangle():
    f = field.parse_expr("exp(x1+x2)", 2)
    estimate = field.d2f_sup_norm(f, UNIT_TRIANGLE, resolution=20)
    # Hessian norm 2 e^{x1+x2}, maximized on the hypotenuse.
    assert estimate == pytest.approx(2 * np.e, abs=1e-6)
    # dense-sampling oracle never exceeds the lattice value by much
    rng = np.random.default_rng(2)
    gaps = rng.standard_exponential((2000, 3))
    bary = gaps / gaps.sum(axis=1, keepdims=True)
    pts = bary @ UNIT_TRIANGLE.vertices
    sampled = np.max(2 * np.exp(pts[:, 0] + pts[:, 1]))
    assert sampled <= estimate + 1e-6


def test_sup_norm_affine_field_is_zero():
    f = ScalarField(dimension=2,
                    evaluator=lambda x: 3.0 * x[..., 0] - x[..., 1] + 1.0,
                    hessian=lambda u: np.zeros(u.shape + (2,)))
    assert field.d2f_sup_norm(f, UNIT_TRIANGLE, resolution=3) == 0.0


def test_sup_norm_needs_a_lattice_of_at_least_one_step():
    with pytest.raises(ValueError) as err:
        field.d2f_sup_norm(norm_sq_field(2), UNIT_TRIANGLE, resolution=0)
    assert str(err.value) == "resolution must be >= 1, got 0"


def lattice_fields(n):
    """Two parsed fields and an opaque polynomial with its analytic
    Hessian on R^n."""
    x = [f"x{i + 1}" for i in range(n)]
    return [field.parse_expr(f"exp({'*'.join(x)}) + sin({x[0]})", n),
            field.parse_expr(f"{x[-1]}^2 - 3*{x[0]}*{x[-1]}", n),
            rand_polynomial_field(np.random.default_rng(n), n)]


def lattice_extremes(f, s, resolution):
    """Reference (lowest, highest) sampled eigenvalue of one simplex."""
    points = geometry.lattice_points(s, resolution)
    lo, hi = qform.extreme_eigenvalues(field.hessians(f, points))
    return lo.min(), hi.max()


@pytest.mark.parametrize("points_per_call", [1, 9 * 7, 9 * 40])
def test_lattice_k_does_not_depend_on_chunking(monkeypatch, points_per_call):
    # 5 simplices of 5, 15 or 35 lattice points each, one point per call
    # up to whole lattices of several simplices a call (n^2 Hessian
    # entries a point).
    for n in (1, 2, 3):
        rng = np.random.default_rng(3 + n)
        simplices = [rand_simplex(rng, n) for _ in range(5)]
        V = np.concatenate([s.batch()[0] for s in simplices], axis=-1)
        for f in lattice_fields(n):
            lo, hi, hess = field.lattice_spectrum(f, V, 4)
            assert hess is None
            expected = [lattice_extremes(f, s, 4) for s in simplices]
            assert list(zip(lo, hi)) == expected
            sizes, built = [], []
            batch, build = field.hessians, geometry.points
            with monkeypatch.context() as patch:
                patch.setattr(field, "POINTS_PER_CALL", points_per_call)
                patch.setattr(field, "hessians",
                              lambda f, p: sizes.append(len(p)) or batch(f, p))
                patch.setattr(geometry, "points", lambda w, W: built.append(
                    len(w) * W.shape[-1]) or build(w, W))
                chunked = field.lattice_spectrum(f, V, 4)
            assert np.array_equal(chunked[:2], (lo, hi))
            assert chunked[2] is None
            lattice = len(geometry.lattice_weights(n, 4))
            assert sum(sizes) == sum(built) == 5 * lattice
            # Neither a call nor the points built for it exceed the
            # chunk, even where one cell's lattice is larger.
            chunk = max(1, points_per_call // (n * n))
            assert max(sizes) <= chunk and max(built) <= chunk


@pytest.mark.parametrize("points_per_call", [1, 9 * 7, 9 * 40, 2 ** 20])
def test_centered_spectrum_is_that_of_the_hessian_less_the_center(
        monkeypatch, points_per_call):
    # The barycenter joins each cell's lattice in the same hessians calls;
    # A is the Hessian there, and the spectrum is that of D^2 f - A at the
    # barycenter and the lattice, whatever the chunking: up to the rounding
    # of the points, which the matrix product may round differently for
    # another number of cells.
    for n in (1, 2, 3):
        rng = np.random.default_rng(30 + n)
        simplices = [rand_simplex(rng, n) for _ in range(5)]
        V = np.concatenate([s.batch()[0] for s in simplices], axis=-1)
        center = cubature.builtin("barycenter", n).nodes[0]
        for f in lattice_fields(n):
            sizes = []
            batch = field.hessians
            with monkeypatch.context() as patch:
                patch.setattr(field, "POINTS_PER_CALL", points_per_call)
                patch.setattr(field, "hessians",
                              lambda f, p: sizes.append(len(p)) or batch(f, p))
                lo, hi, hess = field.lattice_spectrum(f, V, 4,
                                                      centered=True)
            lattice = len(geometry.lattice_weights(n, 4))
            assert sum(sizes) == 5 * (lattice + 1)
            assert hess.shape == (n, n, 5)
            weights = np.vstack((center, geometry.lattice_weights(n, 4)))
            every = field.hessians(f, geometry.points(weights, V))
            for k in range(5):
                H = every.reshape(len(weights), 5, n, n)[:, k]
                assert hess[..., k] == pytest.approx(H[0], rel=1e-12)
                low, high = qform.extreme_eigenvalues(H - H[0])
                assert (lo[k], hi[k]) == pytest.approx(
                    (low.min(), high.max()), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_k_is_the_largest_operator_norm_on_the_lattice(n):
    # Bit for bit: the loop and the reference heap take K by one kernel,
    # the larger magnitude of the lowest and highest sampled eigenvalue.
    rng = np.random.default_rng(12 + n)
    for f in lattice_fields(n):
        for _ in range(10):
            s = rand_simplex(rng, n)
            lo, hi, hess = field.lattice_spectrum(f, s.batch()[0], 4)
            assert (lo[0], hi[0], hess) == (*lattice_extremes(f, s, 4), None)
            expected = max(qform.operator_norm(field.hessian_at(f, p))
                           for p in geometry.lattice_points(s, 4))
            assert field.d2f_sup_norm(f, s, 4) == expected


def test_convexify_exact_cancellation():
    f = ScalarField(dimension=2,
                    evaluator=lambda x: -np.sum(x ** 2, axis=-1),
                    hessian=lambda u: np.broadcast_to(-2.0 * np.eye(2),
                                                      u.shape + (2,)))
    plus, minus = field.convexify(f, 2.0)
    x = np.array([0.3, 0.8])
    assert field.evaluate(plus, x) == pytest.approx(0.0, abs=1e-14)
    assert field.evaluate(minus, x) == pytest.approx(2 * float(x @ x))


def test_convexify_affine_with_zero_gauge():
    f = ScalarField(dimension=2,
                    evaluator=lambda x: x[..., 0] - 2.0 * x[..., 1],
                    hessian=lambda u: np.zeros(u.shape + (2,)))
    plus, minus = field.convexify(f, 0.0)
    x = np.array([0.5, 0.25])
    assert field.evaluate(plus, x) == pytest.approx(x[0] - 2 * x[1])
    assert field.evaluate(minus, x) == pytest.approx(-(x[0] - 2 * x[1]))


def test_convexify_sin_on_segment():
    f = field.parse_expr("sin(x1)", 1)
    seg = geometry.Simplex([[0.0], [1.0]])
    plus, minus = field.convexify(f, 1.0)
    for g in (plus, minus):
        for point in geometry.lattice_points(seg, 50):
            h = field.hessian_at(g, point)
            assert h.coeffs[0, 0] >= -1e-8


def test_nested_evaluation_restores_numpy_error_state():
    # A convexified field's evaluator calls evaluate_batch inside
    # evaluate_batch; a failure raised from inside both must leave
    # numpy's error handling as it was.
    f = field.parse_expr("exp(1e4*x1)", 1)
    plus, _ = field.convexify(f, 1.0)
    before = np.geterr()
    assert field.evaluate(plus, [0.0]) == 1.0
    with pytest.raises(EvaluationFailure):
        field.evaluate_batch(plus, np.array([[0.0], [1.0]]))
    assert np.geterr() == before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.exp(np.array([1e4]))


def test_convexify_negative_gauge():
    for gauge in (-1.0, np.nan, np.inf):
        with pytest.raises(NegativeGauge):
            field.convexify(norm_sq_field(2), gauge)


def test_convexify_lattice_psd_random_polynomials():
    rng = np.random.default_rng(77)
    for _ in range(20):
        f = rand_polynomial_field(rng, 2)
        gauge = field.d2f_sup_norm(f, UNIT_TRIANGLE, resolution=20)
        plus, minus = field.convexify(f, gauge)
        for g in (plus, minus):
            for point in geometry.lattice_points(UNIT_TRIANGLE, 20):
                h = field.hessian_at(g, point)
                assert qform.min_eigenvalue(h) >= -1e-8
                assert qform.operator_norm(h) <= 2 * gauge + 1e-8


def test_parse_expr_polynomial():
    f = field.parse_expr("x1^2 + x2^2", 2)
    assert field.evaluate(f, [1.0, 2.0]) == pytest.approx(5.0)


def test_parse_expr_exp():
    f = field.parse_expr("exp(x1+x2)", 2)
    assert field.evaluate(f, [0.0, 0.0]) == pytest.approx(1.0)


def test_parse_expr_unbalanced_paren():
    with pytest.raises(ParseError) as err:
        field.parse_expr("x1*(1 - x2", 2)
    assert ")" in err.value.expected


def test_parse_expr_unknown_variable():
    with pytest.raises(ArityError):
        field.parse_expr("x3 + 1", 2)


def test_parse_precedence_and_power():
    f = field.parse_expr("2*x1^3^2 - 6/3", 1)
    # ^ is right-associative: x^(3^2) = x^9
    assert field.evaluate(f, [2.0]) == pytest.approx(2 * 2 ** 9 - 2)


def test_parse_print_parse_stable():
    for text in ("x1^2 + x2^2", "exp(x1+x2)", "-x1*(x2 - 3)/2",
                 "sin(x1)*cos(x2) - sqrt(x1 + 4)", "2*x1^3^2"):
        tree = parse(text, 2)
        assert parse(str(tree), 2) == tree


def test_tape_prints_its_source():
    for text in ("x1^2 + x2^2", "exp(x1+x2)", "-x1*(x2 - 3)/2",
                 "sin(x1)*cos(x2) - sqrt(x1 + 4)", "2*x1^3^2"):
        assert str(parse(text, 2)) == text


def test_wrongly_shaped_values_raise():
    # A pointwise evaluator fed a batch: x[0] is the first point, so the
    # sandwich would see one value for all three of its points.
    pointwise = ScalarField(dimension=1, evaluator=lambda x: np.exp(x[0]))
    with pytest.raises(DimensionMismatch):
        bounds.hh_sandwich(pointwise, geometry.Simplex([[0.0], [1.0]]))
    one_value = ScalarField(dimension=2, evaluator=lambda x: np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        field.evaluate_batch(one_value, np.zeros((5, 2)))
    # A Hessian per point must be (n, n), not a gradient-shaped (n,).
    flat = ScalarField(dimension=2, evaluator=lambda x: x[:, 0],
                       hessian=lambda u: np.zeros_like(u))
    with pytest.raises(DimensionMismatch, match="Hessians of shape"):
        field.hessians(flat, np.zeros((5, 2)))


def test_parse_expr_batch_evaluation():
    f = field.parse_expr("x1*x2 + 1", 2)
    pts = np.array([[1.0, 2.0], [0.5, 4.0]])
    assert np.allclose(field.evaluate_batch(f, pts), [3.0, 3.0])


def test_parsed_hessians_evaluate_nothing(monkeypatch):
    # Hessians come from the field's own hessian alone: a parsed field's
    # jets, an analytic map or a convexified field's K*I +- H_f. A field
    # without one is refused, not differenced.
    sizes = []
    batch = field.evaluate_batch
    monkeypatch.setattr(field, "evaluate_batch",
                        lambda f, p: sizes.append(len(p)) or batch(f, p))
    points = geometry.lattice_points(UNIT_TRIANGLE, 4)
    parsed = field.parse_expr("exp(x1*x2)", 2)
    for f in (parsed, norm_sq_field(2), *field.convexify(parsed, 1.0)):
        field.hessians(f, points)
    assert sizes == []
    with pytest.raises(EvaluationFailure, match="no hessian"):
        field.hessians(NO_HESSIAN, points)
    assert sizes == []


def test_convexified_parsed_field_makes_one_jet_pass(monkeypatch):
    # The convexified Hessian is batched, so the whole lattice is one
    # jet pass of the parsed field's tape.
    sizes = []
    jets = Tape.hessians
    monkeypatch.setattr(
        Tape, "hessians", lambda tape, p: sizes.append(len(p)) or jets(tape, p))
    f = field.parse_expr("exp(x1+x2)*sin(x1) + x2^3", 2)
    plus, _ = field.convexify(f, 1.0)
    field.d2f_sup_norm(plus, UNIT_TRIANGLE, resolution=20)
    assert sizes == [231]


def test_field_without_hessian_needs_k():
    # Every sampled-K path asks field.hessians, which names the ways out.
    f = NO_HESSIAN
    plus, _ = field.convexify(f, 1.0)
    attempts = [
        lambda: integrate_adaptive(f, UNIT_TRIANGLE,
                                   AdaptiveConfig(tolerance=1e-3)),
        lambda: integrate_adaptive(f, UNIT_TRIANGLE, AdaptiveConfig(
            tolerance=1e-3, k_mode="global")),
        lambda: field.d2f_sup_norm(f, UNIT_TRIANGLE),
        lambda: bounds.hh_sandwich(f, UNIT_TRIANGLE, screen=True),
        lambda: field.hessian_at(f, [0.2, 0.3]),
        lambda: field.hessian_at(plus, [0.2, 0.3]),
    ]
    for attempt in attempts:
        with pytest.raises(EvaluationFailure,
                           match="no hessian.*hessian=.*k_override"):
            attempt()


def test_field_without_hessian_integrates_with_k():
    f = NO_HESSIAN
    gauge = 2 * np.e  # sup of 2 e^(x1+x2) on the unit triangle
    result = integrate_adaptive(f, UNIT_TRIANGLE, AdaptiveConfig(
        tolerance=1e-3, k_override=gauge))
    assert result.K_certified and abs(result.estimate - 1.0) <= result.radius
    one_shot = bounds.rule_bound(cubature.builtin("hh-mix-2d", 2), f,
                                 UNIT_TRIANGLE, gauge)
    assert abs(one_shot.estimate - 1.0) <= one_shot.radius
