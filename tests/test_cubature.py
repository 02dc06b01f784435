import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from certicube import cubature, field, geometry, moments
from certicube.cubature import CubatureRule
from certicube.errors import (DimensionMismatch, InvariantViolation,
                              ParseError, UnknownRule)
from certicube.field import ScalarField
from certicube.qform import QuadraticForm

from util import rand_convex_quadratic, rand_simplex, stroud_t3_rule

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_builtin_vertex_rule():
    rule = cubature.builtin("vertex", 2)
    assert np.allclose(rule.nodes, np.eye(3))
    assert np.allclose(rule.weights, [1 / 3] * 3)


def test_builtin_barycenter_rule():
    rule = cubature.builtin("barycenter", 3)
    assert np.allclose(rule.nodes, [[0.25] * 4])
    assert np.allclose(rule.weights, [1.0])


def test_builtin_mix_rule_weights():
    rule = cubature.builtin("hh-mix-2d", 2)
    assert np.allclose(sorted(rule.weights), [1 / 12, 1 / 12, 1 / 12, 3 / 4])


@pytest.mark.parametrize("n", range(1, 26))
def test_builtin_rules_are_their_fractions_rounded_once(n):
    # Each entry is the float nearest its exact value, as float(Fraction)
    # rounds it; the arrays are float64 and read-only.
    vertex = [[Fraction(int(i == j)) for j in range(n + 1)]
              for i in range(n + 1)]
    expected = {
        "barycenter": ([[Fraction(1, n + 1)] * (n + 1)], [Fraction(1)]),
        "vertex": (vertex, [Fraction(1, n + 1)] * (n + 1)),
    }
    if n == 2:
        expected["hh-mix-2d"] = (vertex + [[Fraction(1, 3)] * 3],
                                 [Fraction(1, 12)] * 3 + [Fraction(3, 4)])
    for name, (nodes, weights) in expected.items():
        rule = cubature.builtin(name, n)
        for got, exact in ((rule.nodes, nodes), (rule.weights, weights)):
            want = np.array(exact, dtype=object).astype(float)
            assert got.dtype == np.float64 and not got.flags.writeable
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def test_builtin_errors():
    with pytest.raises(UnknownRule):
        cubature.builtin("gauss", 2)
    with pytest.raises(DimensionMismatch):
        cubature.builtin("hh-mix-2d", 3)


def test_verify_vertex_rule_degree_1():
    report = cubature.verify(cubature.builtin("vertex", 2))
    assert report.positivity and report.barycenter_ok
    assert report.exactness_degree == 1
    # fails x1^2: T = 1/3 vs mean moment 1/6
    assert report.residuals[(2, 0)] == pytest.approx(1 / 3 - 1 / 6)


def test_verify_mix_rule_degree_2():
    report = cubature.verify(cubature.builtin("hh-mix-2d", 2))
    assert report.exactness_degree == 2
    assert report.thm2_applicable and report.hh_applicable
    assert max(report.residuals.values()) <= 1e-15


def test_verify_negative_weight_rule():
    rule = CubatureRule(
        dimension=1,
        nodes=np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]),
        weights=np.array([0.55, -0.1, 0.55]))
    report = cubature.verify(rule)
    assert not report.positivity
    assert not report.hh_applicable
    assert not report.thm2_applicable


def test_rule_invariant_checks():
    with pytest.raises(InvariantViolation):
        CubatureRule(dimension=1, nodes=np.array([[0.7, 0.5]]),
                     weights=np.array([1.0]))
    with pytest.raises(InvariantViolation):
        CubatureRule(dimension=1, nodes=np.array([[0.5, 0.5]]),
                     weights=np.array([0.9]))
    with pytest.raises(InvariantViolation):
        CubatureRule(dimension=1, nodes=np.array([[1.2, -0.2]]),
                     weights=np.array([1.0]))
    with pytest.raises(InvariantViolation, match="one weight per node"):
        CubatureRule(dimension=1, nodes=np.array([[0.5, 0.5]]),
                     weights=np.array([0.5, 0.5]))
    with pytest.raises(InvariantViolation, match="non-finite"):
        CubatureRule(dimension=1, nodes=np.array([[np.nan, 0.5]]),
                     weights=np.array([1.0]))


@pytest.mark.parametrize("nodes,message", [
    ([[0.5, 0.5], [0.7, 0.5], [1.2, -0.2]],
     "barycentric sum 1.2 != 1 at node 1"),
    ([[0.5, 0.5], [1.2, -0.3], [0.7, 0.5]],
     "negative barycentric coordinate at node 1"),
])
def test_rule_names_its_first_bad_node(nodes, message):
    # Node order first; at one node the negative coordinate comes before
    # the sum.
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        CubatureRule(dimension=1, nodes=nodes, weights=[0.5, 0.25, 0.25])


def one_field(n):
    return ScalarField(dimension=n, evaluator=lambda x: np.ones(len(x)))


def test_apply_constant_field():
    rng = np.random.default_rng(1)
    s = rand_simplex(rng, 2)
    rule = cubature.builtin("barycenter", 2)
    assert cubature.apply_rule(rule, one_field(2), s) == pytest.approx(
        geometry.volume(s))


def test_apply_mix_rule_exact_on_square():
    rule = cubature.builtin("hh-mix-2d", 2)
    f = ScalarField(dimension=2, evaluator=lambda x: x[..., 0] ** 2)
    assert cubature.apply_rule(rule, f, UNIT_TRIANGLE) == pytest.approx(
        1 / 12, abs=1e-15)


def test_apply_sandwich_for_convex_field():
    f = ScalarField(dimension=2,
                    evaluator=lambda x: np.exp(x[..., 0] + x[..., 1]))
    vertex = cubature.apply_rule(cubature.builtin("vertex", 2), f,
                                 UNIT_TRIANGLE)
    bary = cubature.apply_rule(cubature.builtin("barycenter", 2), f,
                               UNIT_TRIANGLE)
    true_integral = 1.0  # iterated integral of e^{x+y} over the triangle
    assert bary <= true_integral <= vertex


def test_apply_dimension_mismatch():
    rule = cubature.builtin("vertex", 3)
    with pytest.raises(DimensionMismatch):
        cubature.apply_rule(rule, one_field(2), UNIT_TRIANGLE)


def test_hh_sandwich_property_all_builtin_rules():
    rng = np.random.default_rng(55)
    for n in (1, 2, 3):
        rules = [cubature.builtin("barycenter", n),
                 cubature.builtin("vertex", n)]
        if n == 2:
            rules.append(cubature.builtin("hh-mix-2d", 2))
        for _ in range(10):
            s = rand_simplex(rng, n)
            vol = geometry.volume(s)
            f, _ = rand_convex_quadratic(rng, n)
            fexp = ScalarField(
                dimension=n,
                evaluator=lambda x: np.exp(np.sum(x, axis=-1)))
            for g in (f, fexp):
                lower = vol * field.evaluate(g, s.vertices.mean(axis=0))
                upper = vol * np.mean(
                    [field.evaluate(g, p) for p in s.vertices])
                for rule in rules:
                    assert cubature.verify(rule).hh_applicable
                    value = cubature.apply_rule(rule, g, s)
                    assert lower - 1e-10 <= value <= upper + 1e-10


def test_mix_rule_exactness_against_integrator():
    rule = cubature.builtin("hh-mix-2d", 2)
    monomials = [
        (1.0, None, None),
        (0.0, np.array([1.0, 0.0]), None),
        (0.0, np.array([0.0, 1.0]), None),
        (0.0, None, QuadraticForm([[1.0, 0.0], [0.0, 0.0]])),
        (0.0, None, QuadraticForm([[0.0, 0.5], [0.5, 0.0]])),
        (0.0, None, QuadraticForm([[0.0, 0.0], [0.0, 1.0]])),
    ]
    for c, b, phi in monomials:
        def evaluator(x, b=b, phi=phi, c=c):
            value = np.full(len(x), c)
            if b is not None:
                value = value + x @ b
            if phi is not None:
                value = value + np.sum(x @ phi.coeffs * x, axis=-1)
            return value
        f = ScalarField(dimension=2, evaluator=evaluator)
        applied = cubature.apply_rule(f=f, rule=rule, s=UNIT_TRIANGLE)
        exact = moments.integrate_poly2((c, b, phi), UNIT_TRIANGLE)
        assert abs(applied - exact) <= 1e-14


def test_apply_affine_equivariance():
    rng = np.random.default_rng(21)
    rule = cubature.builtin("hh-mix-2d", 2)
    for _ in range(10):
        s = rand_simplex(rng, 2)
        # x = v_0 + E u maps the unit triangle onto s.
        origin, edges = s.vertices[0], s.vertices[1:] - s.vertices[0]
        f, _ = rand_convex_quadratic(rng, 2)
        pulled = ScalarField(
            dimension=2,
            evaluator=lambda u: field.evaluate_batch(f, origin + u @ edges))
        direct = cubature.apply_rule(rule, f, s)
        via_reference = s.abs_det * cubature.apply_rule(
            rule, pulled, geometry.unit_simplex(2))
        assert direct == pytest.approx(via_reference, rel=1e-12)


def test_thm2_implies_barycenter_on_random_rules():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        if trial % 50 == 0:
            rule = cubature.builtin("vertex", n)
        elif trial % 50 == 1 and n == 2:
            rule = cubature.builtin("hh-mix-2d", 2)
        else:
            m = int(rng.integers(1, 6))
            nodes = rng.dirichlet(np.ones(n + 1), size=m)
            weights = rng.dirichlet(np.ones(m))
            rule = CubatureRule(dimension=n, nodes=nodes, weights=weights)
        report = cubature.verify(rule)
        if report.thm2_applicable:
            assert report.barycenter_ok


def exact_residuals(rule):
    """The verify() residuals and barycenter residuals in Fractions of the
    rule's float nodes and weights: |T(x^alpha) - n! alpha! / (n+|alpha|)!|
    per Cartesian multi-index (x_i = lambda_i on the unit simplex), and
    |T(lambda_i) - 1/(n+1)| for every barycentric coordinate."""
    n = rule.dimension
    weights = [Fraction(w) for w in rule.weights.tolist()]
    nodes = [[Fraction(c) for c in node] for node in rule.nodes.tolist()]

    def mean(*axes):
        return sum(w * math.prod(node[i] for i in axes)
                   for w, node in zip(weights, nodes))

    residuals = {}
    for degree in range(3):
        for axes in itertools.combinations_with_replacement(range(n), degree):
            alpha = tuple(map(axes.count, range(n)))
            target = Fraction(
                math.factorial(n) * math.prod(map(math.factorial, alpha)),
                math.factorial(n + degree))
            residuals[alpha] = abs(mean(*(i + 1 for i in axes)) - target)
    barycenter = [abs(mean(i) - Fraction(1, n + 1)) for i in range(n + 1)]
    return residuals, barycenter


def oracle_rules():
    for n in range(1, 26):
        yield cubature.builtin("barycenter", n)
        yield cubature.builtin("vertex", n)
    yield cubature.builtin("hh-mix-2d", 2)
    yield stroud_t3_rule()
    rng = np.random.default_rng(29)
    for trial in range(200):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        weights = rng.dirichlet(np.ones(m))
        if trial % 2:  # signed weights summing to 1, each in (-0.5, 1.5)
            weights = 1.5 * weights - 0.5 * rng.dirichlet(np.ones(m))
        yield CubatureRule(dimension=n,
                           nodes=rng.dirichlet(np.ones(n + 1), size=m),
                           weights=weights)


def test_verify_matches_an_exact_oracle():
    # The closed-form report against exact sums over the same floats.
    checked = 0
    for rule in oracle_rules():
        report = cubature.verify(rule)
        residuals, barycenter = exact_residuals(rule)
        assert report.residuals.keys() == residuals.keys()
        for alpha, exact in residuals.items():
            assert abs(Fraction(report.residuals[alpha]) - exact) <= 1e-15
        tol = Fraction(cubature.TOL)
        if any(abs(r - tol) <= 1e-15
               for r in [*residuals.values(), *barycenter]):
            continue
        positivity = bool(np.all(rule.weights >= 0))
        barycenter_ok = max(barycenter) <= tol
        within = {d: all(r <= tol for alpha, r in residuals.items()
                         if sum(alpha) <= d) for d in (1, 2)}
        exactness = 2 if within[2] else 1 if within[1] else 0
        assert (report.positivity, report.barycenter_ok,
                report.exactness_degree, report.hh_applicable,
                report.thm2_applicable) == (
            positivity, barycenter_ok, exactness,
            positivity and barycenter_ok, positivity and exactness == 2)
        checked += 1
    assert checked >= 250


def test_rule_file_round_trip(tmp_path):
    rule = cubature.builtin("hh-mix-2d", 2)
    path = tmp_path / "mix.rule"
    cubature.save_rule(rule, path)
    loaded = cubature.load_rule(path)
    assert loaded.nodes.tobytes() == rule.nodes.tobytes()
    assert loaded.weights.tobytes() == rule.weights.tobytes()
    assert cubature.verify(loaded) == cubature.verify(rule)


def _normalized(rows):
    """Rows scaled to sum 1; + 0.0 turns a -0.0, which loads back as
    0.0, into 0.0."""
    rows = np.array(rows)
    return rows / rows.sum(axis=-1, keepdims=True) + 0.0


@st.composite
def float_rules(draw):
    """A valid rule of arbitrary floats: nodes and weights normalized
    from non-negative draws, subnormals included."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.floats(0.0, 1.0)
    positive_row = lambda size: st.lists(entry, min_size=size,
                                         max_size=size).filter(any)
    nodes = draw(st.lists(positive_row(n + 1), min_size=m, max_size=m))
    return CubatureRule(n, _normalized(nodes),
                        _normalized(draw(positive_row(m))), "random")


@settings(max_examples=200, deadline=None)
@given(rule=float_rules())
def test_saved_float_rules_load_back_bit_identical(tmp_path_factory, rule):
    path = tmp_path_factory.mktemp("rules") / "random.rule"
    cubature.save_rule(rule, path)
    loaded = cubature.load_rule(path)
    assert loaded.nodes.tobytes() == rule.nodes.tobytes()
    assert loaded.weights.tobytes() == rule.weights.tobytes()
    assert cubature.verify(loaded) == cubature.verify(rule)


def test_rule_file_fraction_parsing(tmp_path):
    path = tmp_path / "frac.rule"
    path.write_text(
        "# comment line\n"
        "dim 1\n"
        "nodes 2\n"
        "1/2 1/2\n"
        "0 1\n"
        "2/3\n"
        "1/3\n")
    rule = cubature.load_rule(path)
    assert rule.weights[0] == 2 / 3
    assert np.allclose(rule.weights, [2 / 3, 1 / 3])


def test_rule_file_fraction_too_large_for_a_float(tmp_path):
    path = tmp_path / "huge.rule"
    path.write_text(f"dim 1\nnodes 1\n{10 ** 400}/1 0\n1\n")
    with pytest.raises(ParseError, match="too large for a float") as err:
        cubature.load_rule(path)
    assert err.value.line == 3


def test_rule_file_bad_weight_sum(tmp_path):
    path = tmp_path / "bad.rule"
    path.write_text("dim 1\nnodes 1\n0.5 0.5\n0.9\n")
    with pytest.raises(InvariantViolation, match="sum"):
        cubature.load_rule(path)


def test_rule_file_negative_coordinate(tmp_path):
    path = tmp_path / "neg.rule"
    path.write_text("dim 2\nnodes 1\n0.5 0.6 -0.1\n1\n")
    with pytest.raises(InvariantViolation, match="node 0"):
        cubature.load_rule(path)


def test_rule_nodes_need_n_plus_1_coordinates():
    # A rule file cannot reach this shape check: its headers and node
    # lines are parsed first.
    with pytest.raises(InvariantViolation, match=r"\(m, 3\) barycentric"):
        CubatureRule(dimension=2, nodes=np.ones((1, 2)), weights=[1.0])


def test_rule_file_parse_error_has_line(tmp_path):
    path = tmp_path / "broken.rule"
    path.write_text("dim 2\nnodes 1\n0.5 oops 0.2\n1\n")
    with pytest.raises(ParseError) as err:
        cubature.load_rule(path)
    assert err.value.line == 3
