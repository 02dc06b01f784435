import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from certicube import geometry, moments
from certicube.errors import (InvariantViolation, UnsupportedDegree,
                              UnsupportedDimension)
from certicube.qform import QuadraticForm

from util import mc_integral, rand_simplex

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_sum_moment_is_the_central_matrix_trace(n):
    # sum_{i<j} |v_i - v_j|^2 / ((n+1)^2 (n+2) n!) = tr(E^T E M), exactly,
    # with E's columns the edges v_i - v_0 and M the unit central matrix.
    rng = np.random.default_rng(40 + n)
    v = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
          for _ in range(n)] for _ in range(n + 1)]
    edge_sum = sum(sum((a - b) ** 2 for a, b in zip(v[i], v[j]))
                   for i in range(n + 1) for j in range(i + 1, n + 1))
    edges = [[p - o for p, o in zip(row, v[0])] for row in v[1:]]
    gram = [[sum(a * b for a, b in zip(ei, ej)) for ej in edges]
            for ei in edges]
    central = moments.central_matrix_exact(n)
    trace = sum(gram[i][j] * central[j][i]
                for i in range(n) for j in range(n))
    scale = (n + 1) ** 2 * (n + 2)
    assert edge_sum / (scale * math.factorial(n)) == trace
    e2 = geometry.edge_lengths_sq(np.array(v, dtype=float))
    assert geometry.cell_stats(e2, 1.0) == pytest.approx(
        float(edge_sum / scale), rel=1e-14)


def test_monomial_moment_values():
    assert moments.monomial_moment(2, (1, 0)) == pytest.approx(1 / 6)
    assert moments.monomial_moment(2, (2, 0)) == pytest.approx(1 / 12)
    assert moments.monomial_moment(2, (1, 1)) == pytest.approx(1 / 24)
    assert moments.monomial_moment(3, (0, 0, 0)) == pytest.approx(1 / 6)


def test_monomial_moment_mixed_against_monte_carlo():
    rng = np.random.default_rng(17)
    value, se = mc_integral(rng, geometry.unit_simplex(2),
                            lambda p: p[:, 0] * p[:, 1], 10 ** 6)
    assert abs(value - 1 / 24) <= 3 * se


def test_monomial_moment_rejects_degree_3():
    with pytest.raises(UnsupportedDegree):
        moments.monomial_moment(2, (2, 1))


@pytest.mark.parametrize("alpha", [(1,), (1, 0, 0), (-1, 1)])
def test_monomial_moment_rejects_invalid_multi_index(alpha):
    with pytest.raises(UnsupportedDegree, match="invalid for n=2"):
        moments.monomial_moment_exact(2, alpha)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        moments.monomial_moment(19, (0,) * 19)


def test_central_second_moment_unit_values():
    assert moments.central_second_moment_unit(1) == pytest.approx(1 / 12)
    assert moments.central_second_moment_unit(2) == pytest.approx(1 / 18)
    assert moments.central_second_moment_unit(3) == pytest.approx(3 / 160)


def test_central_matrix_trace_matches_scalar():
    for n in range(1, 9):
        m = np.array(moments.central_matrix_exact(n), dtype=float)
        scalar = moments.central_second_moment_unit(n)
        assert np.trace(m) == pytest.approx(scalar, rel=1e-14)


def test_central_matrix_offdiagonal_2d():
    # expand int (u1 - 1/3)(u2 - 1/3) over the unit triangle
    m = moments.central_matrix_exact(2)
    assert m[0][1] == Fraction(-1, 72)


def test_central_second_moment_on_simplices():
    assert moments.central_second_moment(UNIT_TRIANGLE) == pytest.approx(
        1 / 18)
    seg = geometry.Simplex([[0.0], [1.0]])
    assert moments.central_second_moment(seg) == pytest.approx(1 / 12)
    scaled = geometry.Simplex([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert moments.central_second_moment(scaled) == pytest.approx(8 / 9)


def test_central_second_moment_overflow_is_an_error():
    huge = geometry.Simplex([[0.0, 0.0], [1e150, 0.0], [0.0, 1e150]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="second moment"):
            moments.central_second_moment(huge)


def test_central_second_moment_against_monte_carlo():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(5):
            s = rand_simplex(rng, n)
            pbar = s.vertices.mean(axis=0)
            value, se = mc_integral(
                rng, s, lambda p: np.sum((p - pbar) ** 2, axis=1), 10 ** 6)
            assert abs(moments.central_second_moment(s) - value) <= 3 * se


def test_integrate_poly2_examples():
    one = (1.0, None, None)
    assert moments.integrate_poly2(one, UNIT_TRIANGLE) == pytest.approx(1 / 2)
    x1_sq = (0.0, None, QuadraticForm([[1.0, 0.0], [0.0, 0.0]]))
    assert moments.integrate_poly2(x1_sq, UNIT_TRIANGLE) == pytest.approx(
        1 / 12)
    # (x1 - 1)^2 over the unit triangle translated by (1, 0)
    shifted = geometry.Simplex([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    poly = (1.0, np.array([-2.0, 0.0]),
            QuadraticForm([[1.0, 0.0], [0.0, 0.0]]))
    assert moments.integrate_poly2(poly, shifted) == pytest.approx(1 / 12)
    # x1^2 + x1*x2 past MAX_DIMENSION: (2 + 1) / 22! on the unit 20-simplex
    a = np.zeros((20, 20))
    a[0, 0], a[0, 1], a[1, 0] = 1.0, 0.5, 0.5
    value = moments.integrate_poly2((0.0, None, QuadraticForm(a)),
                                    geometry.unit_simplex(20))
    assert value == pytest.approx(3 / math.factorial(22), rel=1e-14)


def test_lemma_affine_integral_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        s = rand_simplex(rng, n)
        b = rng.uniform(-2, 2, size=n)
        c = float(rng.uniform(-2, 2))
        integral = moments.integrate_poly2((c, b, None), s)
        vol = geometry.volume(s)
        at_bary = vol * (c + b @ s.vertices.mean(axis=0))
        vertex_mean = vol * np.mean([c + b @ p for p in s.vertices])
        assert integral == pytest.approx(at_bary, rel=1e-12, abs=1e-12)
        assert integral == pytest.approx(vertex_mean, rel=1e-12, abs=1e-12)


def test_moments_match_exact_rationals():
    for n in (1, 2, 3, 6):
        for alpha in [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1)]:
            exact = moments.monomial_moment_exact(n, alpha)
            direct = Fraction(
                math.prod(math.factorial(a) for a in alpha),
                math.factorial(n + sum(alpha)))
            assert exact == direct
            assert moments.monomial_moment(n, alpha) == float(exact)
        assert moments.central_second_moment_unit(n) == float(
            moments.central_second_moment_unit_exact(n))


@pytest.mark.parametrize("n", range(1, 19))
def test_closed_forms_match_the_monomial_moments(n):
    # Central matrix, its trace and the table entries against the
    # factorial formula: M_ij = int u_i u_j - int u_i int u_j / vol.
    def moment(*axes):
        return moments.monomial_moment_exact(n, [axes.count(i)
                                                 for i in range(n)])

    vol = moment()
    central = [[moment(i, j) - moment(i) * moment(j) / vol
                for j in range(n)] for i in range(n)]
    assert moments.central_matrix_exact(n) == central
    assert moments.central_second_moment_unit_exact(n) == sum(
        central[i][i] for i in range(n))
    table = moments.moment_table(n)
    assert (table.first, table.square, table.mixed, table.volume) == (
        moment(0), moment(0, 0), moment(0, 1) if n >= 2 else 0, vol)
    assert table.central_matrix == tuple(map(tuple, central))


def test_moment_table_consistency():
    table = moments.moment_table(2)
    assert table.volume == Fraction(1, 2)
    assert table.first == Fraction(1, 6)
    assert table.square == Fraction(1, 12)
    assert table.mixed == Fraction(1, 24)
    assert table.central_scalar == Fraction(1, 18)
    trace = sum(table.central_matrix[i][i] for i in range(2))
    assert trace == table.central_scalar
