"""The benchmark's independent references against quadrature and the
exact moment table that ``certicube moments`` prints."""

import io
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
from certicube import cli  # noqa: E402


def _triangle_quad(f, vertices):
    """dblquad over the unit triangle pulled back by the affine map."""
    v = np.asarray(vertices, dtype=float)
    jac = abs(np.linalg.det(v[1:] - v[0]))

    def integrand(u2, u1):
        return f(v[0] + u1 * (v[1] - v[0]) + u2 * (v[2] - v[0]))

    value, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0,
                                 lambda u1: 1.0 - u1,
                                 epsabs=1e-13, epsrel=1e-13)
    return jac * value


def test_exp_closed_form_matches_quadrature_on_seeded_triangle():
    rng = np.random.default_rng(7)
    vertices = rng.uniform(-1.0, 1.0, (3, 2))
    a = rng.standard_normal(2) * 1.5
    expected = _triangle_quad(lambda x: math.exp(a @ x), vertices)
    got = float(reference.exp_integral(a, vertices))
    assert got == pytest.approx(expected, rel=1e-11)


def test_exp_closed_form_with_coincident_nodes():
    # a.v_i equal at two vertices: the divided difference must not
    # divide by the zero gap.
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    got = float(reference.exp_integral([1.0, 1.0], vertices))
    assert got == pytest.approx(1.0, rel=1e-14)  # exactly 1 for x1 + x2


def test_exp_closed_form_in_three_dimensions():
    vertices = np.vstack([np.zeros(3), np.eye(3)])
    a = np.array([0.3, -0.7, 1.1])

    def inner(z, y, x):
        return math.exp(a @ (x, y, z))

    expected, _ = integrate.tplquad(inner, 0, 1, 0, lambda x: 1 - x,
                                    0, lambda x, y: 1 - x - y,
                                    epsabs=1e-12, epsrel=1e-12)
    assert float(reference.exp_integral(a, vertices)) == pytest.approx(
        expected, rel=1e-10)


def _moment_table(n):
    out = io.StringIO()
    assert cli.run(["moments", "--dim", str(n)], out=out) == 0
    table = {}
    for line in out.getvalue().splitlines()[1:]:
        name, exact = line.split("  ")[1].strip(), line.split()[-1]
        table[name] = Fraction(exact)
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_closed_form_matches_certicube_moments(n):
    table = _moment_table(n)
    unit = np.vstack([np.zeros(n), np.eye(n)])
    zero_b, zero_a = np.zeros(n), np.zeros((n, n))
    e1 = np.eye(n)[0]
    assert float(reference.simplex_volume(unit)) == float(table["volume"])
    first = reference.quadratic_integral(0, e1, zero_a, unit)
    assert float(first) == float(table["first moment"])
    square = reference.quadratic_integral(0, zero_b, np.outer(e1, e1), unit)
    assert float(square) == float(table["square moment"])
    if n >= 2:
        mixed_a = np.zeros((n, n))
        mixed_a[0, 1] = mixed_a[1, 0] = 0.5  # x^T A x = x1 x2
        mixed = reference.quadratic_integral(0, zero_b, mixed_a, unit)
        assert float(mixed) == float(table["mixed moment"])
    assert reference.central_second_moment(unit) == pytest.approx(
        float(table["central second moment"]), rel=1e-15)


def test_analytic_curvature_constants():
    vertices = [[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]
    a = [0.5, -1.0]
    expected = 1.25 * math.exp(1.0)  # |a|^2 * max_i exp(a.v_i)
    assert reference.exp_curvature(a, vertices) == pytest.approx(
        expected, rel=2e-12)
    assert reference.exp_curvature(a, vertices) >= expected
    assert reference.quadratic_curvature([[1.0, 0.0], [0.0, -3.0]]) >= 6.0


def test_bump_reference_matches_quadrature():
    expected, _ = integrate.quad(lambda x: math.exp(-1000 * (x - 0.37) ** 2),
                                 0.0, 1.0, points=[0.37], epsabs=1e-14)
    got = float(reference.gaussian_bump_integral(1000.0, 0.37))
    assert got == pytest.approx(expected, rel=1e-12)
    assert round(got, 5) == 0.05605


def test_enclosure_checks_allow_only_a_few_ulps():
    assert reference.encloses(1.0, 1.0 + 2e-16, 0.0)
    assert not reference.encloses(1.0, 1.0 + 1e-12, 0.0)
    assert reference.encloses(1.0, 1.5, 0.5)
    assert reference.between(1.0, 0.5, 1.0)
    assert not reference.between(1.0, 1.0 + 1e-12, 2.0)
