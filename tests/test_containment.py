"""Containment battery: per-cell K intervals hold independent references.

Smooth integrands on random 1-, 2- and 3-D simplices, one fixed seed,
two tolerances per dimension. Each integrand is written twice: as the
text the package parses and as a numpy function for the reference,
which is scipy's quad in 1-D and a collapsed-coordinate Gauss-Legendre
product (scipy's nodes) in 2-D and 3-D, both independent of the package.
Per-cell K is a lattice sample, so those rows check the sampled radius
on integrands whose curvature a lattice sees, not a certificate.

The certified rows take K from the tape's Hessian run in mpmath.iv
intervals (tests/util.Intervals) over the simplex's bounding box: the
upper end of the Frobenius norm of that enclosure, which bounds the
operator norm. The rational family is left out: its natural interval
extension overestimates the Hessian (K = 3.6e3 in 2-D, where the cell
budget runs out, and inf in 3-D), which a mean-value form would cure
(ROADMAP item 10). The quadratic family is left out until the radius
covers rounding (ROADMAP item 4): its estimate misses by rounding alone.
The same enclosure is a ceiling that the sampled K must not exceed.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from certicube import expr, field, geometry
from certicube.adaptive import AdaptiveConfig, integrate_adaptive
from certicube.geometry import Simplex

from util import Intervals, frobenius_ceiling, rand_simplex

SEED = 20
# Tolerances per dimension, in units of the simplex's volume.
TOLERANCES = {1: (1e-5, 1e-8), 2: (1e-4, 1e-6), 3: (1e-3, 1e-4)}
SIMPLICES = 2
FAMILIES = ("exp", "sin", "cos", "x1x2exp", "quadratic", "rational", "sqrt")


def _affine(c, b):
    return " + ".join([repr(float(c))]
                      + [f"{float(x)!r}*x{i + 1}" for i, x in enumerate(b)])


def _form(a):
    """x^T a x as text, a symmetric."""
    n = len(a)
    return " + ".join(
        f"{float(a[i, j] * (1 if i == j else 2))!r}*x{i + 1}*x{j + 1}"
        for i in range(n) for j in range(i, n))


def _integrand(family, rng, n):
    """(text, numpy function of points (m, n)) of one drawn integrand."""
    if family in ("exp", "sin", "cos"):
        b, c = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0)
        fn = getattr(np, family)
        return f"{family}({_affine(c, b)})", lambda x: fn(c + x @ b)
    if family == "x1x2exp":
        a = float(rng.uniform(-1.5, 1.5))
        return (f"x1*x2*exp({a!r}*x1)",
                lambda x: x[:, 0] * x[:, 1] * np.exp(a * x[:, 0]))
    if family == "quadratic":
        b, c = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0)
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = 0.5 * (a + a.T)
        return (f"{_affine(c, b)} + {_form(a)}",
                lambda x: c + x @ b + np.sum((x @ a) * x, axis=1))
    if family == "rational":
        spread = rng.uniform(-1.0, 1.0, (n, n))
        a = spread @ spread.T / n  # positive semi-definite
        return (f"1/(1 + {_form(a)})",
                lambda x: 1.0 / (1.0 + np.sum((x @ a) * x, axis=1)))
    # sqrt of an affine form that is at least 0.5 on [-1, 1]^n.
    b = rng.uniform(-1.0, 1.0, n)
    c = float(np.abs(b).sum() + rng.uniform(0.5, 1.5))
    return f"sqrt({_affine(c, b)})", lambda x: np.sqrt(c + x @ b)


def _collapsed_gauss(fn, vertices, order):
    """Gauss-Legendre on the unit cube mapped onto the simplex by
    collapsed coordinates: u1 = t1, u_k = (1 - t1)...(1 - t_{k-1}) t_k,
    with Jacobian prod (1 - t_k)^(n - k) times |det E|."""
    n = vertices.shape[1]
    t, w = special.roots_legendre(order)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    grids = np.meshgrid(*[t] * n, indexing="ij")
    weights = math.prod(np.meshgrid(*[w] * n, indexing="ij"))
    u = np.empty((n,) + grids[0].shape)
    rest = np.ones_like(grids[0])
    for k in range(n):
        u[k] = rest * grids[k]
        weights = weights * (1.0 - grids[k]) ** (n - 1 - k)
        rest = rest * (1.0 - grids[k])
    edges = vertices[1:] - vertices[0]
    points = vertices[0] + u.reshape(n, -1).T @ edges
    values = fn(points)
    det = abs(np.linalg.det(edges))
    return det * float(weights.reshape(-1) @ values), \
        det * float(weights.reshape(-1) @ np.abs(values))


def _reference(fn, vertices):
    """(integral, error bound) over the simplex."""
    if vertices.shape[1] == 1:
        (lo,), (hi,) = sorted(vertices)
        value, err = integrate.quad(lambda x: fn(np.array([[x]]))[0],
                                    lo, hi, epsabs=0.0, epsrel=1e-12)
        return value, err + 1e-15 * abs(value)
    value, mass = _collapsed_gauss(fn, vertices, 48)
    coarse, _ = _collapsed_gauss(fn, vertices, 32)
    # The orders' difference bounds the coarse error, which is far above
    # the fine one for these analytic integrands; rounding adds the rest.
    return value, abs(value - coarse) + 1e-14 * mass


# x1*x2 needs two coordinates.
ROWS = [(n, family) for n in (1, 2, 3) for family in FAMILIES
        if (n, family) != (1, "x1x2exp")]


@pytest.mark.parametrize("n, family", ROWS)
def test_per_cell_interval_contains_the_reference(n, family):
    rng = np.random.default_rng([SEED, n, FAMILIES.index(family)])
    for _ in range(SIMPLICES):
        text, fn = _integrand(family, rng, n)
        s = rand_simplex(rng, n)
        f = field.parse_expr(text, n)
        # The parsed text and the numpy function are the same integrand.
        lattice = geometry.lattice_points(s, 3)
        assert field.evaluate_batch(f, lattice) == pytest.approx(
            fn(lattice), rel=1e-13, abs=1e-13)
        reference, ref_err = _reference(fn, s.vertices)
        for tol in TOLERANCES[n]:
            tol *= geometry.volume(s)
            assert ref_err <= 1e-3 * tol
            result = integrate_adaptive(f, s, AdaptiveConfig(tolerance=tol))
            assert result.radius <= tol
            # A quadratic's radius is 0 and its estimate exact but for
            # rounding, which the radius does not cover: there the check
            # is to the reference's own accuracy.
            assert abs(result.estimate - reference) <= \
                result.radius + ref_err, (text, tol)


# Certified rows: K is a rigorous bound, from the tape's Hessian run in
# outward-rounded intervals over the simplex's bounding box.
CERTIFIED = ("exp", "sin", "cos", "x1x2exp", "sqrt")
CERTIFIED_ROWS = [(n, family) for n in (1, 2, 3) for family in CERTIFIED
                  if (n, family) != (1, "x1x2exp")]


def _hessian_enclosure(f, vertices):
    """The interval Hessian plane of f's tape over the bounding box of
    the vertices (n+1, n): Intervals, floats or None (zero)."""
    box = Intervals.box(vertices.min(0)[None], vertices.max(0)[None])
    return f.evaluator.program(expr.Jets(box))[2]


@pytest.mark.parametrize("n, family", CERTIFIED_ROWS)
def test_certified_interval_contains_the_reference(n, family):
    # The first simplex of the per-cell row, at the first tolerance.
    rng = np.random.default_rng([SEED, n, FAMILIES.index(family)])
    text, fn = _integrand(family, rng, n)
    s = rand_simplex(rng, n)
    f = field.parse_expr(text, n)
    K = frobenius_ceiling(_hessian_enclosure(f, s.vertices))
    assert math.isfinite(K)
    reference, ref_err = _reference(fn, s.vertices)
    tol = TOLERANCES[n][0] * geometry.volume(s)
    result = integrate_adaptive(f, s, AdaptiveConfig(tolerance=tol,
                                                     k_override=K))
    assert result.K_certified and result.radius <= tol
    assert abs(result.estimate - reference) <= result.radius + ref_err, text


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_k_never_exceeds_the_interval_ceiling(n):
    # Uncentered, the sampled K of each cell is at most the Frobenius
    # ceiling of the Hessian enclosure on the cell's bounding box;
    # centered, at most that of the enclosure less the returned A. The
    # slack covers the rounding of the sampled Hessians and of A.
    rng = np.random.default_rng([SEED, n])
    eps = np.finfo(float).eps
    for family in FAMILIES:
        text, _ = _integrand(family, rng, n)
        f = field.parse_expr(text, n)
        # Cells inside [-1, 1]^n, where the sqrt family is real.
        cells = [rand_simplex(rng, n).vertices * 0.25
                 + rng.uniform(-0.7, 0.7, n) for _ in range(4)]
        W = np.concatenate([Simplex(v).batch()[0] for v in cells], axis=-1)
        lo, hi, _ = field.lattice_spectrum(f, W, 6)
        c_lo, c_hi, A = field.lattice_spectrum(f, W, 6, centered=True)
        for k, vertices in enumerate(cells):
            enclosure = _hessian_enclosure(f, vertices)
            ceiling = frobenius_ceiling(enclosure)
            assert max(-lo[k], hi[k]) <= ceiling * (1 + 8 * eps), text
            a = A[..., k]
            ceiling = frobenius_ceiling(enclosure, a)
            slack = 8 * eps * (ceiling + np.sqrt(np.sum(a * a)))
            assert max(-c_lo[k], c_hi[k]) <= ceiling + slack, text
