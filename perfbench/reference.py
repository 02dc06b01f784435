"""Independent references for the benchmark's correctness checks.

Nothing here imports certicube: integrals come from closed forms
evaluated in mpmath at high precision, curvature constants from numpy's
``eigvalsh``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DPS = 50
# Outward factor on analytic curvature constants: eigvalsh and exp are
# accurate to a few ulps, so 1e-12 keeps K an upper bound.
K_OUTWARD = 1.0 + 1e-12
# Rounding in the program's estimate is not covered by its radius, so an
# enclosure check allows this many ulps of the estimate.
SLACK_ULPS = 8


def _mp_vertices(vertices):
    return [[mpmath.mpf(float(c)) for c in row] for row in vertices]


def simplex_volume(vertices):
    """|det(v_1 - v_0, ..., v_n - v_0)| / n! as an mpf."""
    with mpmath.workdps(DPS):
        v = _mp_vertices(vertices)
        n = len(v) - 1
        edges = mpmath.matrix([[v[i][k] - v[0][k] for k in range(n)]
                               for i in range(1, n + 1)])
        return abs(mpmath.det(edges)) / math.factorial(n)


def exp_integral(a, vertices):
    """Integral of exp(a.x) over a simplex by Hermite-Genocchi.

    The integral is n! vol(S) exp[t_0, ..., t_n] with t_i = a.v_i, where
    exp[...] is the divided difference of exp. The divided difference is
    the top-right entry of the exponential of the bidiagonal matrix with
    the t_i on the diagonal and ones above it, which stays accurate when
    nodes nearly coincide.
    """
    with mpmath.workdps(DPS):
        v = _mp_vertices(vertices)
        n = len(v) - 1
        coeffs = [mpmath.mpf(float(c)) for c in a]
        nodes = [mpmath.fsum(c * x for c, x in zip(coeffs, row))
                 for row in v]
        bidiagonal = mpmath.zeros(n + 1, n + 1)
        for i, t in enumerate(nodes):
            bidiagonal[i, i] = t
            if i < n:
                bidiagonal[i, i + 1] = 1
        divided = mpmath.expm(bidiagonal)[0, n]
        return math.factorial(n) * simplex_volume(vertices) * divided


def quadratic_integral(c, b, a, vertices):
    """Integral of c + b.x + x^T A x over a simplex.

    Uses int_S x = vol * mean(v_i) and the second-moment closed form
    int_S x x^T = vol / ((n+1)(n+2)) * (sum v_i v_i^T + s s^T), s = sum v_i.
    """
    with mpmath.workdps(DPS):
        v = _mp_vertices(vertices)
        n = len(v) - 1
        vol = simplex_volume(vertices)
        total = [mpmath.fsum(row[k] for row in v) for k in range(n)]
        second = [[(mpmath.fsum(row[i] * row[j] for row in v)
                    + total[i] * total[j]) * vol / ((n + 1) * (n + 2))
                   for j in range(n)] for i in range(n)]
        linear = mpmath.fsum(mpmath.mpf(float(b[k])) * total[k]
                             for k in range(n)) * vol / (n + 1)
        quad = mpmath.fsum(mpmath.mpf(float(a[i][j])) * second[i][j]
                           for i in range(n) for j in range(n))
        return mpmath.mpf(float(c)) * vol + linear + quad


def central_second_moment(vertices):
    """int_S |x - pbar|^2 dx = int_S |x|^2 dx - vol |pbar|^2."""
    v = np.asarray(vertices, dtype=float)
    n = v.shape[1]
    with mpmath.workdps(DPS):
        square = quadratic_integral(0, np.zeros(n), np.eye(n), v)
        centroid = [mpmath.fsum(mpmath.mpf(float(r[k])) for r in v) / (n + 1)
                    for k in range(n)]
        return float(square - simplex_volume(v)
                     * mpmath.fsum(x * x for x in centroid))


def exp_curvature(a, vertices):
    """sup over S of |Hessian of exp(a.x)| = max over vertices, outward.

    The Hessian exp(a.v) a a^T is rank one; its largest eigenvalue comes
    from eigvalsh at each vertex, where exp(a.x) is largest.
    """
    a = np.asarray(a, dtype=float)
    outer = np.outer(a, a)
    best = max(float(np.linalg.eigvalsh(math.exp(float(a @ v)) * outer)[-1])
               for v in np.asarray(vertices, dtype=float))
    return best * K_OUTWARD


def quadratic_curvature(a):
    """Operator norm of the Hessian 2A of x^T A x, outward."""
    eig = np.linalg.eigvalsh(2.0 * np.asarray(a, dtype=float))
    return float(np.max(np.abs(eig))) * K_OUTWARD


def gaussian_bump_integral(width, centre):
    """int_0^1 exp(-width (x - centre)^2) dx by the error function."""
    with mpmath.workdps(DPS):
        w = mpmath.mpf(width)
        root = mpmath.sqrt(w)
        return (mpmath.sqrt(mpmath.pi / w) / 2
                * (mpmath.erf(root * (1 - mpmath.mpf(centre)))
                   + mpmath.erf(root * mpmath.mpf(centre))))


def slack(estimate):
    return SLACK_ULPS * math.ulp(abs(float(estimate)))


def encloses(reference, estimate, radius):
    """True when |reference - estimate| <= radius + a few ulps."""
    with mpmath.workdps(DPS):
        gap = abs(mpmath.mpf(reference) - mpmath.mpf(float(estimate)))
        return bool(gap <= mpmath.mpf(float(radius)) + slack(estimate))


def between(reference, lower, upper):
    """True when lower <= reference <= upper, up to a few ulps."""
    with mpmath.workdps(DPS):
        ref = mpmath.mpf(reference)
        return bool(mpmath.mpf(float(lower)) - slack(lower) <= ref
                    <= mpmath.mpf(float(upper)) + slack(upper))
