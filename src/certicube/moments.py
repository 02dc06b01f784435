"""Closed-form monomial moments on the unit simplex and derived quantities.

All values come from the factorial formula
int_{S1} x^alpha dx = (prod alpha_i!) / (n + |alpha|)!
evaluated exactly in integers, plus two second-order closed forms on a
physical simplex S, both computed in geometry: the integral of a
quadratic q(x) = c + b.x + x^T A x over S is vol q(pbar) plus
int_S (x - pbar)^T A (x - pbar) (integrate_poly2, from
geometry.quadratic_integrals with A (n, n)), and int_S ||x - pbar||^2,
the case A = I, is geometry.cell_stats, from the squared edge lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .errors import (InvariantViolation, UnsupportedDegree,
                     UnsupportedDimension)

# Bounds the exact tables below, which `moments --dim` builds from
# outside input (n^2 Fractions, 0.5 ms at n = 18); no certificate reads them.
MAX_DIMENSION = 18


def _check_dimension(n):
    if n < 1:
        raise UnsupportedDimension(f"dimension must be >= 1, got {n}")
    if n > MAX_DIMENSION:
        raise UnsupportedDimension(
            f"dimension {n} exceeds {MAX_DIMENSION}, the largest exact "
            "moment table")


def monomial_moment_exact(n, alpha):
    """int_{S1} x^alpha dx as an exact Fraction, |alpha| <= 2."""
    _check_dimension(n)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise UnsupportedDegree(f"multi-index {alpha} invalid for n={n}")
    degree = sum(alpha)
    if degree > 2:
        raise UnsupportedDegree(f"total degree {degree} > 2")
    num = math.prod(math.factorial(a) for a in alpha)
    return Fraction(num, math.factorial(n + degree))


def monomial_moment(n, alpha):
    return float(monomial_moment_exact(n, alpha))


def central_second_moment_unit_exact(n):
    """int_{S1} ||x - pbar||^2 dx = n^2 / ((n+1) (n+2)!), the trace of
    central_matrix_exact(n)."""
    _check_dimension(n)
    return Fraction(n * n, (n + 1) * math.factorial(n + 2))


def central_second_moment_unit(n):
    return float(central_second_moment_unit_exact(n))


def central_matrix_exact(n):
    """M = int_{S1} (u - ubar)(u - ubar)^T du, entrywise exact:
    M_ij = ((n+1) [i=j] - 1) / ((n+1) (n+2)!)."""
    _check_dimension(n)
    scale = (n + 1) * math.factorial(n + 2)
    return [[Fraction((n + 1) * (i == j) - 1, scale) for j in range(n)]
            for i in range(n)]


def central_second_moment(s):
    """int_S ||x - pbar||^2 dx of one simplex: its kept
    Simplex.second_moment.

    InvariantViolation if it overflows."""
    csm = s.second_moment
    if not math.isfinite(csm):
        raise InvariantViolation(
            "non-finite second moment: the simplex is too large")
    return csm


@dataclass(frozen=True)
class MomentTable:
    """The unit-simplex moment constants for one dimension."""

    dimension: int
    first: Fraction
    square: Fraction
    mixed: Fraction
    volume: Fraction
    central_scalar: Fraction
    central_matrix: tuple


def moment_table(n):
    _check_dimension(n)
    return MomentTable(
        dimension=n,
        first=Fraction(1, math.factorial(n + 1)),
        square=Fraction(2, math.factorial(n + 2)),
        mixed=Fraction(1 if n >= 2 else 0, math.factorial(n + 2)),
        volume=Fraction(1, math.factorial(n)),
        central_scalar=central_second_moment_unit_exact(n),
        central_matrix=tuple(tuple(row) for row in central_matrix_exact(n)),
    )


def integrate_poly2(q, s):
    """Exact integral over s of q(x) = c + b.x + x^T A x, degree <= 2.

    ``q`` is a (constant, linear vector or None, QuadraticForm or None)
    triple. vol q(pbar) plus geometry.quadratic_integrals of A, as the
    module docstring says; no numerical quadrature is involved.
    """
    c, b, phi = q
    n = s.dimension
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    a = np.zeros((n, n)) if phi is None else phi.coeffs
    pbar = s.vertices.mean(axis=0)
    vol = geometry.volume(s)
    return (vol * (float(c) + b @ pbar + pbar @ a @ pbar)
            + geometry.quadratic_integrals(a, s.batch()[0], vol)[0])
