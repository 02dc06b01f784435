"""C^2 integrands: evaluation, Hessians, curvature estimates, convexifying.

A ScalarField has one batched contract: its evaluator maps points
(m, n) to values (m,), and its optional hessian maps them to Hessians
(m, n, n). A pointwise function must be vectorized by the caller; a
wrongly shaped result raises DimensionMismatch. A parsed expression's
evaluator is its tape, and its hessian the tape run in jets, exact up
to rounding, one pass per batch and evaluating nothing off the points.
Hessians come only from the field's own hessian: a field without one
needs its K from the caller. lattice_spectrum samples the lowest and
highest Hessian eigenvalue of each simplex on a barycentric lattice: K
is the larger magnitude of the two, and the convexity screen reads the
lowest. Centered, it samples D^2 f - A instead, A the Hessian at each
cell's barycenter, and returns A (n, n, m): per-cell K is centered, and
A enters a per-cell midpoint estimate as well as its radius. A sample is not
certified; a caller with a known constant passes it as K instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from . import geometry
from .errors import (DimensionMismatch, EvaluationFailure,
                     InvariantViolation, NegativeGauge)
from .qform import QuadraticForm, extreme_eigenvalues

DEFAULT_LATTICE_RESOLUTION = 20
# Bounds the Hessian entries, and so the memory, of one hessians call in
# lattice_spectrum: n^2 a point.
POINTS_PER_CALL = 2 ** 20


def check_gauge(K):
    """NegativeGauge unless the curvature constant K is finite and >= 0."""
    if not 0 <= K < math.inf:
        raise NegativeGauge(f"K = {K} must be finite and >= 0")


@dataclass(frozen=True)
class ScalarField:
    """An integrand on R^n.

    ``evaluator`` maps points (m, n) to values (m,), and ``hessian`` (if
    given) maps them to symmetric Hessians (m, n, n); parse_expr passes
    its tape and the tape's jets. A pointwise function must be
    vectorized by the caller (``x[..., i]``, ``axis=-1``). A field
    without a hessian has no sampled K: give K instead.
    """

    dimension: int
    evaluator: Callable
    hessian: Optional[Callable] = None


def evaluate(f, x):
    """f at one point x (n,): the one-row case of evaluate_batch."""
    return float(evaluate_batch(f, np.asarray(x, dtype=float)[None])[0])


# np.errstate as a decorator costs about a third of a with block, and
# from numpy 2 it sets the state per call, so calls may nest (a
# convexified field's evaluator calls evaluate_batch).
@np.errstate(all="ignore")  # non-finite values raise
def evaluate_batch(f, points):
    """f at each row of points (m, n), as (m,): checked_values under
    np.errstate, so numpy warns of nothing. DimensionMismatch if the
    evaluator returns another shape, EvaluationFailure if a value is not
    finite."""
    return checked_values(f, points)


def checked_values(f, points):
    """evaluate_batch without its np.errstate: the caller enters one
    around it, as cubature.estimate does around the values and their
    weighted sum, so that a certificate enters np.errstate once."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(f.evaluator(points), dtype=float)
    if values.shape != points.shape[:-1]:
        raise DimensionMismatch(
            f"values of shape {values.shape} at points {points.shape}")
    # count_nonzero takes half the time of .all() on a few values.
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise EvaluationFailure("integrand non-finite on a batch point")
    return values


def hessians(f, points):
    """Second differential at each row of points (m, n), as (m, n, n):
    the field's own hessian, which evaluates nothing. EvaluationFailure
    if the field has none, InvariantViolation if an entry is not
    finite."""
    if f.hessian is None:
        raise EvaluationFailure(
            "field has no hessian: pass hessian= to ScalarField, or give "
            "K (k_override, --K or a gauge)")
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):  # non-finite entries raise below
        coeffs = np.asarray(f.hessian(points), dtype=float)
    if coeffs.shape != points.shape + points.shape[-1:]:
        raise DimensionMismatch(
            f"Hessians of shape {coeffs.shape} at points {points.shape}")
    if not np.isfinite(coeffs).all():
        raise InvariantViolation("non-finite Hessian: K is not finite")
    return coeffs


def hessian_at(f, u):
    """Second differential at u as a QuadraticForm (see hessians)."""
    return QuadraticForm(hessians(f, np.asarray(u, dtype=float)[None])[0])


def lattice_spectrum(f, W, resolution, centered=False):
    """(lowest, highest, A): the lowest and highest Hessian eigenvalue,
    each (m,), on the barycentric lattice of mesh 1/resolution of each
    cell of the batch W (see geometry): the one Hessian sampler, so not
    certified. Each hessians call, and the lattice built for it, covers
    about POINTS_PER_CALL Hessian entries. A is None unless centered:
    then each cell's barycenter leads its lattice in the same hessians
    call, A (n, n, m) is a cell-last view of the Hessians there, and the
    spectrum is that of D^2 f(x) - A.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    n, m = W.shape[1:]
    weights = geometry.lattice_weights(n, resolution)
    hess = None
    if centered:
        weights = np.vstack((np.full(n + 1, 1 / (n + 1)), weights))
        hess = np.empty((m, n, n))
    # A call holds whole lattices of several cells, or, for a lattice
    # larger than one call, step weight rows of one cell.
    step = max(1, POINTS_PER_CALL // (n * n))
    rows = min(step, len(weights))
    per_call = max(1, step // len(weights))
    lo, hi = np.full(m, np.inf), np.full(m, -np.inf)
    for i in range(0, m, per_call):
        cells = slice(i, i + per_call)
        block = W[..., cells]
        c = block.shape[-1]
        for j in range(0, len(weights), rows):
            H = hessians(f, geometry.points(weights[j:j + rows], block))
            if centered:
                # Rows run by weight, then cell, so the barycenter rows
                # lead the first call of each chunk of cells.
                if j == 0:
                    hess[cells] = H[:c]
                with np.errstate(over="ignore"):  # inf: cell_radii raises
                    H = H.reshape(-1, c, n, n) - hess[cells]
                H = H.reshape(-1, n, n)
            low, high = (side.reshape(-1, c)
                         for side in extreme_eigenvalues(H))
            lo[cells] = np.minimum(lo[cells], low.min(0))
            hi[cells] = np.maximum(hi[cells], high.max(0))
    return lo, hi, None if hess is None else hess.transpose(1, 2, 0)


def d2f_sup_norm(f, s, resolution=DEFAULT_LATTICE_RESOLUTION):
    """Estimate sup over the simplex of the Hessian operator norm, the
    larger magnitude of its lattice_spectrum, so not certified."""
    lo, hi, _ = lattice_spectrum(f, s.batch()[0], resolution)
    return float(np.maximum(-lo, hi)[0])


def convexify(f, gauge):
    """Fields g+f and g-f with g(x) = (gauge/2) ||x||^2.

    For gauge >= the sup Hessian norm of f, both outputs are convex and
    their Hessians are bounded by 2*gauge in operator norm. Each output's
    hessian is the batch gauge*I +- hessians(f, points): one jet pass
    per batch for a parsed field, the no-hessian error for a field
    without one.
    """
    check_gauge(gauge)
    n = f.dimension
    identity = np.eye(n)

    def make(sign):
        def evaluator(x):
            return (0.5 * gauge * np.sum(x * x, axis=-1)
                    + sign * evaluate_batch(f, x))

        def hessian(points):
            return gauge * identity + sign * hessians(f, points)

        return ScalarField(dimension=n, evaluator=evaluator, hessian=hessian)

    return make(+1.0), make(-1.0)


def parse_expr(text, n):
    """Textual integrand over x1..xn: its evaluator is the expression
    tape, and its Hessian the tape's exact jets."""
    tape = expr_mod.parse(text, n)
    return ScalarField(dimension=n, evaluator=tape, hessian=tape.hessians)
