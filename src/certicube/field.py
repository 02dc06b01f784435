"""C^2 integrands: evaluation, Hessians, curvature estimates, convexifying.

A ScalarField wraps a pointwise evaluator plus an optional analytic
Hessian. A parsed expression's evaluator is its expression tape, whose
second-order jets give exact Hessians (up to rounding) for a whole batch
of points in one pass and evaluate nothing off the points. Any other
callable without an analytic Hessian gets central finite differences
with the absolute step FD_STEP. The sup-norm of the second differential
over a simplex is estimated on a barycentric lattice, so it is not
certified; a caller with a known constant passes it as K instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as expr_mod
from . import geometry
from .errors import EvaluationFailure, InvariantViolation, NegativeGauge
from .qform import QuadraticForm

FD_STEP = 1e-4
DEFAULT_LATTICE_RESOLUTION = 20
# Bounds the integrand evaluations, and so the memory, of one batched
# finite-difference call in d2f_sup_norm.
POINTS_PER_CALL = 2 ** 20


@dataclass(frozen=True)
class ScalarField:
    """An integrand on R^n.

    ``evaluator`` maps a point (n,) to a float; when ``supports_batch``
    it also accepts an (m, n) array and returns (m,) values. ``hessian``
    (if given) returns the analytic second differential as a
    QuadraticForm. An evaluator that is an expr.Tape (parse_expr's) gets
    exact jet Hessians; any other gets finite differences with step
    FD_STEP, so it must tolerate +-FD_STEP excursions per axis.
    """

    dimension: int
    evaluator: Callable
    hessian: Optional[Callable] = None
    supports_batch: bool = False


def evaluate(f, x):
    with np.errstate(all="ignore"):  # non-finite values are raised below
        value = float(f.evaluator(np.asarray(x, dtype=float)))
    if not np.isfinite(value):
        raise EvaluationFailure(f"integrand non-finite at {x}")
    return value


def evaluate_batch(f, points):
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):  # non-finite values are raised below
        if f.supports_batch:
            values = np.asarray(f.evaluator(points), dtype=float)
            values = np.broadcast_to(values, points.shape[:-1]).astype(float)
        else:
            values = np.array([float(f.evaluator(p)) for p in points])
    if not np.all(np.isfinite(values)):
        raise EvaluationFailure("integrand non-finite on a batch point")
    return values


def hessians(f, points):
    """Second differential at each row of points (p, n), as (p, n, n).

    An analytic hessian is called per point. A parsed field runs its
    tape once over all rows in jets, exact up to rounding. Any other
    field takes central finite differences (O(h^2)): one evaluate_batch
    call for every stencil point of every row.
    """
    points = np.asarray(points, dtype=float)
    if f.hessian is not None:
        return np.array([hessian_at(f, u).coeffs for u in points])
    if isinstance(f.evaluator, expr_mod.Tape):
        with np.errstate(all="ignore"):  # non-finite entries raise below
            coeffs = f.evaluator.hessians(points)
    else:
        coeffs = _fd_hessians(f, points)
    if not np.all(np.isfinite(coeffs)):
        raise InvariantViolation("non-finite Hessian: K is not finite")
    return coeffs


def _fd_hessians(f, points):
    p, n = points.shape
    h = FD_STEP
    eye = h * np.eye(n)
    iu, ju = np.triu_indices(n, 1)
    corners = [si * eye[iu] + sj * eye[ju] for si in (1, -1) for sj in (1, -1)]
    steps = np.concatenate([np.zeros((1, n)), eye, -eye] + corners)
    values = evaluate_batch(f, (points[:, None] + steps).reshape(-1, n))
    values = values.reshape(p, -1)
    centre, plus, minus = np.split(values[:, :2 * n + 1], [1, n + 1], 1)
    pp, pm, mp, mm = np.moveaxis(values[:, 2 * n + 1:].reshape(p, 4, -1), 1, 0)
    coeffs = np.empty((p, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[:, range(n), range(n)] = (plus - 2.0 * centre + minus) / (h * h)
        coeffs[:, iu, ju] = coeffs[:, ju, iu] = (
            (pp - pm) - mp + mm) / (4.0 * h * h)
    return coeffs


def hessian_norms(f, points):
    """Hessian operator norm at each row of points (p, n)."""
    return np.max(np.abs(np.linalg.eigvalsh(hessians(f, points))), axis=-1)


def hessian_at(f, u):
    """Second differential at u as a QuadraticForm (see hessians)."""
    u = np.asarray(u, dtype=float)
    if f.hessian is None:
        return QuadraticForm(hessians(f, u[None])[0])
    form = f.hessian(u)
    if not isinstance(form, QuadraticForm):
        form = QuadraticForm(form)
    return form


def d2f_sup_norm(f, s, resolution=DEFAULT_LATTICE_RESOLUTION):
    """Estimate sup over the simplex of the Hessian operator norm.

    Lattice sampling only, so the value is not certified. The lattice
    goes through hessian_norms in chunks of about POINTS_PER_CALL
    integrand evaluations.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    points = geometry.lattice_points(s, resolution)
    n = s.dimension
    chunk = max(1, POINTS_PER_CALL // (2 * n * n + 1))
    best = max(hessian_norms(f, points[i:i + chunk]).max()
               for i in range(0, len(points), chunk))
    return float(best)


def convexify(f, gauge):
    """Fields g+f and g-f with g(x) = (gauge/2) ||x||^2.

    For gauge >= the sup Hessian norm of f, both outputs are convex and
    their Hessians are bounded by 2*gauge in operator norm. Each output
    carries the combined Hessian gauge*I +- H_f analytically (through
    hessian_at, so FD-backed fields still work).
    """
    if gauge < 0:
        raise NegativeGauge(f"gauge {gauge} < 0")
    n = f.dimension
    identity = np.eye(n)

    def make(sign):
        def evaluator(x):
            x = np.asarray(x, dtype=float)
            quad = 0.5 * gauge * np.sum(x * x, axis=-1)
            if x.ndim == 1:
                return quad + sign * evaluate(f, x)
            return quad + sign * evaluate_batch(f, x)

        def hessian(u):
            return QuadraticForm(
                gauge * identity + sign * hessian_at(f, u).coeffs)

        return ScalarField(dimension=n, evaluator=evaluator,
                           hessian=hessian, supports_batch=True)

    return make(+1.0), make(-1.0)


def parse_expr(text, n):
    """Textual integrand over x1..xn: its evaluator is the expression
    tape, so its Hessians are exact jets."""
    return ScalarField(dimension=n, evaluator=expr_mod.parse(text, n),
                       supports_batch=True)
