"""Error certificates: the convex sandwich, the midpoint bound, and the
positive-rule bound.

All radii are conditional on the supplied curvature constant K >= the
sup operator norm of the second differential over the simplex;
K_certified records whether K was an analytic constant or a lattice
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cubature as cubature_mod
from . import field as field_mod
from . import geometry, moments
from .errors import (ConvexityScreenFailed, InvariantViolation, NegativeGauge,
                     RuleNotApplicable)

SCREEN_RESOLUTION = 10
SCREEN_EIG_SLACK = -1e-8


def _store_finite(result, names):
    """Store each named field of a frozen result as a Python float;
    InvariantViolation if one is inf or NaN."""
    for name in names:
        value = float(getattr(result, name))
        if not math.isfinite(value):
            raise InvariantViolation(f"non-finite {name} {value}")
        object.__setattr__(result, name, value)


@dataclass(frozen=True)
class CertifiedResult:
    """Estimate with a rigorous radius: |integral - estimate| <= radius."""

    estimate: float
    radius: float
    K_used: float
    K_certified: bool
    cells: int = 1

    def __post_init__(self):
        _store_finite(self, ("estimate", "radius", "K_used"))
        if self.radius < 0:
            raise InvariantViolation(f"negative radius {self.radius}")
        if not all(map(math.isfinite, self.interval)):
            raise InvariantViolation("interval endpoint overflows")

    @property
    def interval(self):
        return (self.estimate - self.radius, self.estimate + self.radius)


@dataclass(frozen=True)
class SandwichResult:
    """Lower/upper integral bounds for a convex integrand."""

    lower: float  # vol(S) * f(barycenter)
    upper: float  # vol(S) * mean of vertex values

    def __post_init__(self):
        _store_finite(self, ("lower", "upper"))


def exact_sum(values):
    """Exactly rounded sum of an array; NaN if it overflows or meets
    inf - inf, which CertifiedResult and SandwichResult then reject."""
    try:
        return math.fsum(values.tolist())
    except (OverflowError, ValueError):
        return math.nan


def hh_sandwich(f, s, screen=False):
    """vol*f(pbar) <= integral <= vol * vertex mean, for convex f.

    Convexity is the caller's assertion; with screen=True a sampled
    Hessian check rejects fields with a clearly indefinite direction.
    """
    if screen:
        points = geometry.lattice_points(s, SCREEN_RESOLUTION)
        low = np.linalg.eigvalsh(field_mod.hessians(f, points))[:, 0]
        bad = np.flatnonzero(low < SCREEN_EIG_SLACK)
        if bad.size:
            raise ConvexityScreenFailed(
                f"sampled Hessian eigenvalue {low[bad[0]]:g} at "
                f"{points[bad[0]]}")
    vol = geometry.volume(s)
    values = field_mod.evaluate_batch(
        f, np.vstack((geometry.barycenter(s), s.vertices)))
    upper = vol * exact_sum(values[1:]) / (s.dimension + 1)
    return SandwichResult(lower=vol * float(values[0]), upper=upper)


def _certificate(rule, factor, f, s, gauge, gauge_certified):
    """Rule estimate with radius factor * K * moment: one determinant
    and one evaluate_batch call."""
    v = s.vertices[None]
    absdet, csm = moments.cell_stats(v)
    vol = geometry.check_det(s, absdet[0]) / math.factorial(s.dimension)
    return CertifiedResult(
        estimate=cubature_mod.estimate(rule, f, v, vol)[0],
        radius=factor * float(gauge) * float(csm[0]),  # inf if it overflows
        K_used=gauge, K_certified=gauge_certified)


def midpoint_bound(f, s, gauge, gauge_certified=False):
    """Single-point rule at the barycenter with radius (K/2) * moment."""
    if not gauge >= 0:
        raise NegativeGauge(f"K = {gauge} is not >= 0")
    return _certificate(cubature_mod.builtin("barycenter", s.dimension),
                        0.5, f, s, gauge, gauge_certified)


def rule_bound(rule, f, s, gauge, gauge_certified=False, report=None):
    """Positive degree-2-exact rule with radius K * moment.

    Refuses rules that fail positivity or degree-2 exactness; there is
    no valid certificate for that class.
    """
    if not gauge >= 0:
        raise NegativeGauge(f"K = {gauge} is not >= 0")
    if report is None:
        report = rule.report
    if not report.thm2_applicable:
        raise RuleNotApplicable(
            f"rule {rule.provenance!r}: positivity={report.positivity}, "
            f"exactness_degree={report.exactness_degree}", report=report)
    return _certificate(rule, 1.0, f, s, gauge, gauge_certified)
