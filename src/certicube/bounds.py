"""Error certificates: the convex sandwich, the midpoint bound, and the
positive-rule bound.

certificate(rule, n) alone decides which radius a rule earns (K/2 times
the second moment at the barycenter, K times it for a positive
degree-2-exact rule), and cell_radii alone computes a batch's radii
from its second moments and K, with no integrand value;
cubature.estimate computes its estimates. rule_bound and midpoint_bound
estimate on a batch of one cell and pass cell_radii the second moment
that the Simplex keeps, with its |det E|, once they are first used; the
adaptive loop ranks cells by cell_radii of geometry.cell_stats every
round and estimates only its final leaves.

A one-shot certificate enters np.errstate once, in cubature.estimate
(hh_sandwich: field.evaluate_batch), around the evaluation and the
weighted sum; its radius is a product of Python floats, which cannot
warn, checked with math.isfinite. The README gives what a one-shot
certificate costs, and how much of it is the tape's run.

All radii are conditional on the supplied curvature constant K >= the
sup operator norm of the second differential over the simplex;
K_certified records whether K was an analytic constant or a lattice
estimate. A lattice estimate reads the field's own hessian, so a field
without one needs its K given. The same radii hold for f - q_A, with
q_A(x) = (x - pbar)^T A (x - pbar) / 2, when K bounds ||D^2 f - A||:
the adaptive loop's per-cell K is that bound for A = D^2 f(pbar), and
its midpoint estimates add the integral of q_A. The one-shot
certificates here take A = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cubature as cubature_mod
from . import field as field_mod
from . import geometry
from .errors import (ConvexityScreenFailed, InvariantViolation,
                     RuleNotApplicable)

SCREEN_RESOLUTION = 10
SCREEN_EIG_SLACK = -1e-8


def _store_finite(result, names):
    """Store each named field of a frozen result as a Python float, and
    return them; InvariantViolation if one is inf or NaN."""
    values = []
    for name in names:
        value = float(getattr(result, name))
        if not math.isfinite(value):
            raise InvariantViolation(f"non-finite {name} {value}")
        object.__setattr__(result, name, value)
        values.append(value)
    return values


@dataclass(frozen=True)
class CertifiedResult:
    """Estimate with a rigorous radius: |integral - estimate| <= radius."""

    estimate: float
    radius: float
    K_used: float
    K_certified: bool
    cells: int = 1

    def __post_init__(self):
        estimate, radius, _ = _store_finite(
            self, ("estimate", "radius", "K_used"))
        if radius < 0:
            raise InvariantViolation(f"negative radius {radius}")
        if not (math.isfinite(estimate - radius)
                and math.isfinite(estimate + radius)):
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
    """Exactly rounded sum of a 1-D float array, read from its buffer
    (no list); NaN if it overflows or meets inf - inf, which
    CertifiedResult and SandwichResult then reject."""
    try:
        return math.fsum(memoryview(values))
    except (OverflowError, ValueError):
        return math.nan


def hh_sandwich(f, s, screen=False):
    """vol*f(pbar) <= integral <= vol * vertex mean, for convex f.

    Convexity is the caller's assertion; with screen=True the lowest
    Hessian eigenvalue on a lattice (field.lattice_spectrum, which needs
    the field's hessian) rejects fields with a clearly indefinite
    direction.
    """
    if screen:
        low = field_mod.lattice_spectrum(f, s.batch()[0],
                                         SCREEN_RESOLUTION)[0][0]
        if low < SCREEN_EIG_SLACK:
            raise ConvexityScreenFailed(
                f"lowest sampled Hessian eigenvalue {low:g}")
    vol = geometry.volume(s)
    # The barycenter rule's node, so lower is the midpoint estimate, then
    # the vertices as they are: weighting them would turn -0.0 into 0.0.
    v = s.vertices
    node = cubature_mod.builtin("barycenter", s.dimension).nodes @ v
    values = field_mod.evaluate_batch(f, np.concatenate((node, v)))
    upper = vol * exact_sum(values[1:]) / len(v)
    return SandwichResult(lower=vol * values.item(0), upper=upper)


def certificate(rule, n):
    """(certifying rule, radius factor): the one place a rule gets its
    certificate on an n-simplex.

    The dimension comes first (DimensionMismatch), before any report. A
    one-node rule at the barycenter is the midpoint operator; it is
    replaced by the builtin barycenter rule of its dimension, with
    factor 1/2. A positive degree-2-exact rule keeps itself, with factor
    1. Any other rule has no certificate: RuleNotApplicable.
    """
    cubature_mod.check_dimension(rule, n)
    report = rule.report
    if len(rule.weights) == 1 and report.barycenter_ok:
        return cubature_mod.builtin("barycenter", n), 0.5
    if not report.thm2_applicable:
        raise RuleNotApplicable(
            f"rule {rule.provenance!r}: positivity={report.positivity}, "
            f"exactness_degree={report.exactness_degree}", report=report)
    return rule, 1.0


def cell_radii(factor, gauge, m2):
    """Radius of each cell of a batch, given its second moment m2
    (geometry.cell_stats, or a Simplex's kept second_moment) and its
    curvature constant K (a bound on ||D^2 f - A|| for a centered cell):
    factor * K * m2. InvariantViolation if a radius is not finite. A
    product of Python floats, as for one simplex, cannot warn, so only
    arrays are multiplied under np.errstate."""
    if type(gauge) is float and type(m2) is float:
        rad = factor * gauge * m2
        finite = math.isfinite(rad)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            rad = factor * gauge * m2
        finite = np.isfinite(rad).all()
    if not finite:
        raise InvariantViolation(
            "non-finite cell radius: K or the simplex is too large")
    return rad


def rule_bound(rule, f, s, gauge, gauge_certified=False):
    """Rule estimate with the radius that certificate gives: K * moment
    for a positive degree-2-exact rule, (K/2) * moment at the barycenter.

    Refuses every other rule; there is no valid certificate for it.
    """
    field_mod.check_gauge(gauge)
    rule, factor = certificate(rule, s.dimension)
    est = cubature_mod.estimate(rule, f, s.batch()[0], geometry.volume(s))
    rad = cell_radii(factor, float(gauge), s.second_moment)
    return CertifiedResult(estimate=est[0], radius=rad, K_used=gauge,
                           K_certified=gauge_certified)


def midpoint_bound(f, s, gauge, gauge_certified=False):
    """Single-point rule at the barycenter with radius (K/2) * moment."""
    return rule_bound(cubature_mod.builtin("barycenter", s.dimension),
                      f, s, gauge, gauge_certified)
