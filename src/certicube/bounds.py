"""Error certificates: the convex sandwich, the midpoint bound, and the
positive-rule bound.

All radii are conditional on the supplied curvature constant K >= the
sup operator norm of the second differential over the simplex;
K_certified records whether K was an analytic constant or a lattice
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cubature as cubature_mod
from . import field as field_mod
from . import geometry, moments, qform
from .errors import ConvexityScreenFailed, NegativeGauge, RuleNotApplicable

SCREEN_RESOLUTION = 10
SCREEN_EIG_SLACK = -1e-8


@dataclass(frozen=True)
class CertifiedResult:
    """Estimate with a rigorous radius: |integral - estimate| <= radius."""

    estimate: float
    radius: float
    K_used: float
    K_certified: bool
    cells: int = 1

    def __post_init__(self):
        for name in ("estimate", "radius", "K_used"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def interval(self):
        return (self.estimate - self.radius, self.estimate + self.radius)


@dataclass(frozen=True)
class SandwichResult:
    """Lower/upper integral bounds for a convex integrand."""

    lower: float  # vol(S) * f(barycenter)
    upper: float  # vol(S) * mean of vertex values


def hh_sandwich(f, s, screen=False):
    """vol*f(pbar) <= integral <= vol * vertex mean, for convex f.

    Convexity is the caller's assertion; with screen=True a sampled
    Hessian check rejects fields with a clearly indefinite direction.
    """
    if screen:
        for point in geometry.lattice_points(s, SCREEN_RESOLUTION):
            low = qform.min_eigenvalue(field_mod.hessian_at(f, point))
            if low < SCREEN_EIG_SLACK:
                raise ConvexityScreenFailed(
                    f"sampled Hessian eigenvalue {low:g} at {point}")
    vol = geometry.volume(s)
    lower = vol * field_mod.evaluate(f, geometry.barycenter(s))
    vertex_mean = sum(field_mod.evaluate(f, p) for p in s.vertices)
    upper = vol * vertex_mean / (s.dimension + 1)
    return SandwichResult(lower=lower, upper=upper)


def midpoint_bound(f, s, gauge, gauge_certified=False):
    """Single-point rule at the barycenter with radius (K/2) * moment."""
    if not gauge >= 0:
        raise NegativeGauge(f"K = {gauge} is not >= 0")
    vol = geometry.volume(s)
    estimate = vol * field_mod.evaluate(f, geometry.barycenter(s))
    radius = 0.5 * gauge * moments.central_second_moment(s)
    return CertifiedResult(estimate=estimate, radius=radius,
                           K_used=gauge, K_certified=gauge_certified)


def rule_bound(rule, f, s, gauge, gauge_certified=False, report=None):
    """Positive degree-2-exact rule with radius K * moment.

    Refuses rules that fail positivity or degree-2 exactness; there is
    no valid certificate for that class.
    """
    if not gauge >= 0:
        raise NegativeGauge(f"K = {gauge} is not >= 0")
    if report is None:
        report = cubature_mod.verify(rule)
    if not report.thm2_applicable:
        raise RuleNotApplicable(
            f"rule {rule.provenance!r}: positivity={report.positivity}, "
            f"exactness_degree={report.exactness_degree}", report=report)
    estimate = cubature_mod.apply_rule(rule, f, s)
    radius = gauge * moments.central_second_moment(s)
    return CertifiedResult(estimate=estimate, radius=radius,
                           K_used=gauge, K_certified=gauge_certified)
