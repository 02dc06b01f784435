"""Certified adaptive integration by batched longest-edge bisection.

Each cell carries a rigorous radius K_cell * moment times the factor
bounds.certificate gives the rule; both are additive over a partition, so
refining the largest-radius cells until the summed radius meets the
tolerance certifies the whole simplex. The leaves are numpy arrays kept
in creation order. Each round bisects, in one kernel call, the leaves
with radius >= BAND * max, taken by (-radius, creation index), and keeps
the longest prefix in which each leaf's radius is at least every child
radius made before it: exactly the pops of a greedy max-heap (ties to
the older cell). The prefix also ends where the running total reaches
the tolerance, at max_depth and at max_cells; the other children are
discarded. So that few are, a round is cut short where the tolerance is
predicted to fall (plus SLACK), from the radius shrink of the last
round's splits; a cut that falls short only leaves work for the next
round. The run computes one determinant, the root's: bisection halves
the volume exactly, so a leaf at depth d inherits 2^-d of it. Sums use
math.fsum, exactly rounded in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Optional, Union

import numpy as np

from . import cubature as cubature_mod
from . import field as field_mod
from . import geometry
from .bounds import CertifiedResult, certificate, certify_cells, exact_sum
from .cubature import CubatureRule
from .errors import BudgetExhausted, NegativeGauge

# No constant here changes the partition. BAND in (0, 1] trades rounds
# against discarded splits. SLACK is how many leaves past the predicted
# tolerance cut a round still splits, in case its children shrink less
# than the last round's did. A round splits at most as many leaves as
# keep its integrand evaluations near POINTS_PER_ROUND, bounding memory.
BAND = 0.25
SLACK = 16
POINTS_PER_ROUND = 2 ** 20


@dataclass(frozen=True)
class Cell:
    """One leaf of the refinement tree."""

    simplex: geometry.Simplex
    estimate: float
    radius: float
    K_local: float
    depth: int


@dataclass(frozen=True)
class AdaptiveConfig:
    tolerance: float
    max_cells: int = 10 ** 6
    max_depth: int = 60
    rule: Union[CubatureRule, str] = "midpoint"
    k_mode: str = "per-cell"  # or "global"
    k_resolution: int = 4
    k_override: Optional[float] = None  # analytic constant; certified

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.k_mode not in ("per-cell", "global"):
            raise ValueError(f"unknown k_mode {self.k_mode!r}")
        if isinstance(self.rule, str) and self.rule != "midpoint":
            raise ValueError(f"rule must be a CubatureRule or 'midpoint'")
        if self.k_override is not None and not (
                0 <= self.k_override < math.inf):
            raise NegativeGauge(
                f"K = {self.k_override} must be finite and >= 0")


@dataclass
class RunDiagnostics:
    cells: int = 0
    rounds: int = 0
    discarded_splits: int = 0
    depth_histogram: dict = dataclass_field(default_factory=dict)
    k_min: float = math.inf
    k_max: float = 0.0
    collect_cells: bool = False
    leaves: list = dataclass_field(default_factory=list)


def integrate_adaptive(f, s, cfg, diagnostics=None):
    """Integrate f over s to the requested certified radius.

    Raises BudgetExhausted (carrying the best partial result) when
    max_cells or max_depth is reached first; the partial bound is still
    valid, just larger than requested.
    """
    n = s.dimension
    nfact = math.factorial(n)
    rule, factor = certificate(
        cfg.rule if isinstance(cfg.rule, CubatureRule)
        else cubature_mod.builtin("barycenter", n))

    k_certified = cfg.k_override is not None
    global_k = cfg.k_override
    if global_k is None and cfg.k_mode == "global":
        global_k = field_mod.d2f_sup_norm(f, s).value
    k_lattice = None if global_k is not None else np.array(list(
        geometry.barycentric_lattice(n, cfg.k_resolution)))
    points_per_leaf = 2 * len(rule.weights) + (
        0 if k_lattice is None else 2 * len(k_lattice) * (2 * n * n + 1))
    max_band = max(1, POINTS_PER_ROUND // points_per_leaf)

    def _cells(V, depth):
        """(estimate, radius, K) of every simplex in V, shape (m, n+1, n),
        at the given tree depths."""
        # Bisection halves the volume exactly: a power of two is exact.
        vol = np.ldexp(root_vol, -depth)
        if global_k is not None:
            k_cell = np.full(len(V), global_k, dtype=float)
        else:
            k_cell = np.max(field_mod.hessian_norms(
                f, (k_lattice @ V).reshape(-1, n)).reshape(len(V), -1),
                axis=1)
        est, rad = certify_cells(rule, factor, f, V, vol, vol * nfact,
                                 k_cell)
        return est, rad, k_cell

    root_vol = geometry.volume(s)  # the run's one determinant
    verts = np.array(s.vertices)[None]
    depth = np.zeros(1, dtype=int)
    est, rad, k_cell = _cells(verts, depth)
    running = rad[0]
    rounds = discarded = 0
    shrink = 1.0  # children/parents radius; 1 predicts nothing

    def finish(radius=None):
        if diagnostics is not None:
            diagnostics.cells = len(rad)
            diagnostics.rounds = rounds
            diagnostics.discarded_splits = discarded
            levels, counts = np.unique(depth, return_counts=True)
            diagnostics.depth_histogram = dict(
                zip(levels.tolist(), counts.tolist()))
            diagnostics.k_min = float(k_cell.min())
            diagnostics.k_max = float(k_cell.max())
            if diagnostics.collect_cells:
                diagnostics.leaves = [
                    Cell(simplex=geometry.Simplex(verts[i]),
                         estimate=float(est[i]), radius=float(rad[i]),
                         K_local=float(k_cell[i]), depth=int(depth[i]))
                    for i in range(len(rad))]
        if radius is None:
            radius = exact_sum(rad)
        return CertifiedResult(estimate=exact_sum(est), radius=radius,
                               K_used=float(k_cell.max()),
                               K_certified=k_certified, cells=len(rad))

    while True:
        if running <= cfg.tolerance:
            # Re-sum exactly to rule out running-total drift.
            running = exact_sum(rad)
            if running <= cfg.tolerance:
                return finish(running)
        band = np.flatnonzero(rad >= BAND * rad.max())
        band = band[np.argsort(-rad[band], kind="stable")]
        limit = ("max_depth" if depth[band[0]] >= cfg.max_depth else
                 "max_cells" if len(rad) + 1 > cfg.max_cells else None)
        if limit is not None:
            raise BudgetExhausted(
                f"{limit} {getattr(cfg, limit)} reached with radius "
                f"{running:g} > tolerance {cfg.tolerance:g}",
                result=finish())
        band = band[:min(max_band, cfg.max_cells - len(rad))]
        if shrink < 1:
            # Predicted totals if each split shrinks as the last round's
            # did; split up to the first at or below tol, plus SLACK.
            left = running - (1 - shrink) * np.cumsum(rad[band])
            band = band[:np.count_nonzero(left > cfg.tolerance) + 1 + SLACK]
        c_depth = np.repeat(depth[band] + 1, 2)
        children = geometry.split(verts[band])
        c_est, c_rad, c_k = _cells(children, c_depth)
        pair_rad = c_rad.reshape(-1, 2)
        # totals[k]: the heap's running total before its k-th pop.
        totals = np.cumsum(np.concatenate(
            ([running], pair_rad.sum(axis=1) - rad[band])))
        # The heap pops band[k] next only if no child made earlier in
        # the round has a larger radius, the total still exceeds tol and
        # band[k] is above max_depth.
        child_max = np.maximum.accumulate(pair_rad.max(axis=1))
        stop = ((rad[band[1:]] < child_max[:-1])
                | (totals[1:-1] <= cfg.tolerance)
                | (depth[band[1:]] >= cfg.max_depth))
        take = 1 + int(np.argmax(np.append(stop, True)))
        # Shrink of the kept splits and of their leading half (the largest
        # leaves, among which a tolerance cut falls). The smaller predicts
        # fewer splits: a short prediction costs a round, not discards.
        parents = np.cumsum(rad[band[:take]])
        kids = np.cumsum(pair_rad[:take].sum(axis=1))
        half = (take - 1) // 2
        if parents[half] > 0:
            shrink = float(min(kids[-1] / parents[-1],
                               kids[half] / parents[half]))
        keep = np.ones(len(rad), dtype=bool)
        keep[band[:take]] = False
        new = (children, c_est, c_rad, c_k, c_depth)
        verts, est, rad, k_cell, depth = (
            np.concatenate((old[keep], add[:2 * take]))
            for old, add in zip((verts, est, rad, k_cell, depth), new))
        running = totals[take]
        rounds += 1
        discarded += len(band) - take


def refine_steps(f, s, cfg, steps, diagnostics=None):
    """Run exactly ``steps`` bisections and return the partial result.

    Test hook for partition-additivity and monotonicity properties: the
    tolerance is made unreachable and the cell budget caps the run.
    """
    capped = replace(cfg, tolerance=np.finfo(float).tiny,
                     max_cells=steps + 1)
    try:
        integrate_adaptive(f, s, capped, diagnostics=diagnostics)
    except BudgetExhausted as exc:
        return exc.result
    raise AssertionError("capped run should exhaust its budget")


def oracle_integrate(f, s, samples, seed=0):
    """Monte Carlo integral with uniform simplex sampling.

    Barycentric weights come from normalized exponential spacings, so
    points are uniform on the simplex; returns (mean, standard error).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    gaps = rng.standard_exponential((samples, s.dimension + 1))
    weights = gaps / gaps.sum(axis=1, keepdims=True)
    points = weights @ s.vertices
    values = field_mod.evaluate_batch(f, points)
    vol = geometry.volume(s)
    mean = vol * float(values.mean())
    if samples == 1:
        return mean, 0.0
    se = vol * float(values.std(ddof=1)) / math.sqrt(samples)
    return mean, se
