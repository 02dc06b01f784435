"""Certified adaptive integration by batched longest-edge bisection.

Each cell carries a rigorous radius K_cell * moment times the factor
bounds.certificate gives the rule; both are additive over a partition,
so refining the largest-radius cells until the summed radius meets the
tolerance certifies the whole simplex. The radius needs only K and the
cell's geometry (bounds.cell_radii), so the rounds evaluate no
integrand: the rule is applied once, to the final leaves, when the run
returns or exhausts its budget. The leaves are numpy arrays. A round
splits, in one kernel call, the leaves with radius >= grow * max, taken
by decreasing radius, exact ties first in tree order (depth first, the
half that geometry.split puts at 2k ahead of the one at 2k+1). It keeps
the longest prefix in which each leaf's radius is above every child
radius made before it: exactly the pops of a greedy max-heap with that
tie rule, which depends on no round size. The prefix also ends where
the running total reaches the tolerance, at max_depth and at max_cells;
the other children are discarded. grow is the largest child/parent
radius ratio among the last round's kept splits, capped at 1: a leaf
below grow * max is likely outgrown by a child of the largest leaf,
which would end the prefix before it. The band serves runs whose
largest leaves have children above many smaller leaves, such as
per-cell K on a peaked integrand or on 3-D cells: without it, a round
builds splits of those smaller leaves that the prefix discards. A round
is also cut short where the tolerance is predicted to fall, from the
radius shrink of the last round's splits; a cut that falls short only
leaves work for the next round.

The leaves start in tree order, and a round that provably splits every
leaf keeps them in it without a sort: split in place, its children are
the leaves, in tree order. It needs the band to be every leaf, no
budget, depth or predicted cut to end it, no child above a leaf and the
total above tol even with every shrinking split first; if a check on
the children fails, they are put in heap order and the prefix runs as
in any other round. Any other round sorts its band, and its children
follow the leaves it keeps, out of tree order: from then on each leaf
carries an integer tree-order key (MAX_DEPTH), which breaks exact ties
only where a sorted band has one.

The run computes one determinant, the root's, and a leaf at depth d
inherits 2^-d of it; a float cell's rounded midpoints leave its edges,
so its true volume differs slightly, which the radius does not yet
cover. Leaves are a coordinate-major batch (see geometry) and carry
only what a later round or the final estimate reads: radius, depth, cut
edge, and a per-cell K and A where the run has them. A new cell's
squared edge lengths give its second moment (geometry.cell_stats) and
the first longest edge its split cuts (geometry.longest_edges), and are
then dropped. A global or override K is one float, spread over the
leaves only for the diagnostics. Totals are math.fsum over the array
buffer (bounds.exact_sum), exactly rounded in any order.

Per-cell K is centered. The midpoint bound holds for f - q_A, with
q_A(x) = (x - pbar)^T A (x - pbar) / 2 for any symmetric A, and then K
needs to bound only ||D^2 f - A||. So each new cell takes A = D^2 f at
its barycenter and K = the larger magnitude of its
field.lattice_spectrum centered there, which shrinks with the cell. A
midpoint leaf keeps A (n, n, m), and its estimate gains the integral of
q_A (geometry.quadratic_integrals / 2) when the run ends; a positive
degree-2-exact rule integrates q_A exactly and keeps its estimate. A
run settles its K source once, as k_source: "override" (k_override,
certified), "lattice" (one global d2f_sup_norm) or "centered-lattice"
(per cell, at K_RESOLUTION); only the last centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cubature as cubature_mod
from . import field as field_mod
from . import geometry
from .bounds import CertifiedResult, cell_radii, certificate, exact_sum
from .cubature import CubatureRule
from .errors import BudgetExhausted

# POINTS_PER_ROUND bounds memory. A round splits at most as many leaves
# as have POINTS_PER_ROUND rule nodes, and the final estimate pass
# evaluates the leaves' rule nodes POINTS_PER_ROUND at a time;
# lattice_spectrum bounds its own. The greedy prefix does not depend on
# the band's size, but geometry.points rounds a cell's points differently
# in batches of different sizes, so POINTS_PER_ROUND can move a cell's
# sampled K or a final estimate in its last bit.
POINTS_PER_ROUND = 2 ** 20
# Per-cell K is sampled by field.lattice_spectrum at this resolution.
K_RESOLUTION = 4
# Leaves out of tree order carry an int64 key: the sum, over the levels
# d at which a leaf's path takes the half that geometry.split puts
# second, of 2^(MAX_DEPTH - d). It has room for MAX_DEPTH levels.
MAX_DEPTH = 62


@dataclass(frozen=True)
class AdaptiveConfig:
    tolerance: float
    max_cells: int = 10 ** 6
    max_depth: int = 60
    rule: Optional[CubatureRule] = None  # None: the barycenter rule
    k_mode: str = "per-cell"  # or "global"
    k_override: Optional[float] = None  # analytic constant; certified

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {self.max_cells}")
        if not 0 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must be in [0, MAX_DEPTH = "
                             f"{MAX_DEPTH}], got {self.max_depth}")
        if self.k_mode not in ("per-cell", "global"):
            raise ValueError(f"unknown k_mode {self.k_mode!r}")
        if self.rule is not None and not isinstance(self.rule, CubatureRule):
            raise ValueError(f"rule must be a CubatureRule, got {self.rule!r}")
        if self.k_override is not None:
            field_mod.check_gauge(self.k_override)


@dataclass
class RunDiagnostics:
    """What a run did; the leaf arrays are the run's own, in the loop's
    order (tree order until a round sorts its band): vertices
    (m, n+1, n), estimates, radii, K and depths (m,).
    In per-cell mode a leaf's K bounds ||D^2 f - A||, A the Hessian at
    its barycenter; a global or override K, which the run keeps as one
    float, is filled in for every leaf when the run ends.
    stop says why the run ended: "tolerance", "max_cells" or
    "max_depth"; k_source where K came from (see the module docstring)."""

    stop: Optional[str] = None
    k_source: Optional[str] = None
    rounds: int = 0
    discarded_splits: int = 0
    vertices: Optional[np.ndarray] = None
    estimates: Optional[np.ndarray] = None
    radii: Optional[np.ndarray] = None
    k_cells: Optional[np.ndarray] = None
    depths: Optional[np.ndarray] = None

    @property
    def k_min(self):
        return float(self.k_cells.min())

    @property
    def k_max(self):
        return float(self.k_cells.max())

    @property
    def depth_histogram(self):
        levels, counts = np.unique(self.depths, return_counts=True)
        return dict(zip(levels.tolist(), counts.tolist()))


def _child_keys(key, c_depth):
    """Keys of the halves of leaves with keys key, in geometry.split's
    order: the first half keeps its parent's key, the second adds its own
    span."""
    c_key = np.repeat(key, 2)
    c_key[1::2] += np.left_shift(np.int64(1), MAX_DEPTH - c_depth[1::2])
    return c_key


def _round_keys(key, depth, keep, taken, c_depth):
    """Keys of the leaves after a round that sorted its band: the kept
    leaves' (keep), then the children's of the leaves it split (taken),
    from the keys key of the leaves before it, or from their depths if
    they were in tree order (key None)."""
    if key is None:
        # A leaf at depth d spans 2^(MAX_DEPTH - d) keys, and its key is
        # the span of the leaves before it.
        span = np.left_shift(np.int64(1), MAX_DEPTH - depth)
        key = np.cumsum(span) - span
    return np.concatenate((key[keep], _child_keys(key[taken], c_depth)))


def _heap_order(rad, band, key):
    """The leaves band (ascending positions) by decreasing radius, exact
    ties first in tree order: a stable sort while the leaves are in tree
    order (key None), else by key where the sorted radii tie."""
    neg = -rad[band]
    order = np.argsort(neg, kind="stable")
    if key is not None:
        ranked = neg[order]
        if (ranked[1:] == ranked[:-1]).any():
            order = np.lexsort((key[band], neg))
    return band[order]


def integrate_adaptive(f, s, cfg, diagnostics=None):
    """Integrate f over s to the requested certified radius.

    Raises BudgetExhausted (carrying the best partial result) when
    max_cells or max_depth is reached first; the partial bound is still
    valid, just larger than requested.
    """
    rule, factor = certificate(  # dimension and certificate before any K
        cubature_mod.builtin("barycenter", s.dimension) if cfg.rule is None
        else cfg.rule, s.dimension)

    if cfg.k_override is not None:
        k_source, global_k = "override", cfg.k_override
    elif cfg.k_mode == "global":
        k_source, global_k = "lattice", field_mod.d2f_sup_norm(f, s)
    else:
        k_source, global_k = "centered-lattice", None
    centered = k_source == "centered-lattice"
    keep_hess = centered and factor < 1
    max_band = max(1, POINTS_PER_ROUND // (2 * len(rule.weights)))
    chunk = max(1, POINTS_PER_ROUND // len(rule.weights))

    def _cells(W, depth):
        """(radius, K, cut edge, A) of each cell of W at its tree depth;
        K is None unless it is per cell, A None unless the leaves keep
        it."""
        # Inherited, not measured: see the module docstring.
        vol = np.ldexp(root_vol, -depth)
        e2 = geometry.edge_lengths_sq(W)
        if centered:
            lo, hi, hess = field_mod.lattice_spectrum(f, W, K_RESOLUTION,
                                                      centered=True)
            k_cell = np.maximum(-lo, hi)
        else:
            k_cell, hess = None, None
        rad = cell_radii(factor, global_k if k_cell is None else k_cell,
                         geometry.cell_stats(e2, vol))
        return (rad, k_cell, geometry.longest_edges(e2),
                hess if keep_hess else None)

    root_vol = geometry.volume(s)  # the run's one determinant
    # int32: np.ldexp takes about a ninth of the time of int64 exponents.
    W, depth = s.batch()[0], np.zeros(1, dtype=np.int32)
    rad, k_cell, longest, hess = _cells(W, depth)
    running = rad[0]
    rounds = discarded = 0
    shrink = grow = 1.0  # children/parents radius; 1 predicts nothing

    def finish(stop, radius=None):
        # The leaves' estimates, POINTS_PER_ROUND rule nodes at a time.
        vol = np.ldexp(root_vol, -depth)
        est = np.concatenate([
            cubature_mod.estimate(rule, f, W[..., i:i + chunk],
                                  vol[i:i + chunk])
            for i in range(0, len(vol), chunk)])
        if hess is not None:
            # q_A is 0 at the midpoint rule's node: the rule misses it all.
            with np.errstate(over="ignore", invalid="ignore"):
                est += 0.5 * geometry.quadratic_integrals(hess, W, vol)
        k_all = (np.full(len(rad), global_k, dtype=float) if k_cell is None
                 else k_cell)
        if diagnostics is not None:
            diagnostics.stop = stop
            diagnostics.k_source = k_source
            diagnostics.rounds = rounds
            diagnostics.discarded_splits = discarded
            (diagnostics.vertices, diagnostics.estimates, diagnostics.radii,
             diagnostics.k_cells, diagnostics.depths) = (
                geometry.unpack(W), est, rad, k_all, depth)
        if radius is None:
            radius = exact_sum(rad)
        return CertifiedResult(estimate=exact_sum(est), radius=radius,
                               K_used=float(k_all.max()),
                               K_certified=k_source == "override",
                               cells=len(rad))

    # Tree-order keys, from the first round that sorts on; pending holds
    # a sorted round's _round_keys arguments until a later round needs
    # the keys (the last round's are never made).
    key = pending = None

    while True:
        if running <= cfg.tolerance:
            # Re-sum exactly to rule out running-total drift.
            running = exact_sum(rad)
            if running <= cfg.tolerance:
                return finish("tolerance", running)
        if pending is not None:
            key, pending = _round_keys(*pending), None
        m, top = len(rad), rad.max()
        # Whole round: the band is every leaf, and neither the budget,
        # max_depth nor the predicted cut can stop it before the last.
        whole = (rad.min() >= grow * top and m <= max_band
                 and 2 * m <= cfg.max_cells and depth.max() < cfg.max_depth
                 and (shrink >= 1 or running - (1 - shrink) * rad.sum()
                      > cfg.tolerance))
        if whole:  # split in place: no sort, no gather
            b_rad, c_depth = rad, np.repeat(depth + 1, 2)
            children = geometry.split(W, longest)
        else:
            band = _heap_order(rad, np.flatnonzero(rad >= grow * top), key)
            limit = ("max_depth" if depth[band[0]] >= cfg.max_depth else
                     "max_cells" if m + 1 > cfg.max_cells else None)
            if limit is not None:
                raise BudgetExhausted(
                    f"{limit} {getattr(cfg, limit)} reached with radius "
                    f"{running:g} > tolerance {cfg.tolerance:g}",
                    result=finish(limit))
            band = band[:min(max_band, cfg.max_cells - m)]
            b_rad = rad[band]
            if shrink < 1:
                # Predicted totals if each split shrinks as the last
                # round's did; split up to the first at or below tol.
                left = running - (1 - shrink) * np.cumsum(b_rad)
                cut = np.count_nonzero(left > cfg.tolerance) + 1
                band, b_rad = band[:cut], b_rad[:cut]
            c_depth = np.repeat(depth[band] + 1, 2)
            children = geometry.split(W.take(band, axis=-1),
                                      longest.take(band))
        c_rad, c_k, c_longest, c_hess = _cells(children, c_depth)
        pair_sum = c_rad[0::2] + c_rad[1::2]
        pair_max = np.maximum(c_rad[0::2], c_rad[1::2])
        if whole:
            gain = b_rad - pair_sum
            if (c_rad.max() < b_rad.min()
                    and running - np.maximum(gain, 0).sum() > cfg.tolerance):
                # No child outgrows a leaf, and the total stays above tol
                # with every shrinking split first: the heap pops every
                # leaf, in any order. The children are the leaves, in
                # the leaves' order. Shrink's leading half needs no sort.
                kth = m - 1 - (m - 1) // 2
                lead = np.argpartition(b_rad, kth)[kth:]
                shrink = float(min(pair_sum.sum() / b_rad.sum(),
                                   pair_sum[lead].sum() / b_rad[lead].sum()))
                grow = min(1.0, (pair_max / b_rad).max())
                if key is not None:
                    key = _child_keys(key, c_depth)
                W, longest, rad, k_cell, depth, hess = (
                    children, c_longest, c_rad, c_k, c_depth, c_hess)
                running -= gain.sum()
                rounds += 1
                continue
            # A check failed: the children built go into heap order, and
            # the prefix decides as in any other round.
            band = _heap_order(rad, np.arange(m), key)
            b_rad, pair_sum, pair_max = (rad[band], pair_sum[band],
                                         pair_max[band])
            pick = np.column_stack((2 * band, 2 * band + 1)).ravel()
            children, c_longest, c_rad, c_k, c_depth, c_hess = (
                None if add is None else add.take(pick, axis=-1)
                for add in (children, c_longest, c_rad, c_k, c_depth, c_hess))
        # totals[k]: the heap's running total before its k-th pop.
        totals = np.cumsum(np.concatenate(([running], pair_sum - b_rad)))
        # The heap pops band[k] next only if no child made earlier in
        # the round has as large a radius (an equal one may come first
        # in tree order), the total still exceeds tol and band[k] is
        # above max_depth.
        child_max = np.maximum.accumulate(pair_max)
        stop = ((b_rad[1:] <= child_max[:-1])
                | (totals[1:-1] <= cfg.tolerance)
                | (depth[band[1:]] >= cfg.max_depth))
        take = 1 + int(np.argmax(np.append(stop, True)))
        # Shrink of the kept splits and of their leading half (the largest
        # leaves, among which a tolerance cut falls). The smaller predicts
        # fewer splits: a short prediction costs a round, not discards.
        parents = np.cumsum(b_rad[:take])
        kids = np.cumsum(pair_sum[:take])
        half = (take - 1) // 2
        if parents[half] > 0:
            shrink = float(min(kids[-1] / parents[-1],
                               kids[half] / parents[half]))
        # A child's K can exceed its parent's: capped, a band is never empty.
        if b_rad[take - 1] > 0:
            grow = min(1.0, (pair_max[:take] / b_rad[:take]).max())
        # The kept leaves stay in place and the children follow them: out
        # of tree order from here on, the leaves carry keys.
        keep = np.ones(m, dtype=bool)
        keep[band[:take]] = False
        pending = (key, depth, keep, band[:take], c_depth[:2 * take])
        W, longest, rad, k_cell, depth, hess = (
            None if old is None else np.concatenate(
                (old.compress(keep, axis=-1), add[..., :2 * take]), axis=-1)
            for old, add in zip((W, longest, rad, k_cell, depth, hess),
                                (children, c_longest, c_rad, c_k, c_depth,
                                 c_hess)))
        running = totals[take]
        rounds += 1
        discarded += len(band) - take
