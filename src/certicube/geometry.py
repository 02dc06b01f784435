"""Simplices in R^n: volumes, second moments, bisection, lattices.

A batch of m cells is coordinate-major, W (n+1, n, m) (vertex,
coordinate, cell), so kernels work on length-m planes. Only this module
reads its vertex and coordinate axes, the edge axis of its squared edge
lengths e2 (cell_stats and longest_edges reduce it) and the matrix axes
of an A (n, n, m) (quadratic_integrals reduces them); others index a
batch, its e2, its cut edges (m,) and A only along the last (cell) axis,
and take a simplex's one-cell batch from Simplex.batch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSimplex, DimensionMismatch, ParseError,
                     UnsupportedDimension)

# Scale-aware degeneracy threshold on |det E|: eps * (max edge length)^n.
EPS_GEOM = 1e-13


@dataclass(frozen=True)
class Simplex:
    """n+1 vertices in R^n, stored in construction order as rows.

    The vertices are read-only, so a simplex keeps |det E| and its
    second moment once they are first used: a second certificate on the
    same simplex computes neither again."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1 or v.shape[1] < 1:
            raise DimensionMismatch(
                f"need n+1 vertices of length n >= 1, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DimensionMismatch("non-finite vertex coordinate")
        # Bisection and the degeneracy check need the squared edge
        # lengths and max edge^n, which bounds |det E|, as finite floats.
        with np.errstate(over="ignore"):
            e2 = edge_lengths_sq(v[..., None])
            longest = np.sqrt(e2.max())
            scale = longest ** v.shape[1]
        if not np.isfinite(scale):
            raise DimensionMismatch(
                "simplex too large for floating point: "
                "max edge length ^ n overflows")
        v.setflags(write=False)
        e2.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_e2", e2)
        # Made here, set on first use: a key added to the instance dict
        # after abs_det's would make Python rebuild the dict, at about
        # 200 bytes a simplex.
        object.__setattr__(self, "_second_moment", None)

    @property
    def dimension(self):
        return self.vertices.shape[1]

    @functools.cached_property
    def abs_det(self):
        """|det E|, the package's one determinant, computed on first use
        and kept; DegenerateSimplex (on every use) if it is at most
        EPS_GEOM * (max edge length)^n."""
        v = self.vertices
        absdet = abs(float(np.linalg.det(v[1:] - v[0])))
        if absdet <= EPS_GEOM * self.max_edge_length() ** self.dimension:
            raise DegenerateSimplex(f"|det E| = {absdet:g} below threshold")
        return absdet

    @property
    def second_moment(self):
        """int_S ||x - pbar||^2 dx (cell_stats), computed on first use and
        kept; inf if it overflows, which bounds.cell_radii and
        moments.central_second_moment reject. DegenerateSimplex (on every
        use) as abs_det."""
        if self._second_moment is None:
            object.__setattr__(self, "_second_moment", float(
                cell_stats(self._e2, volume(self))[0]))
        return self._second_moment

    def max_edge_length(self):
        return float(np.sqrt(self._e2.max()))

    def batch(self):
        """(W, e2): the simplex as a read-only batch of one cell."""
        return self.vertices[..., None], self._e2


def unit_simplex(n):
    """Vertices at the origin and the standard basis vectors."""
    v = np.zeros((n + 1, n))
    v[1:] = np.eye(n)
    return Simplex(v)


def volume(s):
    """|det E| / n!, strictly positive for non-degenerate input."""
    return s.abs_det / math.factorial(s.dimension)


@functools.lru_cache(maxsize=None)
def _edge_pairs(k):
    """Vertex index pairs (i, j), i < j, of k vertices, lexicographic."""
    return np.triu_indices(k, 1)


def unpack(W):
    """The vertex rows (m, n+1, n) of the batch W, as a view."""
    return np.moveaxis(W, -1, 0)


def edge_lengths_sq(W):
    """Squared length of every edge of each cell in W (n+1, n, ...), as
    e2 (E, ...), in lexicographic vertex-pair order; coordinates add in
    order (not pairwise), so a cell's e2 is the same in any batch."""
    k = len(W)
    diff = np.empty((k * (k - 1) // 2,) + W.shape[1:], dtype=W.dtype)
    start = 0
    for a in range(k - 1):
        # Edges (a, a+1), ..., (a, k-1) from slices, not gathers; the
        # square drops the sign of W[b] - W[a].
        stop = start + k - 1 - a
        np.subtract(W[a + 1:], W[a], out=diff[start:stop])
        start = stop
    diff *= diff
    return functools.reduce(np.add, diff.swapaxes(0, 1))


def cell_stats(e2, vol):
    """int_S ||x - pbar||^2 dx of each cell, from its squared edge
    lengths e2 (E, ...) (edge_lengths_sq) and its volume. A point uniform
    on S has covariance sum_i (v_i - pbar)(v_i - pbar)^T / ((n+1)(n+2)),
    and sum_i ||v_i - pbar||^2 = sum_{i<j} ||v_i - v_j||^2 / (n+1), so
    the moment is vol tr(Cov) = vol * sum(e2) / ((n+1)^2 (n+2)): positive
    terms, no determinant, no cancellation. Summed in edge order like e2
    itself; inf where it overflows, which its callers reject."""
    k = (1 + math.isqrt(1 + 8 * len(e2))) // 2  # n+1 vertices, E = k(k-1)/2
    with np.errstate(over="ignore", invalid="ignore"):
        return vol * functools.reduce(np.add, e2) / (k * k * (k + 1))


def quadratic_integrals(A, W, vol):
    """int_S (x - pbar)^T A (x - pbar) dx = tr(A M_S) of each cell of W
    (n+1, n, m), as (m,), for a symmetric A (n, n, m), or (n, n) for all:
    M_S = vol * sum_i (v_i - pbar)(v_i - pbar)^T / ((n+1)(n+2)), whose
    trace is cell_stats's moment. inf or NaN where it overflows."""
    k, n = W.shape[:2]
    d = W - W.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        m_s = np.einsum("ajm,alm->jlm", d, d) * (vol / (k * (k + 1)))
        return (np.reshape(A, (n, n, -1)) * m_s).sum(axis=(0, 1))


def longest_edges(e2):
    """Index of the first longest edge of each cell, by its squared edge
    lengths e2 (E, ...), in the smallest integer type that holds E - 1."""
    longest = np.zeros(e2.shape[1:], dtype=np.min_scalar_type(len(e2) - 1))
    # A row at a time (argmax on axis 0 is slow).
    best = e2[0]
    for edge in range(1, len(e2)):
        longest[e2[edge] > best] = edge
        best = np.maximum(best, e2[edge])
    return longest


def split(W, longest):
    """Halves of each cell in W (n+1, n, m), cut at the midpoint of edge
    longest (m,) (longest_edges): (n+1, n, 2m), cell k's left half at 2k
    and its right half at 2k+1, both in the cell's vertex order."""
    k, n, m = W.shape
    edge_i, edge_j = _edge_pairs(k)
    # Indexing with a narrow integer type is about three times slower.
    longest = longest.astype(np.intp)
    # Flat offsets o of the cut edge's ends; the children hold 2o, 2o + 1.
    planes = np.arange(0, n * m, m)[:, None] + np.arange(m)
    i, j = (ends[longest] * (n * m) + planes for ends in (edge_i, edge_j))
    flat = W.reshape(-1)
    children = np.repeat(flat, 2)
    children[2 * j] = children[2 * i + 1] = 0.5 * (flat[i] + flat[j])
    return children.reshape(k, n, 2 * m)


def points(weights, W):
    """Physical points (q * m, n) of the barycentric weights (q, n+1) in
    every cell of W (n+1, n, m), by weight row, then cell; for more than
    one cell, each coordinate's column is contiguous (a transposed
    view)."""
    q, (n, m) = len(weights), W.shape[1:]
    flat = weights @ W.reshape(len(W), -1)
    if m == 1:  # already (q, n): a one-shot certificate skips the relayout
        return flat
    return flat.reshape(q, n, m).swapaxes(0, 1).reshape(n, q * m).T


def bisect(s):
    """Split at the midpoint of a longest edge; children keep vertex order."""
    volume(s)  # reject degenerate input
    W, e2 = s.batch()
    left, right = unpack(split(W, longest_edges(e2)))
    return Simplex(left), Simplex(right)


@functools.lru_cache(maxsize=4)
def lattice_weights(n, resolution):
    """Barycentric weights (m, n+1), in lexicographic order, of the
    mesh-1/resolution lattice on an n-simplex, vertices and faces
    included. Read-only: the last few lattices are kept, because
    per-cell K asks for the same one every round. UnsupportedDimension,
    naming its size, if the lattice cannot be allocated."""
    # Stars and bars: the integer parts of a weight, which sum to
    # resolution, are the gaps between n bars in resolution + n slots.
    # combinations lists the bar positions, and so the parts, in
    # lexicographic order; the parts fit the smallest integer type.
    slots = resolution + n
    part = np.min_scalar_type(-1 - slots)
    bars = itertools.chain.from_iterable(
        itertools.combinations(range(slots), n))
    count = math.comb(slots, n)
    try:  # ValueError: more bytes than an array index can address
        fence = np.empty((count, n + 2), dtype=part)
        fence[:, 0], fence[:, -1] = -1, slots
        fence[:, 1:-1] = np.fromiter(bars, dtype=part).reshape(-1, n)
        weights = (np.diff(fence) - 1) / resolution
    except (MemoryError, ValueError):
        raise UnsupportedDimension(
            f"the sampled lattice has {count} points at resolution "
            f"{resolution} on the {n}-simplex: too many to hold in memory")
    weights.setflags(write=False)
    return weights


def lattice_points(s, resolution):
    """Physical lattice points of mesh 1/resolution on the simplex."""
    return points(lattice_weights(s.dimension, resolution), s.batch()[0])


def read_lines(path):
    """(line number, text) of each line of a simplex or rule file that
    is not blank once its '#' comment is stripped."""
    with open(path) as fh:
        lines = [(lineno, line.split("#", 1)[0].strip())
                 for lineno, line in enumerate(fh, start=1)]
    return [(lineno, text) for lineno, text in lines if text]


def load_simplex(path):
    """One vertex per line, whitespace-separated decimals."""
    lines, rows = read_lines(path), []
    for lineno, text in lines:
        try:
            rows.append([float(tok) for tok in text.split()])
        except ValueError as exc:
            raise ParseError(f"bad vertex line: {exc}", line=lineno)
    if not rows:
        raise ParseError("empty simplex file")
    n = len(rows[0])
    # The first line of another length or past vertex n + 1, else the
    # last line of a file that ends early.
    wrong = [lineno for k, ((lineno, _), row) in enumerate(zip(lines, rows))
             if len(row) != n or k > n]
    if wrong or len(rows) != n + 1:
        raise ParseError(f"expected {n + 1} vertices of {n} coordinates",
                         line=wrong[0] if wrong else lines[-1][0])
    return Simplex(np.array(rows))
