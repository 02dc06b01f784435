"""Simplices in R^n: barycenters, volumes, affine charts, bisection."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplex, DimensionMismatch, ParseError

# Scale-aware degeneracy threshold on |det E|: eps * (max edge length)^n.
EPS_GEOM = 1e-13


@dataclass(frozen=True)
class Simplex:
    """n+1 vertices in R^n, stored in construction order as rows."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1 or v.shape[1] < 1:
            raise DimensionMismatch(
                f"need n+1 vertices of length n >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("non-finite vertex coordinate")
        # Bisection and the degeneracy check need the squared edge
        # lengths and max edge^n, which bounds |det E|, as finite floats.
        with np.errstate(over="ignore"):
            longest = np.sqrt(edge_lengths_sq(v).max())
            scale = longest ** v.shape[1]
        if not np.isfinite(scale):
            raise DimensionMismatch(
                "simplex too large for floating point: "
                "max edge length ^ n overflows")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "_longest", float(longest))

    @property
    def dimension(self):
        return self.vertices.shape[1]

    def max_edge_length(self):
        return self._longest


def unit_simplex(n):
    """Vertices at the origin and the standard basis vectors."""
    v = np.zeros((n + 1, n))
    v[1:] = np.eye(n)
    return Simplex(v)


def edge_matrix(s):
    """Columns p_i - p_0, i = 1..n."""
    v = s.vertices
    return (v[1:] - v[0]).T


def barycenter(s):
    return s.vertices.mean(axis=0)


def check_det(s, absdet):
    """Return |det E|, or raise DegenerateSimplex if it is at most
    EPS_GEOM * (max edge length)^n."""
    if absdet <= EPS_GEOM * s.max_edge_length() ** s.dimension:
        raise DegenerateSimplex(f"|det E| = {absdet:g} below threshold")
    return absdet


def abs_det(s):
    """|det E|, strictly positive for non-degenerate input."""
    return check_det(
        s, abs(float(np.linalg.det(s.vertices[1:] - s.vertices[0]))))


def volume(s):
    """|det E| / n!, strictly positive for non-degenerate input."""
    return abs_det(s) / math.factorial(s.dimension)


@dataclass(frozen=True)
class AffineChart:
    """x = origin + E u maps the unit simplex onto the physical one."""

    origin: np.ndarray
    matrix: np.ndarray
    abs_det: float

    def to_physical(self, u):
        return self.origin + self.matrix @ np.asarray(u, dtype=float)

    def to_reference(self, x):
        return np.linalg.solve(self.matrix,
                               np.asarray(x, dtype=float) - self.origin)


def chart(s):
    e = edge_matrix(s)
    return AffineChart(origin=s.vertices[0].copy(), matrix=e,
                       abs_det=check_det(s, abs(np.linalg.det(e))))


@functools.lru_cache(maxsize=None)
def _edge_pairs(k):
    """Vertex index pairs (i, j), i < j, of k vertices, lexicographic."""
    return np.triu_indices(k, 1)


def edge_lengths_sq(v):
    """Squared length of every edge of each simplex in v (..., n+1, n),
    edges in lexicographic vertex-pair order."""
    i, j = _edge_pairs(v.shape[-2])
    diff = v[..., i, :] - v[..., j, :]
    return np.sum(diff * diff, axis=-1)


def split(v):
    """Halves (left, right, ...) of each simplex in v (m, n+1, n), cut at
    the midpoint of its first longest edge; children keep vertex order."""
    edge_i, edge_j = _edge_pairs(v.shape[1])
    longest = np.argmax(edge_lengths_sq(v), axis=1)
    i, j = edge_i[longest], edge_j[longest]
    rows = np.arange(len(v))
    mid = 0.5 * (v[rows, i] + v[rows, j])
    children = np.repeat(v, 2, axis=0)
    children[2 * rows, j] = mid
    children[2 * rows + 1, i] = mid
    return children


def bisect(s):
    """Split at the midpoint of a longest edge; children keep vertex order."""
    volume(s)  # reject degenerate input
    left, right = split(s.vertices[None])
    return Simplex(left), Simplex(right)


def barycentric_lattice(n, resolution):
    """All barycentric weight vectors with coordinates k/resolution.

    Yields arrays of length n+1 covering the mesh-1/resolution lattice of
    an n-simplex, vertices and faces included.
    """
    for comp in _compositions(resolution, n + 1):
        yield np.array(comp, dtype=float) / resolution


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def lattice_points(s, resolution):
    """Physical lattice points of mesh 1/resolution on the simplex."""
    weights = np.array(list(barycentric_lattice(s.dimension, resolution)))
    return weights @ s.vertices


def load_simplex(path):
    """One vertex per line, whitespace-separated decimals."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                rows.append([float(tok) for tok in text.split()])
            except ValueError as exc:
                raise ParseError(f"bad vertex line: {exc}", line=lineno)
    if not rows:
        raise ParseError("empty simplex file", line=1)
    n = len(rows[0])
    if any(len(r) != n for r in rows) or len(rows) != n + 1:
        raise ParseError(
            f"expected {n + 1} vertices of {n} coordinates", line=len(rows))
    return Simplex(np.array(rows))
