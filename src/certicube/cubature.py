"""Positive cubature rules in barycentric coordinates.

Stored weights represent the mean-value functional (they sum to 1);
applying a rule multiplies by vol(S), so one rule serves every simplex
of its dimension. A rule is two read-only float arrays; save_rule writes
decimals that load_rule reads back as the same floats.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import field as field_mod
from . import geometry
from .errors import (DimensionMismatch, InvariantViolation, ParseError,
                     UnknownRule)

TOL = 1e-12

BUILTIN_NAMES = ("barycenter", "vertex", "hh-mix-2d")


@dataclass(frozen=True)
class CubatureRule:
    """Nodes as barycentric coordinate vectors plus mean-value weights.

    Construction enforces the structural invariants (coordinates >= 0
    and summing to 1, weights summing to 1); weight positivity is
    reported by verify() rather than enforced here, so defective rules
    can be inspected.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    provenance: str = "unnamed"

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        n = self.dimension
        if nodes.ndim != 2 or nodes.shape[1] != n + 1:
            raise InvariantViolation(
                f"nodes must be (m, {n + 1}) barycentric vectors")
        if weights.shape != (nodes.shape[0],):
            raise InvariantViolation("one weight per node required")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise InvariantViolation("non-finite node or weight")
        # The first bad node raises; at that node a negative coordinate
        # is named ahead of its sum.
        negative = (nodes < -TOL).any(axis=1)
        sums = nodes.sum(axis=1)
        for k in np.flatnonzero(negative | (np.abs(sums - 1.0) > TOL)):
            if negative[k]:
                raise InvariantViolation(
                    f"negative barycentric coordinate at node {k}")
            raise InvariantViolation(
                f"barycentric sum {float(sums[k])!r} != 1 at node {k}")
        wsum = float(weights.sum())
        if abs(wsum - 1.0) > TOL:
            raise InvariantViolation(f"weights sum {wsum:g} != 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @functools.cached_property
    def report(self):
        """The verify() report, computed on first use."""
        return _verify(self)


@dataclass(frozen=True)
class RuleReport:
    positivity: bool
    barycenter_ok: bool
    exactness_degree: int
    residuals: Mapping  # multi-index -> |T(x^alpha) - mean moment|
    hh_applicable: bool
    thm2_applicable: bool


class Residuals(Mapping):
    """A report's residuals, read-only: Cartesian multi-index alpha (n
    counts, |alpha| <= 2) -> |T(x^alpha) - mean moment|, by degree, then
    by the axes in lexicographic order. Only the floats are kept; a key is
    built when it is read or iterated, so max(residuals.values()) builds
    none (at n = 150 the keys are 11,476 tuples of 150 counts)."""

    __slots__ = ("_n", "_values")

    def __init__(self, n, values):
        self._n, self._values = n, values

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        n = self._n
        yield (0,) * n
        for i in range(n):
            yield (0,) * i + (1,) + (0,) * (n - 1 - i)
        for i in range(n):
            for j in range(i, n):
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                yield tuple(alpha)

    def __getitem__(self, alpha):
        n = self._n
        if not isinstance(alpha, tuple) or len(alpha) != n:
            raise KeyError(alpha)
        axes = [i for i, count in enumerate(alpha) if count]
        counts = [alpha[i] for i in axes]
        if counts == []:
            return self._values[0]
        if counts == [1]:
            return self._values[1 + axes[0]]
        if counts == [2] or counts == [1, 1]:
            i, j = axes[0], axes[-1]
            return self._values[1 + n + i * n - i * (i - 1) // 2 + j - i]
        raise KeyError(alpha)

    def values(self):
        return _ResidualValues(self)

    def __repr__(self):
        return repr(dict(self))


class _ResidualValues(ValuesView):
    """The values of Residuals, read without their keys."""

    def __iter__(self):
        return iter(self._mapping._values)


@functools.lru_cache(maxsize=None)
def builtin(name, n):
    """Built-in rules: barycenter, vertex, and the 4-point 2-D mix.

    Rules are immutable, so each (name, n) is built once and shared.
    """
    if name == "barycenter":
        return CubatureRule(n, np.full((1, n + 1), 1 / (n + 1)), np.ones(1),
                            "barycenter")
    if name == "vertex":
        return CubatureRule(n, np.eye(n + 1), np.full(n + 1, 1 / (n + 1)),
                            "vertex")
    if name == "hh-mix-2d":
        if n != 2:
            raise DimensionMismatch(f"hh-mix-2d requires n=2, got {n}")
        nodes = np.vstack((np.eye(3), np.full((1, 3), 1 / 3)))
        # Printed integral weights 1/24, 1/24, 1/24, 3/8 sum to vol = 1/2;
        # mean-value normalization divides them out.
        return CubatureRule(2, nodes, [1 / 12] * 3 + [3 / 4], "hh-mix-2d")
    raise UnknownRule(f"no built-in rule named {name!r}")


def verify(rule):
    """Check positivity, the barycenter condition, and exactness <= 2.

    On the unit simplex x_i = lambda_i (i >= 1), and the means of
    lambda_i and lambda_i lambda_j are 1/(n+1) and
    (1 + [i=j]) / ((n+1)(n+2)) in every dimension. The rule's weighted
    first-moment vector gives the barycenter condition and the degree-1
    residuals, its weighted second-moment matrix the degree-2 ones, each
    against its closed form rounded once, absolute tolerance TOL;
    residuals are keyed by Cartesian multi-index (Residuals). The report
    is computed once per rule and kept on it: a rule and its arrays are
    immutable, so it cannot go stale.
    """
    return rule.report


def _verify(rule):
    n = rule.dimension
    w, lam = rule.weights, rule.nodes
    first = np.abs(w @ lam - 1 / (n + 1))
    second = np.abs((w * lam.T) @ lam
                    - (1 + np.eye(n + 1)) / ((n + 1) * (n + 2)))
    rows, cols = np.triu_indices(n)
    linear, quadratic = first[1:], second[1:, 1:][rows, cols]

    # Degree 0 holds: the constructor checks this same weight sum.
    residuals = Residuals(n, [abs(float(w.sum()) - 1.0), *linear.tolist(),
                              *quadratic.tolist()])
    positivity = bool(np.all(w >= 0.0))
    barycenter_ok = bool(first.max() <= TOL)
    exactness = (0 if linear.max() > TOL
                 else 1 if quadratic.max() > TOL else 2)
    return RuleReport(
        positivity=positivity,
        barycenter_ok=barycenter_ok,
        exactness_degree=exactness,
        residuals=residuals,
        hh_applicable=positivity and barycenter_ok,
        thm2_applicable=positivity and exactness >= 2,
    )


def check_dimension(rule, n):
    """DimensionMismatch unless the rule is for n-simplices."""
    if rule.dimension != n:
        raise DimensionMismatch(
            f"rule dimension {rule.dimension} vs simplex {n}")


@np.errstate(all="ignore")  # the values and the result are checked
def estimate(rule, f, W, vol):
    """vol * sum of weight * f(node) on each cell of the batch W, with one
    field.checked_values call over every node of every cell, under one
    np.errstate with the weighted sum (as field.evaluate_batch enters
    it); may overflow to inf, which a CertifiedResult then rejects."""
    check_dimension(rule, len(W) - 1)
    values = field_mod.checked_values(f, geometry.points(rule.nodes, W))
    return vol * (rule.weights @ values.reshape(len(rule.weights), -1))


def apply_rule(rule, f, s):
    """vol(S) * sum of weight * f(node point)."""
    return float(estimate(rule, f, s.batch()[0], geometry.volume(s))[0])


def _parse_number(token, lineno):
    """The nearest float, via a Fraction: p/q rounds once, inf and nan fail."""
    try:
        return float(Fraction(token if "/" in token else float(token)))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad number {token!r}: {exc}", line=lineno)


def load_rule(path):
    """Line-oriented rule file; p/q is read as its nearest float."""
    lines = geometry.read_lines(path)
    cursor = 0

    def take(what):
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError(f"unexpected end of file, expected {what}",
                             line=lines[-1][0] if lines else None)
        item = lines[cursor]
        cursor += 1
        return item

    def header(word, count):
        lineno, head = take(f"{word} header")
        parts = head.split()
        number = parts[1] if len(parts) == 2 and parts[0] == word else ""
        if not (number.isascii() and number.isdigit() and int(number) > 0):
            raise ParseError(f"expected '{word} {count}' with {count} >= 1, "
                             f"got {head!r}", line=lineno)
        return int(number)

    n, m = header("dim", "n"), header("nodes", "m")

    nodes = []
    for k in range(m):
        lineno, text = take(f"node {k}")
        coords = [_parse_number(tok, lineno) for tok in text.split()]
        if len(coords) != n + 1:
            raise ParseError(
                f"node {k} has {len(coords)} coordinates, expected {n + 1}",
                line=lineno)
        nodes.append(coords)
    weights = []
    for k in range(m):
        lineno, text = take(f"weight {k}")
        values = [_parse_number(tok, lineno) for tok in text.split()]
        if len(values) != 1:
            raise ParseError(f"expected one weight, found {len(values)}",
                             line=lineno)
        weights.append(values[0])
    if cursor < len(lines):
        lineno, text = lines[cursor]
        raise ParseError(f"unexpected line after the last weight: {text!r}",
                         line=lineno)

    # The constructor checks the nodes and the weight sum; it leaves
    # weight signs to verify(), but a rule file must not have negatives.
    for k, weight in enumerate(weights):
        if weight < 0:
            raise InvariantViolation(f"negative weight at node {k}")
    return CubatureRule(n, np.array(nodes), np.array(weights), str(path))


def save_rule(rule, path):
    """Write each entry as repr of its float, the shortest decimal that
    load_rule reads back as the same bits (but -0.0 as 0.0)."""
    with open(path, "w") as fh:
        fh.write(f"# cubature rule: {rule.provenance}\n")
        fh.write(f"dim {rule.dimension}\n")
        fh.write(f"nodes {len(rule.weights)}\n")
        for node in rule.nodes.tolist():
            fh.write(" ".join(map(repr, node)) + "\n")
        for weight in rule.weights.tolist():
            fh.write(f"{weight!r}\n")
