"""Positive cubature rules in barycentric coordinates.

Stored weights represent the mean-value functional (they sum to 1);
applying a rule multiplies by vol(S), so one rule serves every simplex
of its dimension.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import field as field_mod
from . import geometry, moments
from .errors import (DimensionMismatch, InvariantViolation, ParseError,
                     UnknownRule)

STRUCTURAL_TOL = 1e-12
EXACTNESS_TOL = 1e-12

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
    nodes_exact: Optional[tuple] = None
    weights_exact: Optional[tuple] = None

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        n = self.dimension
        if nodes.ndim != 2 or nodes.shape[1] != n + 1:
            raise InvariantViolation(
                f"nodes must be (m, {n + 1}) barycentric vectors")
        if weights.shape != (nodes.shape[0],):
            raise InvariantViolation("one weight per node required")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise InvariantViolation("non-finite node or weight")
        for k, node in enumerate(nodes):
            if np.any(node < -STRUCTURAL_TOL):
                raise InvariantViolation(
                    f"negative barycentric coordinate at node {k}")
            total = float(node.sum())
            if abs(total - 1.0) > STRUCTURAL_TOL:
                raise InvariantViolation(
                    f"barycentric sum {total!r} != 1 at node {k}")
        wsum = float(weights.sum())
        if abs(wsum - 1.0) > STRUCTURAL_TOL:
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
    residuals: dict  # multi-index -> |T(x^alpha) - mean moment|
    hh_applicable: bool
    thm2_applicable: bool


@functools.lru_cache(maxsize=None)
def builtin(name, n):
    """Built-in rules: barycenter, vertex, and the 4-point 2-D mix.

    Rules are immutable, so each (name, n) is built once and shared.
    """
    if name == "barycenter":
        node = (Fraction(1, n + 1),) * (n + 1)
        return _exact_rule(n, [node], [Fraction(1)], "barycenter")
    if name == "vertex":
        nodes = [tuple(Fraction(1) if j == i else Fraction(0)
                       for j in range(n + 1)) for i in range(n + 1)]
        weights = [Fraction(1, n + 1)] * (n + 1)
        return _exact_rule(n, nodes, weights, "vertex")
    if name == "hh-mix-2d":
        if n != 2:
            raise DimensionMismatch(f"hh-mix-2d requires n=2, got {n}")
        third = Fraction(1, 3)
        nodes = [(Fraction(1), Fraction(0), Fraction(0)),
                 (Fraction(0), Fraction(1), Fraction(0)),
                 (Fraction(0), Fraction(0), Fraction(1)),
                 (third, third, third)]
        # Printed integral weights 1/24, 1/24, 1/24, 3/8 sum to vol = 1/2;
        # mean-value normalization divides them out.
        weights = [Fraction(1, 12)] * 3 + [Fraction(3, 4)]
        return _exact_rule(2, nodes, weights, "hh-mix-2d")
    raise UnknownRule(f"no built-in rule named {name!r}")


def _exact_rule(n, nodes, weights, provenance):
    return CubatureRule(
        dimension=n,
        nodes=np.array([[float(c) for c in node] for node in nodes]),
        weights=np.array([float(w) for w in weights]),
        provenance=provenance,
        nodes_exact=tuple(tuple(node) for node in nodes),
        weights_exact=tuple(weights),
    )


def _multi_indices(n, max_degree):
    for degree in range(max_degree + 1):
        for alpha in itertools.combinations_with_replacement(range(n), degree):
            index = [0] * n
            for axis in alpha:
                index[axis] += 1
            yield tuple(index)


def verify(rule):
    """Check positivity, the barycenter condition, and exactness <= 2.

    Exactness compares T(x^alpha) on the unit simplex against the
    mean-value moments n! * int_{S1} x^alpha dx, absolute tolerance
    1e-12 per monomial. The report is computed once per rule and kept
    on it: a rule and its arrays are immutable, so it cannot go stale.
    """
    return rule.report


def _verify(rule):
    n = rule.dimension
    positivity = bool(np.all(rule.weights >= 0.0))
    node_mean = rule.weights @ rule.nodes
    barycenter_ok = bool(
        np.max(np.abs(node_mean - 1.0 / (n + 1))) <= STRUCTURAL_TOL)

    # Cartesian coordinates of nodes on S1 (vertex 0 at the origin).
    cart = rule.nodes[:, 1:]
    nfact = math.factorial(n)
    residuals = {}
    degree_ok = {0: True, 1: True, 2: True}
    for alpha in _multi_indices(n, 2):
        t_val = float(rule.weights @ np.prod(cart ** np.array(alpha), axis=1))
        mean = nfact * moments.monomial_moment(n, alpha)
        residual = abs(t_val - mean)
        residuals[alpha] = residual
        if residual > EXACTNESS_TOL:
            degree_ok[sum(alpha)] = False
    if degree_ok[0] and degree_ok[1] and degree_ok[2]:
        exactness = 2
    elif degree_ok[0] and degree_ok[1]:
        exactness = 1
    else:
        exactness = 0  # degree 0 holds by the weight-sum invariant
    return RuleReport(
        positivity=positivity,
        barycenter_ok=barycenter_ok,
        exactness_degree=exactness,
        residuals=residuals,
        hh_applicable=positivity and barycenter_ok,
        thm2_applicable=positivity and exactness >= 2,
    )


def estimate(rule, f, v, vol):
    """vol * sum of weight * f(node) on each simplex of v (m, n+1, n),
    with one evaluate_batch call over every node of every simplex."""
    if rule.dimension != v.shape[-1]:
        raise DimensionMismatch(
            f"rule dimension {rule.dimension} vs simplex {v.shape[-1]}")
    values = field_mod.evaluate_batch(
        f, (rule.nodes @ v).reshape(-1, rule.dimension))
    with np.errstate(over="ignore"):  # CertifiedResult rejects inf
        return vol * (values.reshape(len(v), -1) @ rule.weights)


def apply_rule(rule, f, s):
    """vol(S) * sum of weight * f(node point)."""
    return float(estimate(rule, f, s.vertices[None], geometry.volume(s))[0])


def _parse_number(token, lineno):
    try:
        if "/" in token:
            return Fraction(token)
        return Fraction(float(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {token!r}: {exc}", line=lineno)


def load_rule(path):
    """Line-oriented rule file; fractions p/q are parsed exactly."""
    lines = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                lines.append((lineno, text))
    cursor = 0

    def take(what):
        nonlocal cursor
        if cursor >= len(lines):
            raise ParseError(f"unexpected end of file, expected {what}",
                             line=lines[-1][0] if lines else 1)
        item = lines[cursor]
        cursor += 1
        return item

    lineno, head = take("dim header")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError(f"expected 'dim n', got {head!r}", line=lineno)
    n = int(parts[1])
    lineno, head = take("nodes header")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "nodes":
        raise ParseError(f"expected 'nodes m', got {head!r}", line=lineno)
    m = int(parts[1])

    nodes_exact = []
    for k in range(m):
        lineno, text = take(f"node {k}")
        coords = [_parse_number(tok, lineno) for tok in text.split()]
        if len(coords) != n + 1:
            raise ParseError(
                f"node {k} has {len(coords)} coordinates, expected {n + 1}",
                line=lineno)
        nodes_exact.append(tuple(coords))
    weights_exact = []
    for k in range(m):
        lineno, text = take(f"weight {k}")
        values = [_parse_number(tok, lineno) for tok in text.split()]
        if len(values) != 1:
            raise ParseError(f"expected one weight on line", line=lineno)
        weights_exact.append(values[0])

    # The constructor checks the nodes and the weight sum; it leaves
    # weight signs to verify(), but a rule file must not have negatives.
    for k, weight in enumerate(weights_exact):
        if float(weight) < 0:
            raise InvariantViolation(f"negative weight at node {k}")
    return CubatureRule(
        dimension=n,
        nodes=np.array([[float(c) for c in node] for node in nodes_exact]),
        weights=np.array([float(w) for w in weights_exact]),
        provenance=str(path),
        nodes_exact=tuple(nodes_exact),
        weights_exact=tuple(weights_exact),
    )


def save_rule(rule, path):
    """Write a rule back out; exact fractions are kept when available."""
    def fmt(exact, value):
        if exact is not None:
            return str(exact)
        return repr(float(value))

    with open(path, "w") as fh:
        fh.write(f"# cubature rule: {rule.provenance}\n")
        fh.write(f"dim {rule.dimension}\n")
        fh.write(f"nodes {len(rule.weights)}\n")
        for k, node in enumerate(rule.nodes):
            exact = rule.nodes_exact[k] if rule.nodes_exact else None
            fh.write(" ".join(
                fmt(exact[j] if exact else None, c)
                for j, c in enumerate(node)) + "\n")
        for k, weight in enumerate(rule.weights):
            exact = rule.weights_exact[k] if rule.weights_exact else None
            fh.write(fmt(exact, weight) + "\n")
