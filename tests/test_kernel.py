"""Property tests for the one-shot certificates on the batched kernel.

volume, central_second_moment, chart, apply_rule, midpoint_bound,
rule_bound and hh_sandwich are checked on random and near-degenerate
simplices in dimensions 1-4 against closed forms evaluated exactly, in
rational arithmetic, on the float inputs. Errors are allowed a few ulps,
scaled by the condition number of the edge matrix (LU determinants are
backward stable) and, for estimates, by the magnitude of the quadratic's
terms.
"""

import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from certicube import bounds, cubature, geometry, moments
from certicube.cubature import CubatureRule
from certicube.errors import DegenerateSimplex
from certicube.field import ScalarField

from util import vertices_plus_barycenter_rule

EPS = np.finfo(float).eps
# Geometry within ULPS * eps * (1 + cond E) relative; estimates within
# ULPS * eps * (1 + cond E) * (sum of |term| of f over |x| <= max |v|).
ULPS = 32
# Exact |det E| / threshold outside [1/MARGIN, MARGIN] decides whether a
# simplex must be accepted or rejected; in between, a near-singular LU
# may land on either side.
MARGIN = 2


class CountingQuadratic:
    """c + b.x + x^T A x that records the shape of every call."""

    def __init__(self, c, b, a):
        self.c, self.b, self.a = c, b, a
        self.shapes = []

    def __call__(self, x):
        self.shapes.append(np.shape(x))
        return self.c + x @ self.b + np.sum((x @ self.a) * x, axis=-1)

    def exact(self, x):
        n = len(x)
        return (Q(self.c) + sum(Q(self.b[i]) * x[i] for i in range(n))
                + sum(Q(self.a[i, j]) * x[i] * x[j]
                      for i in range(n) for j in range(n)))

    def magnitude(self, radius):
        return (abs(self.c) + np.sum(np.abs(self.b)) * radius
                + np.sum(np.abs(self.a)) * radius * radius)


def _det(rows):
    """Exact determinant by fraction-valued elimination."""
    rows = [list(r) for r in rows]
    det = Q(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Q(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            ratio = rows[i][k] / rows[k][k]
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[k])]
    return det


def _exact_geometry(v):
    """Exact (vol, moment, squared max edge) of the float vertices v.

    int_S ||x - pbar||^2 dx = vol / ((n+1)(n+2)) sum_i ||v_i - pbar||^2.
    """
    n = v.shape[1]
    rows = [[Q(float(t)) for t in row] for row in v]
    vol = abs(_det([[p - o for p, o in zip(r, rows[0])]
                    for r in rows[1:]])) / math.factorial(n)
    centre = [sum(r[k] for r in rows) / (n + 1) for k in range(n)]
    spread = sum((r[k] - centre[k]) ** 2 for r in rows for k in range(n))
    max_edge_sq = max(sum((a - b) ** 2 for a, b in zip(p, q))
                      for p in rows for q in rows)
    return vol, vol * spread / ((n + 1) * (n + 2)), max_edge_sq


def _exact_rule(rule, f, v, vol):
    rows = [[Q(float(t)) for t in row] for row in v]
    n = v.shape[1]
    total = Q(0)
    for weight, node in zip(rule.weights, rule.nodes):
        point = [sum(Q(float(node[i])) * rows[i][k] for i in range(n + 1))
                 for k in range(n)]
        total += Q(float(weight)) * f.exact(point)
    return vol * total


def _close(got, exact, scale):
    assert abs(float(Q(float(got)) - exact)) <= scale, (
        got, float(exact), scale)


@st.composite
def problems(draw):
    """(vertices, quadratic): a random simplex, squashed towards a facet
    by a factor down to 1e-16 half of the time, and a random quadratic."""
    n = draw(st.integers(1, 4))
    coords = st.floats(-4.0, 4.0).map(lambda t: 0.0 if abs(t) < 1e-6 else t)
    v = draw(arrays(np.float64, (n + 1, n), elements=coords))
    if draw(st.booleans()):
        # Vertex n moves towards the centroid of the others: det E is
        # scaled by the factor while the facet stays as it is.
        centre = v[:n].mean(axis=0)
        v[n] = centre + 10.0 ** draw(st.floats(-16.0, 0.0)) * (v[n] - centre)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-2.0, 2.0, size=(n, n))
    f = CountingQuadratic(float(rng.uniform(-2.0, 2.0)),
                          rng.uniform(-2.0, 2.0, size=n), 0.5 * (a + a.T))
    return v, f


def _certificates(f, s, k):
    """Every one-shot entry point on one simplex, by name."""
    n = s.dimension
    rule = vertices_plus_barycenter_rule(n)
    return {
        "volume": lambda: geometry.volume(s),
        "moment": lambda: moments.central_second_moment(s),
        "chart": lambda: geometry.chart(s),
        "apply_rule": lambda: cubature.apply_rule(rule, f, s),
        "midpoint": lambda: bounds.midpoint_bound(f, s, k),
        "rule": lambda: bounds.rule_bound(rule, f, s, k),
        "barycenter": lambda: bounds.rule_bound(
            cubature.builtin("barycenter", n), f, s, k),
        "sandwich": lambda: bounds.hh_sandwich(f, s),
    }


@settings(max_examples=300, deadline=None)
@given(problems())
def test_one_shot_paths_match_closed_forms(problem):
    v, f = problem
    s = geometry.Simplex(v)
    n = s.dimension
    vol, moment, max_edge_sq = _exact_geometry(v)
    # (|det E| / (EPS_GEOM * max edge^n))^2, exactly.
    ratio_sq = ((vol * math.factorial(n)) ** 2
                / (Q(geometry.EPS_GEOM) ** 2 * max_edge_sq ** n)
                if max_edge_sq else 0)
    calls = _certificates(ScalarField(n, f, supports_batch=True), s, 1.5)
    if ratio_sq < Q(1, MARGIN ** 2):
        for call in calls.values():
            with pytest.raises(DegenerateSimplex):
                call()
        return
    if ratio_sq <= MARGIN ** 2:
        return

    cond = np.linalg.cond(v[1:] - v[0])
    geom = ULPS * EPS * (1.0 + cond)
    _close(calls["volume"](), vol, geom * vol)
    _close(calls["moment"](), moment, geom * moment)
    _close(calls["chart"]().abs_det, vol * math.factorial(n),
           geom * vol * math.factorial(n))

    size = f.magnitude(float(np.max(np.abs(v))))
    est = geom * size * float(vol)
    rule = vertices_plus_barycenter_rule(n)
    bary = cubature.builtin("barycenter", n)
    vertex = cubature.builtin("vertex", n)
    exact_rule = _exact_rule(rule, f, v, vol)

    del f.shapes[:]
    _close(calls["apply_rule"](), exact_rule, est)
    midpoint = calls["midpoint"]()
    _close(midpoint.estimate, _exact_rule(bary, f, v, vol), est)
    _close(midpoint.radius, 0.75 * moment, geom * moment)
    result = calls["rule"]()
    _close(result.estimate, exact_rule, est)
    _close(result.radius, 1.5 * moment, geom * moment)
    sandwich = calls["sandwich"]()
    _close(sandwich.lower, _exact_rule(bary, f, v, vol), est)
    _close(sandwich.upper, _exact_rule(vertex, f, v, vol), est)
    # One batched integrand call per certificate, over all of its nodes.
    assert f.shapes == [(n + 2, n), (1, n), (n + 2, n), (n + 2, n)]
    # The barycenter rule gets the midpoint certificate, bit for bit.
    assert calls["barycenter"]() == midpoint


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degenerate_threshold_is_eps_times_max_edge_to_the_n(n):
    # Facet 0, 8 e_1, ..., 8 e_{n-1} and an apex at height h over its
    # centroid: |det E| = 8^(n-1) h, and the longest edge lies in the
    # facet. (A segment is never degenerate: |det E| is its length.)
    longest = 8.0 if n == 2 else 8.0 * math.sqrt(2.0)
    threshold = geometry.EPS_GEOM * longest ** n
    v = np.vstack([np.zeros(n), 8.0 * np.eye(n)])
    v[n] = v[:n].mean(axis=0)
    f = ScalarField(n, CountingQuadratic(1.0, np.ones(n), np.eye(n)),
                    supports_batch=True)
    for factor in (2.0, 0.5):
        v[n, n - 1] = factor * threshold / 8.0 ** (n - 1)
        s = geometry.Simplex(v)
        assert s.max_edge_length() == longest
        for call in _certificates(f, s, 1.0).values():
            if factor > 1:
                call()
            else:
                with pytest.raises(DegenerateSimplex):
                    call()


@pytest.mark.parametrize("rule", [
    cubature.builtin("barycenter", 3), cubature.builtin("vertex", 2),
    cubature.builtin("hh-mix-2d", 2), vertices_plus_barycenter_rule(4)],
    ids=lambda r: r.provenance)
def test_cached_rule_report_equals_a_fresh_verify(rule):
    report = cubature.verify(rule)
    assert cubature.verify(rule) is report
    fresh = CubatureRule(dimension=rule.dimension, nodes=rule.nodes.copy(),
                         weights=rule.weights.copy(),
                         provenance=rule.provenance)
    assert cubature.verify(fresh) is not report
    assert cubature.verify(fresh) == report


def test_builtin_rules_are_shared():
    assert cubature.builtin("barycenter", 2) is cubature.builtin(
        "barycenter", 2)
    with pytest.raises(ValueError):
        cubature.builtin("vertex", 2).weights[0] = 0.5
