"""Shared random generators and small oracles for the test suite."""

import functools
import heapq
import itertools
import math
import operator
from dataclasses import replace

import mpmath
import numpy as np

from certicube import cubature, field, geometry, moments, qform
from certicube.adaptive import integrate_adaptive
from certicube.errors import BudgetExhausted
from certicube.field import ScalarField
from certicube.geometry import Simplex
from certicube.qform import QuadraticForm


def rand_simplex(rng, n, scale=1.0):
    """Random non-degenerate simplex with vertices in [-scale, scale]^n."""
    while True:
        vertices = rng.uniform(-scale, scale, size=(n + 1, n))
        edges = vertices[1:] - vertices[0]
        max_edge = max(np.linalg.norm(vertices[i] - vertices[j])
                       for i in range(n + 1) for j in range(i + 1, n + 1))
        if abs(np.linalg.det(edges)) > 0.05 * max_edge ** n:
            return Simplex(vertices)


def rand_symmetric_form(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return QuadraticForm(0.5 * (a + a.T))


def rand_psd_form(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return QuadraticForm(a @ a.T)


def quadratic_terms(c, b, phi):
    """PolynomialField terms of c + b.x + x^T A x (phi = A, or None)."""
    n = len(b)
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    terms = {(0,) * n: float(c)}
    terms.update((unit[i], float(b[i])) for i in range(n))
    if phi is not None:
        a = phi.coeffs
        for i in range(n):
            for j in range(i, n):
                alpha = tuple(p + q for p, q in zip(unit[i], unit[j]))
                terms[alpha] = float(a[i, j] + a[j, i] if i != j else a[i, i])
    return terms


def rand_convex_quadratic(rng, n):
    """(field, (c, b, phi)) with phi positive semi-definite."""
    c = float(rng.uniform(-1, 1))
    b = rng.uniform(-1, 1, size=n)
    phi = rand_psd_form(rng, n)
    return polynomial_field(n, quadratic_terms(c, b, phi)), (c, b, phi)


class PolynomialField:
    """Multivariate polynomial from a {multi-index: coefficient} dict,
    with the analytic Hessian differentiated term by term."""

    def __init__(self, n, terms):
        self.dimension = n
        self.terms = dict(terms)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = 0.0
        for alpha, coef in self.terms.items():
            term = coef
            for i, power in enumerate(alpha):
                if power:
                    term = term * x[..., i] ** power
            total = total + term
        return total

    def hessians(self, points):
        """Symmetric Hessians (m, n, n) at points (m, n)."""
        u = np.asarray(points, dtype=float)
        n = self.dimension
        h = np.zeros(u.shape[:-1] + (n, n))
        for alpha, coef in self.terms.items():
            for i in range(n):
                for j in range(n):
                    beta = list(alpha)
                    factor = coef * beta[i]
                    if factor == 0:
                        continue
                    beta[i] -= 1
                    factor *= beta[j]
                    if factor == 0:
                        continue
                    beta[j] -= 1
                    term = factor
                    for k, power in enumerate(beta):
                        if power:
                            term = term * u[..., k] ** power
                    h[..., i, j] += term
        return 0.5 * (h + np.swapaxes(h, -1, -2))


def polynomial_field(n, terms):
    """ScalarField of a PolynomialField, with its analytic Hessian."""
    poly = PolynomialField(n, terms)
    return ScalarField(
        dimension=n, evaluator=poly, hessian=poly.hessians)


def rand_polynomial_field(rng, n, max_degree=4):
    """Random dense polynomial of total degree <= max_degree."""
    terms = {}
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(n), degree):
            alpha = [0] * n
            for axis in combo:
                alpha[axis] += 1
            terms[tuple(alpha)] = float(rng.uniform(-1, 1))
    return polynomial_field(n, terms)


def vertices_plus_barycenter_rule(n):
    """Positive degree-2 exact rule in any dimension: the n+1 vertices
    with weight 1/((n+1)(n+2)) plus the barycenter with (n+1)/(n+2)."""
    from fractions import Fraction

    from certicube.cubature import CubatureRule

    lam_v = Fraction(1, (n + 1) * (n + 2))
    lam_c = Fraction(n + 1, n + 2)
    nodes = [[1.0 if j == i else 0.0 for j in range(n + 1)]
             for i in range(n + 1)]
    nodes.append([1.0 / (n + 1)] * (n + 1))
    weights = [float(lam_v)] * (n + 1) + [float(lam_c)]
    return CubatureRule(dimension=n, nodes=np.array(nodes),
                        weights=np.array(weights),
                        provenance=f"vertices+barycenter-{n}d")


def mc_integral(rng, s, func, samples):
    """Monte Carlo integral of func (maps (m, n) points to (m,) values)
    over s: (mean, standard error). Barycentric weights from normalized
    exponential spacings make the points uniform on the simplex."""
    gaps = rng.standard_exponential((samples, s.dimension + 1))
    bary = gaps / gaps.sum(axis=1, keepdims=True)
    points = bary @ s.vertices
    values = func(points)
    edges = s.vertices[1:] - s.vertices[0]
    vol = abs(np.linalg.det(edges)) / math.factorial(s.dimension)
    mean = vol * float(values.mean())
    se = vol * float(values.std(ddof=1)) / math.sqrt(samples)
    return mean, se


def refine_steps(f, s, cfg, steps, diagnostics=None):
    """Run exactly ``steps`` bisections and return the partial result:
    the tolerance is made unreachable and the cell budget caps the run."""
    capped = replace(cfg, tolerance=np.finfo(float).tiny,
                     max_cells=steps + 1)
    try:
        integrate_adaptive(f, s, capped, diagnostics=diagnostics)
    except BudgetExhausted as exc:
        return exc.result
    raise AssertionError("capped run should exhaust its budget")


def barycenter(simplex):
    """The midpoint rule's node on simplex, as integrate_adaptive maps it."""
    return geometry.points(cubature.builtin("barycenter", simplex.dimension)
                           .nodes, simplex.batch()[0])[0]


def centered_k(f, simplex, resolution):
    """(A, K) of one simplex, a point at a time: A the Hessian at its
    barycenter, and K the largest operator norm of D^2 f - A at the
    barycenter and on the lattice of mesh 1/resolution."""
    pbar = barycenter(simplex)
    a = field.hessian_at(f, pbar).coeffs
    k = max(qform.operator_norm(QuadraticForm(field.hessian_at(f, p).coeffs
                                              - a))
            for p in [pbar, *geometry.lattice_points(simplex, resolution)])
    return a, k


def heap_integrate(f, s, tol, rule=None, K=None, k_resolution=4,
                   max_cells=10 ** 6, max_depth=60):
    """Reference greedy refinement, one max-heap pop per bisection.

    Pops the largest radius (the oldest cell on ties) and stops in the
    same order of checks as integrate_adaptive. Without K, each cell is
    centered, one cell at a time: A is the Hessian at its barycenter
    pbar, K is the largest operator norm of D^2 f - A at pbar and on its
    lattice, and a midpoint estimate adds the integral of
    q_A(x) = (x - pbar)^T A (x - pbar) / 2 (moments.integrate_poly2).
    Returns (estimate, radius, cells, depth histogram, stop) with stop
    one of "tol", "max_depth" or "max_cells".
    """
    def make(simplex, depth):
        vol = geometry.volume(simplex)
        pbar = barycenter(simplex)
        if rule is None:
            est = vol * field.evaluate(f, pbar)
        else:
            values = field.evaluate_batch(f, rule.nodes @ simplex.vertices)
            est = vol * math.fsum(rule.weights * values)
        k = K
        if K is None:
            a, k = centered_k(f, simplex, k_resolution)
            if rule is None:
                est += moments.integrate_poly2(
                    (0.5 * pbar @ a @ pbar, -a @ pbar, QuadraticForm(0.5 * a)),
                    simplex)
        rad = (0.5 if rule is None else 1.0) * k * \
            moments.central_second_moment(simplex)
        return simplex, depth, est, rad

    cells = [make(s, 0)]
    heap = [(-cells[0][3], 0)]
    running = cells[0][3]
    while True:
        if running <= tol:
            running = math.fsum(cells[i][3] for _, i in heap)
            if running <= tol:
                stop = "tol"
                break
        simplex, depth, _, radius = cells[heap[0][1]]
        if depth >= max_depth or len(heap) + 1 > max_cells:
            stop = "max_depth" if depth >= max_depth else "max_cells"
            break
        heapq.heappop(heap)
        children = [make(c, depth + 1) for c in geometry.bisect(simplex)]
        for child in children:
            heapq.heappush(heap, (-child[3], len(cells)))
            cells.append(child)
        running += children[0][3] + children[1][3] - radius
    live = [cells[i] for _, i in heap]
    hist = {}
    for cell in live:
        hist[cell[1]] = hist.get(cell[1], 0) + 1
    return (math.fsum(c[2] for c in live), math.fsum(c[3] for c in live),
            len(live), hist, stop)


def stroud_t3_rule():
    """Stroud's T3:2-1: the four points (a, b, b, b) and permutations,
    weight 1/4 each, a = (5 + 3 sqrt 5)/20, b = (5 - sqrt 5)/20; positive
    and degree-2 exact."""
    from certicube.cubature import CubatureRule

    a, b = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0, (5.0 - math.sqrt(5.0)) / 20.0
    nodes = [[a if j == k else b for j in range(4)] for k in range(4)]
    return CubatureRule(dimension=3, nodes=np.array(nodes),
                        weights=np.full(4, 0.25), provenance="stroud-t3-2-1")


# Reference copies of geometry's batch kernels as first written: fancy-
# index gathers and transposing copies, the same arithmetic in the same
# order, so the kernels must match them bit for bit.

def edge_lengths_sq_reference(W):
    i, j = np.triu_indices(len(W), 1)
    diff = W[i] - W[j]
    diff *= diff
    return functools.reduce(np.add, diff.swapaxes(0, 1))


def split_reference(W, e2):
    k, n, m = W.shape
    edge_i, edge_j = np.triu_indices(k, 1)
    longest, best = np.zeros(m, dtype=np.intp), e2[0]
    for edge in range(1, len(e2)):
        longest[e2[edge] > best] = edge
        best = np.maximum(best, e2[edge])
    planes = np.arange(0, n * m, m)[:, None] + np.arange(m)
    i, j = (ends[longest] * (n * m) + planes for ends in (edge_i, edge_j))
    flat = W.reshape(-1)
    children = np.stack((flat, flat), axis=-1).reshape(-1)
    children[2 * j] = children[2 * i + 1] = 0.5 * (flat[i] + flat[j])
    return children.reshape(k, n, 2 * m)


def points_reference(weights, W):
    n = W.shape[1]
    flat = weights @ W.reshape(len(W), -1)
    return flat.reshape(len(weights), n, -1).transpose(0, 2, 1).reshape(-1, n)


def lattice_weights_reference(n, resolution):
    heads = [()]
    for _ in range(n):
        heads = [h + (k,) for h in heads
                 for k in range(resolution - sum(h) + 1)]
    return np.array([h + (resolution - sum(h),) for h in heads],
                    dtype=float) / resolution


def run_tape(tape, arith):
    """The tape interpreter that tape.program replaced, kept as its
    oracle: the value of the tape's last slot in the given arithmetic.

    The tape is a tree: each slot but the last is an argument of exactly
    one later instruction, so a slot is released once it is read, and
    only the live intermediates are held (jets are large)."""
    slots = [None] * len(tape.ops)
    for k, (op, args, const) in enumerate(tape.ops):
        fn = getattr(arith, op)
        if len(args) == 2:
            a, b = args
            slots[k] = fn(slots[a], slots[b])
            slots[a] = slots[b] = None
        elif args:
            a = args[0]
            slots[k] = fn(slots[a]) if const is None else fn(slots[a], const)
            slots[a] = None
        else:  # const, var
            slots[k] = fn(const)
    return slots[-1]


_IV_UFUNCS = {
    np.add: operator.add, np.subtract: operator.sub,
    np.multiply: operator.mul, np.true_divide: operator.truediv,
    np.negative: operator.neg, np.power: operator.pow,
    np.exp: mpmath.iv.exp, np.sin: mpmath.iv.sin, np.cos: mpmath.iv.cos,
    np.log: mpmath.iv.log, np.sqrt: mpmath.iv.sqrt}
_IV_FROM_FLOAT = np.frompyfunc(mpmath.iv.mpf, 1, 1)


def _objects(value):
    """value as an object array; a lone interval becomes a 0-d array."""
    if isinstance(value, np.ndarray):
        return value
    array = np.empty((), dtype=object)
    array[()] = value
    return array


class Intervals(np.lib.mixins.NDArrayOperatorsMixin):
    """A value type for tape programs: an object array of mpmath.iv
    intervals, rounded outward at mpmath.iv's precision (53 bits).

    It provides what expr.Floats and expr.Jets use of a value: numpy's
    operators and the ufuncs of the opcodes (through __array_ufunc__,
    with float operands read exactly), indexing ([..., None], [:, i]),
    swapaxes, shape, T and len. So tape.program(Floats(box)) and
    tape.program(Jets(box)) run unchanged and enclose every value and
    every derivative over the box of points (m, n)."""

    def __init__(self, data):
        self.data = _objects(data)

    @classmethod
    def box(cls, lo, hi):
        """The intervals [lo, hi] of two float arrays of one shape."""
        return cls(np.frompyfunc(lambda a, b: mpmath.iv.mpf([a, b]), 2, 1)(
            np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))

    @property
    def shape(self):
        return self.data.shape

    @property
    def T(self):
        return Intervals(self.data.T)

    def __len__(self):
        return len(self.data)

    def __getitem__(self, key):
        return Intervals(self.data[key])

    def swapaxes(self, axis1, axis2):
        return Intervals(self.data.swapaxes(axis1, axis2))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in _IV_UFUNCS:
            return NotImplemented
        args = [x.data if isinstance(x, Intervals)
                else _IV_FROM_FLOAT(np.asarray(x, dtype=float))
                for x in inputs]
        return Intervals(np.frompyfunc(_IV_UFUNCS[ufunc], len(args), 1)(
            *args))

    def bounds(self):
        """(lo, hi): the float arrays of the interval ends."""
        ends = np.frompyfunc(lambda x: (float(x.a), float(x.b)), 1, 2)
        return tuple(np.asarray(end, dtype=float) for end in ends(self.data))


def frobenius_ceiling(hessian, shift=0.0):
    """The upper end, in mpmath.iv, of sqrt(sum max(|lo|, |hi|)^2) over
    the entries of hessian - shift: hessian an interval plane of one box
    (Intervals or floats, any shape), shift a float array. It bounds the
    Frobenius norm of every matrix in the enclosure, so the operator
    norm too."""
    total = mpmath.iv.mpf(0)
    for entry in (Intervals.box(0.0, 0.0) + hessian - shift).data.flat:
        total += abs(entry).b ** 2
    return float(mpmath.iv.sqrt(total).b)
