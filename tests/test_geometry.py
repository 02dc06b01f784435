import math
from fractions import Fraction

import numpy as np
import pytest

from certicube import cubature, geometry
from certicube.errors import (DegenerateSimplex, DimensionMismatch, ParseError,
                              UnsupportedDimension)

from util import (edge_lengths_sq_reference, lattice_weights_reference,
                  points_reference, rand_simplex, split_reference)

UNIT_TRIANGLE = geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def barycenter_node(vertices):
    s = geometry.Simplex(vertices)
    return cubature.builtin("barycenter", s.dimension).nodes @ s.vertices


def test_barycenter_unit_triangle():
    assert np.allclose(barycenter_node(UNIT_TRIANGLE.vertices),
                       [[1 / 3, 1 / 3]])


def test_barycenter_segment():
    assert np.allclose(barycenter_node([[0.0], [1.0]]), [[0.5]])


def test_barycenter_general_triangle():
    tri = [[1.0, 1.0], [3.0, 1.0], [1.0, 4.0]]
    assert np.allclose(barycenter_node(tri), [[5 / 3, 2.0]])


def test_volume_unit_simplices():
    assert geometry.volume(geometry.unit_simplex(3)) == pytest.approx(1 / 6)
    assert geometry.volume(UNIT_TRIANGLE) == pytest.approx(1 / 2)


def test_volume_scaled_triangle():
    tri = geometry.Simplex([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert geometry.volume(tri) == pytest.approx(2.0)


def test_volume_degenerate():
    flat = geometry.Simplex([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    # |det E| is cached on first use, but an exception is not: every
    # use of a degenerate simplex raises.
    for use in (geometry.volume, lambda s: s.abs_det, geometry.volume):
        with pytest.raises(DegenerateSimplex):
            use(flat)


def test_determinant_is_computed_once(monkeypatch):
    s = geometry.Simplex([[0.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det",
                        lambda a: calls.append(1) or det(a))
    assert calls == []  # lazily: building a Simplex computes none
    assert geometry.volume(s) == s.abs_det / 2 == 3.0
    assert geometry.volume(s) == 3.0
    assert calls == [1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_split_of_a_batch_is_bisect_of_each_simplex(n):
    # Jittered unit simplices, and unit simplices with their vertices
    # permuted, whose longest edges tie; the first longest edge in
    # lexicographic pair order is cut, the left child keeps vertex i and
    # the right one j. A cell's squared edge lengths and second moment
    # are the same bits in a batch as alone (at n = 9 numpy's own sums
    # would differ).
    rng = np.random.default_rng(n)
    unit = geometry.unit_simplex(n).vertices
    simplices = [geometry.Simplex(unit + rng.uniform(-0.2, 0.2, unit.shape))
                 for _ in range(40)] + [
        geometry.Simplex(rng.permutation(unit)) for _ in range(10)]
    W = np.concatenate([s.batch()[0] for s in simplices], axis=-1)
    e2 = geometry.edge_lengths_sq(W)
    children = geometry.unpack(geometry.split(W, geometry.longest_edges(e2)))
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    for k, s in enumerate(simplices):
        assert np.array_equal(e2[:, k:k + 1], s.batch()[1])
        assert geometry.cell_stats(e2, 1.0)[k] == geometry.cell_stats(
            s.batch()[1], 1.0)[0]
        v = s.vertices
        lengths = [sum((a - b) * (a - b) for a, b in zip(v[i], v[j]))
                   for i, j in pairs]
        i, j = pairs[lengths.index(max(lengths))]
        left, right = v.copy(), v.copy()
        left[j] = right[i] = 0.5 * (v[i] + v[j])
        halves = geometry.bisect(s)
        for child, half, expected in zip(children[2 * k:2 * k + 2], halves,
                                         (left, right)):
            assert np.array_equal(child, expected)
            assert np.array_equal(half.vertices, expected)


def _same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 23])
def test_batch_kernels_match_reference_formulas(n):
    # The gather-free kernels do the reference's arithmetic in its order:
    # on a batch, a batch of one cell, a strided view and (edge lengths)
    # a cell with no cell axis, including exact Fractions. At n = 23 a
    # cell has E = 276 edges, so its cut edge needs a 16-bit index.
    rng = np.random.default_rng(100 + n)
    if n < 5:
        cells = [rand_simplex(rng, n).vertices for _ in range(9)]
    else:  # jittered unit simplices: random ones are mostly too flat
        unit = geometry.unit_simplex(n).vertices
        cells = [unit + rng.uniform(-0.2, 0.2, unit.shape) for _ in range(9)]
        # Cell 4 (in every view below) is longest at its last edge, E - 1.
        cells[4] = unit.copy()
        cells[4][-1] += unit[-1] - unit[-2]
    W = np.stack(cells, axis=-1)
    weights = np.vstack([cubature.builtin("barycenter", n).nodes,
                         geometry.lattice_weights(n, 3)])
    for batch in (W, W[..., 4:5], W[..., 1::3]):
        e2 = geometry.edge_lengths_sq(batch)
        assert _same_bits(e2, edge_lengths_sq_reference(batch))
        longest = geometry.longest_edges(e2)
        assert np.iinfo(longest.dtype).max >= len(e2) - 1
        assert np.array_equal(longest, np.argmax(e2, axis=0))
        assert n < 5 or longest.max() == len(e2) - 1
        assert _same_bits(geometry.split(batch, longest),
                          split_reference(batch, e2))
        assert _same_bits(geometry.points(weights, batch),
                          points_reference(weights, batch))
    cell = W[..., 2]
    assert _same_bits(geometry.edge_lengths_sq(cell),
                      edge_lengths_sq_reference(cell))
    exact = np.array([[Fraction(int(rng.integers(-9, 10)), 7)
                       for _ in range(n)] for _ in range(n + 1)])
    assert list(geometry.edge_lengths_sq(exact)) == list(
        edge_lengths_sq_reference(exact))


def _flattened(rng, n, thickness, direction=None):
    """Random simplex squashed along a unit direction to the given
    relative thickness: near-degenerate, still in [-1, 1]^n."""
    v = rand_simplex(rng, n).vertices
    d = rng.standard_normal(n) if direction is None else direction
    d = d / np.linalg.norm(d)
    return v - (1 - thickness) * np.outer(v @ d, d)


# Bounds fixed from the arithmetic, before any run, in units of
# u vol R^2 (u the unit roundoff, R the largest coordinate magnitude).
# An entry of M_S: the mean, the differences, the products, the sum over
# the n+1 vertices and the scaling by vol/((n+1)(n+2)) err by at most
# about 8 of them; the bound doubles that.
MOMENT_ULPS = 16
# tr(A M_S) then errs by at most MOMENT_ULPS sum|A_jl|, plus the n^2
# products and their sum, at most n^2 u sum|A_jl M_jl| with
# |M_jl| <= 4/3 vol R^2; the bound takes 2 n^2 for the second part.


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadratic_integrals_match_exact_fractions(n):
    # tr(A M_S), M_S = vol * sum_i (v_i - pbar)(v_i - pbar)^T
    # / ((n+1)(n+2)), in Fractions from the float vertices, the float
    # volume and a random symmetric A per cell; A = I gives cell_stats's
    # second moment.
    rng = np.random.default_rng(200 + n)
    cells = [rand_simplex(rng, n).vertices for _ in range(20)]
    cells += [_flattened(rng, n, t) for t in (1e-4, 1e-9, 1e-13)]
    cells += [_flattened(rng, n, 1e-9, np.eye(n)[0])]
    W = np.stack(cells, axis=-1)
    vol = np.array([abs(np.linalg.det(c[1:] - c[0])) for c in cells]) \
        / math.factorial(n)
    A = rng.uniform(-2, 2, size=(n, n, len(cells)))
    A = A + A.swapaxes(0, 1)
    q = geometry.quadratic_integrals(A, W, vol)
    assert q.shape == (len(cells),)
    q_identity = geometry.quadratic_integrals(np.eye(n), W, vol)
    moment = geometry.cell_stats(geometry.edge_lengths_sq(W), vol)
    u = np.finfo(float).eps / 2
    for k, c in enumerate(cells):
        v = [[Fraction(x) for x in row] for row in c]
        pbar = [sum(row[j] for row in v) / (n + 1) for j in range(n)]
        scale = Fraction(vol[k]) / ((n + 1) * (n + 2))
        exact = scale * sum(
            Fraction(A[j, l, k]) * (row[j] - pbar[j]) * (row[l] - pbar[l])
            for row in v for j in range(n) for l in range(n))
        unit = u * vol[k] * np.abs(c).max() ** 2
        bound = (MOMENT_ULPS + 2 * n * n) * unit * np.abs(A[..., k]).sum()
        assert abs(Fraction(q[k]) - exact) <= bound, k
        assert abs(q_identity[k] - moment[k]) <= 2 * n * MOMENT_ULPS * unit


def test_lattice_weights_match_reference():
    cases = [(n, r) for n in range(1, 6) for r in range(1, 7)]
    for n, r in cases + [(n, 20) for n in range(1, 4)] + [(2, 256)]:
        assert _same_bits(geometry.lattice_weights(n, r),
                          lattice_weights_reference(n, r)), (n, r)


def test_lattice_too_large_to_allocate_is_an_error():
    # C(310, 10) points of 302 entries: more bytes than an index holds.
    with pytest.raises(UnsupportedDimension,
                       match=f"has {math.comb(310, 10)} points at "
                             "resolution 10 on the 300-simplex"):
        geometry.lattice_weights(300, 10)


def test_bisect_segment():
    seg = geometry.Simplex([[0.0], [1.0]])
    left, right = geometry.bisect(seg)
    assert np.allclose(left.vertices, [[0.0], [0.5]])
    assert np.allclose(right.vertices, [[0.5], [1.0]])


def test_bisect_unit_triangle_splits_hypotenuse():
    left, right = geometry.bisect(UNIT_TRIANGLE)
    assert geometry.volume(left) == pytest.approx(1 / 4)
    assert geometry.volume(right) == pytest.approx(1 / 4)
    mid = np.array([0.5, 0.5])  # midpoint of edge (1,0)-(0,1)
    assert any(np.allclose(v, mid) for v in left.vertices)
    assert any(np.allclose(v, mid) for v in right.vertices)


def test_bisect_volume_conservation_random_tetrahedron():
    rng = np.random.default_rng(3)
    s = rand_simplex(rng, 3)
    left, right = geometry.bisect(s)
    total = geometry.volume(left) + geometry.volume(right)
    assert total == pytest.approx(geometry.volume(s), rel=1e-12)


def test_repeated_bisection_stays_non_degenerate():
    for n in (1, 2):
        s = geometry.unit_simplex(n)
        for _ in range(20):
            s, _ = geometry.bisect(s)
        geometry.volume(s)  # would raise DegenerateSimplex


def test_affine_barycenter_identity():
    # A(barycenter) equals the vertex average of A for affine A.
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        s = rand_simplex(rng, n)
        b = rng.uniform(-2, 2, size=n)
        c = float(rng.uniform(-2, 2))
        lhs = c + b @ s.vertices.mean(axis=0)
        rhs = np.mean([c + b @ p for p in s.vertices])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_simplex_file_round_trip(tmp_path):
    path = tmp_path / "tri.spx"
    path.write_text("0 0\n1 0\n0 1\n")
    s = geometry.load_simplex(path)
    assert np.allclose(s.vertices, UNIT_TRIANGLE.vertices)


def test_simplex_file_errors(tmp_path):
    path = tmp_path / "bad.spx"
    path.write_text("0 0\n1 0\n")
    with pytest.raises(ParseError):
        geometry.load_simplex(path)
    path.write_text("0 zero\n1 0\n0 1\n")
    with pytest.raises(ParseError) as err:
        geometry.load_simplex(path)
    assert err.value.line == 1


@pytest.mark.parametrize("shape", [(2, 2), (3,), (1, 0), (4, 2)])
def test_simplex_needs_n_plus_1_vertices_in_r_n(shape):
    with pytest.raises(DimensionMismatch, match="n\\+1 vertices"):
        geometry.Simplex(np.zeros(shape))
