import math
import warnings

import mpmath
import numpy as np
import pytest

from certicube import qform
from certicube.errors import DimensionMismatch
from certicube.qform import QuadraticForm

from util import rand_symmetric_form


def test_evaluate_identity_form():
    phi = QuadraticForm(np.eye(2))
    assert qform.evaluate(phi, [3.0, 4.0]) == pytest.approx(25.0)


def test_evaluate_mixed_form():
    phi = QuadraticForm([[0.0, 0.5], [0.5, 0.0]])
    assert qform.evaluate(phi, [1.0, 1.0]) == pytest.approx(1.0)


def test_evaluate_zero_form():
    phi = QuadraticForm(np.zeros((3, 3)))
    assert qform.evaluate(phi, [1.0, -2.0, 5.0]) == 0.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qform.evaluate(QuadraticForm(np.eye(2)), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("coeffs,message", [
    (np.ones((2, 3)), "not square"), (np.ones(2), "not square"),
    ([[1.0, math.inf], [0.0, 1.0]], "non-finite"),
    ([[math.nan]], "non-finite")])
def test_construction_rejects_bad_coefficients(coeffs, message):
    with pytest.raises(DimensionMismatch, match=message):
        QuadraticForm(coeffs)


def test_construction_symmetrizes():
    phi = QuadraticForm([[1.0, 2.0], [0.0, 3.0]])
    assert phi.coeffs[0, 1] == phi.coeffs[1, 0] == 1.0
    # x^T A x is preserved by symmetrization
    x = np.array([0.7, -1.3])
    raw = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert qform.evaluate(phi, x) == pytest.approx(x @ raw @ x)


def test_operator_norm_identity():
    assert qform.operator_norm(QuadraticForm(np.eye(2))) == pytest.approx(1.0)


def test_operator_norm_mixed_form():
    phi = QuadraticForm([[0.0, 0.5], [0.5, 0.0]])
    norm = qform.operator_norm(phi)
    assert norm == pytest.approx(0.5, abs=1e-13)
    # dense sampling of the unit circle as an independent oracle
    angles = np.linspace(0.0, 2 * np.pi, 100000)
    xs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    sampled = np.max(np.abs(np.einsum("ki,ij,kj->k", xs, phi.coeffs, xs)))
    assert sampled == pytest.approx(norm, abs=1e-8)


def test_operator_norm_diagonal():
    phi = QuadraticForm(np.diag([3.0, -5.0]))
    assert qform.operator_norm(phi) == pytest.approx(5.0)


def test_sum_abs_bound_examples():
    assert qform.sum_abs_bound(QuadraticForm(np.eye(3))) == pytest.approx(3.0)
    phi = QuadraticForm([[0.0, 0.5], [0.5, 0.0]])
    assert qform.sum_abs_bound(phi) == pytest.approx(1.0)


def test_property_suite_random_forms():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        phi = rand_symmetric_form(rng, n)
        psi = rand_symmetric_form(rng, n)
        norm = qform.operator_norm(phi)
        x = rng.uniform(-2, 2, size=n)
        # |phi(x)| <= ||phi|| ||x||^2
        assert abs(qform.evaluate(phi, x)) <= norm * (x @ x) + 1e-10
        # ||phi|| <= sum |a_ij|
        assert norm <= qform.sum_abs_bound(phi) + 1e-12
        # homogeneity
        alpha = float(rng.uniform(-3, 3))
        scaled = qform.operator_norm(QuadraticForm(alpha * phi.coeffs))
        assert scaled == pytest.approx(abs(alpha) * norm, rel=1e-12,
                                       abs=1e-13)
        # sub-additivity
        both = qform.operator_norm(QuadraticForm(phi.coeffs + psi.coeffs))
        assert both <= norm + qform.operator_norm(psi) + 1e-10


def test_sampled_max_never_exceeds_norm():
    rng = np.random.default_rng(9)
    phi = rand_symmetric_form(rng, 2)
    norm = qform.operator_norm(phi)
    angles = rng.uniform(0.0, 2 * np.pi, size=100000)
    xs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    sampled = float(np.max(np.abs(
        np.einsum("ki,ij,kj->k", xs, phi.coeffs, xs))))
    assert sampled <= norm + 1e-10
    assert norm - sampled <= 1e-6


def mp_extremes(H):
    """(lowest, highest) eigenvalue of H read from its lower triangle,
    by mpmath's Jacobi solver at 50 digits."""
    n = len(H)
    with mpmath.workdps(50):
        A = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(i + 1):
                A[i, j] = A[j, i] = mpmath.mpf(float(H[i, j]))
        eig = mpmath.eigsy(A, eigvals_only=True)
        return float(min(eig)), float(max(eig))


def kernel_batches(n):
    """Named (m, n, n) symmetric stacks: the cases a closed form can get
    wrong (no off-diagonal, equal diagonal, singular, negative, extreme
    exponents)."""
    rng = np.random.default_rng(17)
    a = rng.standard_normal((60, n, n))
    sym = a + np.swapaxes(a, 1, 2)
    v = rng.standard_normal((60, n))
    diagonal = np.zeros((60, n, n))
    diagonal[:, range(n), range(n)] = rng.standard_normal((60, n))
    equal_diagonal = sym.copy()
    equal_diagonal[:, range(n), range(n)] = sym[:, :1, 0]
    batches = {
        "random": sym,
        "diagonal": diagonal,
        "equal diagonal": equal_diagonal,
        "rank one": v[:, :, None] * v[:, None, :],
        "negative definite": -(a @ np.swapaxes(a, 1, 2)) - np.eye(n),
        "zero": np.zeros((3, n, n)),
        "near 1e300": 1e300 * sym / 4,
        "near 1e-300": 1e-300 * sym,
    }
    if n == 2:
        batches["b = 0, a = d"] = np.array(
            [[[c, 0.0], [0.0, c]] for c in (1.0, -2.5, 0.0, 3e-7)])
        batches["a = d"] = np.array(
            [[[c, b], [b, c]] for c, b in rng.standard_normal((20, 2))])
        top = np.finfo(float).max
        batches["a + d past the float range"] = np.array(
            [[[0.9 * top, b], [b, 0.8 * top]] for b in (0.0, 1e300, -1e306)])
    return batches


@pytest.mark.parametrize("n", [1, 2])
def test_extreme_eigenvalues_match_a_50_digit_oracle(n):
    for name, H in kernel_batches(n).items():
        lo, hi = qform.extreme_eigenvalues(H)
        assert lo.shape == hi.shape == (len(H),), name
        for k in range(len(H)):
            ref_lo, ref_hi = mp_extremes(H[k])
            ulp = np.spacing(max(abs(ref_lo), abs(ref_hi)))
            assert abs(lo[k] - ref_lo) <= 4 * ulp, (name, H[k])
            assert abs(hi[k] - ref_hi) <= 4 * ulp, (name, H[k])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extreme_eigenvalues_read_the_lower_triangle(n):
    H = np.random.default_rng(4).standard_normal((50, n, n))
    lo, hi = qform.extreme_eigenvalues(H)
    eig = np.linalg.eigvalsh(H)
    ulp = np.spacing(np.abs(eig).max(axis=-1))
    assert np.all(np.abs(lo - eig[:, 0]) <= 4 * ulp)
    assert np.all(np.abs(hi - eig[:, -1]) <= 4 * ulp)
    if n != 2:  # the entry itself, or eigvalsh itself
        assert np.array_equal(lo, eig[:, 0])
        assert np.array_equal(hi, eig[:, -1])


def test_one_form_is_the_one_matrix_case_of_the_kernel():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            phi = rand_symmetric_form(rng, n)
            lo, hi = qform.extreme_eigenvalues(phi.coeffs[None])
            assert qform.min_eigenvalue(phi) == lo[0]
            assert qform.operator_norm(phi) == max(abs(lo[0]), abs(hi[0]))


def test_eigenvalue_past_the_float_range_is_inf_without_a_warning():
    H = np.array([[[1e308, 1e308], [1e308, 1e308]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = qform.extreme_eigenvalues(H)
    assert lo[0] == 0.0 and hi[0] == math.inf
