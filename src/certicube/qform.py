"""Quadratic forms and their operator norm on the unit sphere."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class QuadraticForm:
    """phi(x) = x^T A x with A symmetrized at construction."""

    coeffs: np.ndarray

    def __post_init__(self):
        a = np.array(self.coeffs, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"coefficient array not square: {a.shape}")
        if not np.isfinite(a).all():
            raise DimensionMismatch("non-finite coefficient")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    @property
    def dimension(self):
        return self.coeffs.shape[0]


def evaluate(phi, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (phi.dimension,):
        raise DimensionMismatch(
            f"point of shape {x.shape} vs form in dimension {phi.dimension}")
    return float(x @ phi.coeffs @ x)


def extreme_eigenvalues(H):
    """(lowest, highest) eigenvalue (m,) of each matrix of the stack H
    (m, n, n), read from its lower triangle as eigvalsh does: the one
    spectral kernel. A closed form for n == 2, halved before adding so
    finite entries do not overflow; eigvalsh otherwise."""
    if H.shape[-1] != 2:
        eig = np.linalg.eigvalsh(H)
        return eig[..., 0], eig[..., -1]
    a, d = 0.5 * H[..., 0, 0], 0.5 * H[..., 1, 1]
    with np.errstate(over="ignore"):  # inf past the range, as eigvalsh
        mid, r = a + d, np.hypot(a - d, H[..., 1, 0])
        return mid - r, mid + r


def operator_norm(phi):
    """sup |phi(x)| over the unit sphere: max |eigenvalue| of the form."""
    lo, hi = extreme_eigenvalues(phi.coeffs[None])
    return float(np.maximum(-lo, hi)[0])


def min_eigenvalue(phi):
    return float(extreme_eigenvalues(phi.coeffs[None])[0][0])


def sum_abs_bound(phi):
    """sum |a_ij| over all n^2 entries; a cheap certified over-estimate."""
    return float(np.sum(np.abs(phi.coeffs)))
