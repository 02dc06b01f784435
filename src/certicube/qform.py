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
        if not np.all(np.isfinite(a)):
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


def operator_norm(phi):
    """sup |phi(x)| over the unit sphere = max |eigenvalue|."""
    return float(np.max(np.abs(np.linalg.eigvalsh(phi.coeffs))))


def min_eigenvalue(phi):
    return float(np.linalg.eigvalsh(phi.coeffs)[0])


def sum_abs_bound(phi):
    """sum |a_ij| over all n^2 entries; a cheap certified over-estimate."""
    return float(np.sum(np.abs(phi.coeffs)))
