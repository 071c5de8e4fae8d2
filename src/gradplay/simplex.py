"""Simplex projection and tangent-space coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteInputError",
    "TangentBasis",
    "project_to_simplex",
    "tangent_basis",
    "to_local",
    "from_local",
]


class NonFiniteInputError(ValueError):
    """A projection or learning-rule input has an infinite or NaN entry."""


def project_to_simplex(x) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Uses the sort-and-threshold algorithm: sort descending, find the largest
    support size rho whose water level keeps all supported entries positive,
    then clip. O(k log k), deterministic.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("project_to_simplex expects a nonempty 1-D vector")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInputError("project_to_simplex expects finite entries")
    # projection commutes with constant shifts; anchoring the max at zero
    # keeps the water-level arithmetic exact for entries of any magnitude
    x = x - np.max(x)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    rho = idx[u * idx > css][-1]
    theta = css[rho - 1] / rho
    return np.maximum(x - theta, 0.0)


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal basis of the simplex tangent space.

    N has shape k x (k-1) with column sums zero (1^T N = 0) and orthonormal
    columns (N^T N = I).
    """

    k: int
    N: np.ndarray


def tangent_basis(k: int) -> TangentBasis:
    """Deterministic Helmert-style tangent basis for the k-simplex.

    Column j has j+1 leading entries 1/sqrt((j+1)(j+2)) followed by the
    balancing entry -(j+1)/sqrt((j+1)(j+2)); the first nonzero entry of every
    column is positive.  For k=2 the single column is (1/sqrt(2), -1/sqrt(2)).
    """
    if k < 2:
        raise ValueError("tangent basis needs k >= 2")
    N = np.zeros((k, k - 1))
    for j in range(k - 1):
        a = 1.0 / np.sqrt((j + 1) * (j + 2))
        N[: j + 1, j] = a
        N[j + 1, j] = -(j + 1) * a
    return TangentBasis(k, N)


def to_local(x, x_star, basis: TangentBasis) -> np.ndarray:
    """Coordinates of x - x_star in the tangent basis: w = N^T (x - x_star)."""
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if x.shape != (basis.k,) or x_star.shape != (basis.k,):
        raise ValueError("to_local: dimension mismatch with basis")
    return basis.N.T @ (x - x_star)


def from_local(w, x_star, basis: TangentBasis) -> np.ndarray:
    """Inverse of to_local on the tangent space: x = x_star + N w."""
    w = np.asarray(w, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    if w.shape != (basis.k - 1,) or x_star.shape != (basis.k,):
        raise ValueError("from_local: dimension mismatch with basis")
    return x_star + basis.N @ w
