"""Simplex projection and tangent-space coordinates."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteInputError",
    "SupportProjection",
    "TangentBasis",
    "project_to_simplex",
    "project_on_support",
    "tangent_basis",
    "to_local",
    "from_local",
]


class NonFiniteInputError(ValueError):
    """A numeric input, or a matrix built from one, has an infinite or NaN entry."""


def project_to_simplex(x) -> np.ndarray:
    """Euclidean projection onto the probability simplex, of a vector or of each row of a matrix.

    Uses the sort-and-threshold algorithm per row: sort descending, find the
    largest support size rho whose water level keeps all supported entries
    positive, then clip. O(k log k) per row, deterministic; a row of a matrix
    projects bit for bit as it would alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("project_to_simplex expects a nonempty vector or matrix of rows")
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NonFiniteInputError("project_to_simplex expects finite entries")
    rows = x.reshape(-1, x.shape[-1])
    m, k = rows.shape
    # projection commutes with constant shifts; anchoring the max at zero
    # keeps the water-level arithmetic exact for entries of any magnitude
    rows = rows - np.maximum.reduce(rows, axis=1, keepdims=True)
    u = rows.copy()
    u.sort(axis=1)
    u = u[:, ::-1]
    css = u.cumsum(axis=1)
    css -= 1.0
    # rho is the last index with u * idx > css (the first always is one)
    rho = k - (u * np.arange(1, k + 1) > css)[:, ::-1].argmax(axis=1)
    rows -= (css[np.arange(m), rho - 1] / rho)[:, None]
    return np.maximum(rows, 0.0, out=rows).reshape(x.shape)


def project_on_support(rows, support) -> np.ndarray | None:
    """The projection of each row of rows onto the simplex, if support is its support; else None.

    rows is an (m, k) matrix of finite entries and support a boolean (m, k)
    mask with at least one entry in each row. Each row is anchored at its max
    as in project_to_simplex, its water level on S is theta = (sum_S row - 1) / |S|,
    and S is the support exactly when the KKT signs hold: row - theta >= 0 on S
    and <= 0 off S. Then the projection is row - theta on S and +0.0 off S;
    otherwise the result is None. With at most 3 entries in S the anchored
    sum has at most two nonzero terms, so where the sort path of
    project_to_simplex picks the same support both agree bit for bit; with
    more they may differ in the last bits, by summation order.
    """
    r = rows - np.maximum.reduce(rows, axis=1, keepdims=True)
    excess = np.add.reduce(r, axis=1, where=support, keepdims=True)
    excess -= 1.0
    r -= excess / np.add.reduce(support, axis=1, keepdims=True)  # now row - theta
    if not np.minimum.reduce(np.where(support, r, np.negative(r)), axis=None) >= 0:
        return None
    return np.where(support, r, 0.0)


class SupportProjection:
    """project_on_support for one fixed support, as a cached affine map.

    support is a boolean (m, k) mask with at least one entry in each row.
    Row i's residual z - theta_i, theta_i = (1_S^T z - 1) / |S_i|, is the
    affine map (I - W_S) z + 1 / |S_i| with W_S's rows s_i / |S_i|; SR and sr
    are that map on the m rows laid end to end (an mk x mk block-diagonal
    matrix and an mk vector), with every row off S negated. So S is the
    support exactly when SR z + sr >= 0: the KKT test of project_on_support,
    the exact reference, whose result a call returns up to rounding in the
    water level. The simulator builds its support regions from SR and sr.
    """

    def __init__(self, support):
        self.mask = np.asarray(support, dtype=float)  # 1.0 on S, 0.0 off it
        m, k = self.mask.shape
        size = self.mask.sum(axis=1, keepdims=True)
        sign = 2.0 * self.mask - 1.0
        SR = np.zeros((m, k, m, k))  # row i's block is SR[i, :, i, :]
        SR[np.arange(m), :, np.arange(m), :] = np.eye(k) - (self.mask / size)[:, None, :]
        SR *= sign[:, :, None, None]
        self.SR = SR.reshape(m * k, m * k)
        self.sr = (sign / size).ravel()

    def __call__(self, rows) -> np.ndarray | None:
        """The projection of each row of the (m, k) finite rows, or None when
        the support is not theirs; +0.0 off the support."""
        # anchored at each row's max, as in project_to_simplex
        r = self.SR @ (rows - np.maximum.reduce(rows, axis=1, keepdims=True)).ravel()
        r += self.sr
        if not np.minimum.reduce(r) >= 0:
            return None
        r = r.reshape(rows.shape)
        r *= self.mask  # r >= 0, so 0.0 off S
        return r


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal basis of the simplex tangent space.

    N has shape k x (k-1) with column sums zero (1^T N = 0) and orthonormal
    columns (N^T N = I).
    """

    k: int
    N: np.ndarray


_BASES = {}  # k -> the shared TangentBasis


def tangent_basis(k: int) -> TangentBasis:
    """Deterministic Helmert-style tangent basis for the k-simplex.

    Column j has j+1 leading entries 1/sqrt((j+1)(j+2)) followed by the
    balancing entry -(j+1)/sqrt((j+1)(j+2)); the first nonzero entry of every
    column is positive.  For k=2 the single column is (1/sqrt(2), -1/sqrt(2)).
    Each k is built once and shared: N is read-only.
    """
    k = operator.index(k)  # a float k raises TypeError, not 2.0 == 2 finding the basis of 2
    if k < 2:
        raise ValueError("tangent basis needs k >= 2")
    if k not in _BASES:
        N = np.zeros((k, k - 1))
        for j in range(k - 1):
            a = 1.0 / np.sqrt((j + 1) * (j + 2))
            N[: j + 1, j] = a
            N[j + 1, j] = -(j + 1) * a
        N.flags.writeable = False
        _BASES[k] = TangentBasis(k, N)
    return _BASES[k]


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
