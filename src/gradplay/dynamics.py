"""Payoff-driven learning rules: fixed-order variants and the higher-order family.

Every rule maps a payoff stream to a strategy derivative without knowing where
the payoffs come from; coupling to a game happens only in the simulation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .simplex import NonFiniteInputError, TangentBasis, project_to_simplex

__all__ = [
    "GradientPlay",
    "Replicator",
    "SmoothFictitiousPlay",
    "HigherOrderGradientPlay",
    "DynamicsSpec",
    "PlayerState",
    "StateDerivative",
    "softmax",
    "derivative",
    "modified_payoff",
    "make_anticipatory",
    "check_vanishing_modification",
    "VanishingModificationResult",
    "aux_dim",
    "washout_dim",
]


def softmax(v, temperature: float) -> np.ndarray:
    """Gibbs distribution over v at the given temperature.

    Shift-invariant: adding a constant to all entries leaves the result
    unchanged (the max is subtracted before exponentiation).
    """
    if not 0 < temperature < np.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInputError("softmax input must be finite")
    z = np.exp((v - np.max(v)) / temperature)
    return z / np.sum(z)


@dataclass(frozen=True)
class GradientPlay:
    """Projected payoff ascent: dx = proj(x + p) - x."""


@dataclass(frozen=True)
class Replicator:
    """dx = diag(p - (x^T p / 1^T x) 1) x: the usual rule on the simplex, and
    1^T dx = 0 everywhere, so rounding off the simplex does not grow."""


@dataclass(frozen=True)
class SmoothFictitiousPlay:
    """dx = softmax(p; T) - x."""

    temperature: float = 0.1

    def __post_init__(self):
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


@dataclass(frozen=True)
class HigherOrderGradientPlay:
    """Gradient play with a washed-out, filtered payoff modification.

    The washout state v tracks the tangent payoff N^T p; the compensator
    (E, F, G, H) acts on the washout output y = N^T p - v:

        dx  = -x + proj(x + p + N (G xi + H y))
        dxi = E xi + F y
        dv  = y

    Shapes with aux dimension l and signal dimension r = k - 1:
    E is l x l, F is l x r, G is r x l, H is r x r.
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if not all(np.isfinite(M).all() for M in (E, F, G, H)):
            raise ValueError("E, F, G and H must have finite entries")
        if E.shape[0] != E.shape[1]:
            raise ValueError("E must be square")
        ell = E.shape[0]
        r = H.shape[0]
        if H.shape != (r, r):
            raise ValueError("H must be square")
        if F.shape != (ell, r):
            raise ValueError(f"F must be {ell} x {r}, got {F.shape}")
        if G.shape != (r, ell):
            raise ValueError(f"G must be {r} x {ell}, got {G.shape}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "H", H)

    @property
    def aux_dim(self) -> int:
        return self.E.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.H.shape[0]


DynamicsSpec = Union[GradientPlay, Replicator, SmoothFictitiousPlay, HigherOrderGradientPlay]


def aux_dim(spec: DynamicsSpec) -> int:
    return spec.aux_dim if isinstance(spec, HigherOrderGradientPlay) else 0


def washout_dim(spec: DynamicsSpec, k: int) -> int:
    return k - 1 if isinstance(spec, HigherOrderGradientPlay) else 0


@dataclass
class PlayerState:
    """State of one learner: strategy x, aux xi, washout v (empty if fixed-order)."""

    x: np.ndarray
    xi: np.ndarray
    v: np.ndarray

    @classmethod
    def fixed_order(cls, x) -> "PlayerState":
        return cls(np.asarray(x, dtype=float), np.zeros(0), np.zeros(0))

    @classmethod
    def higher_order(cls, x, xi, v) -> "PlayerState":
        return cls(
            np.asarray(x, dtype=float),
            np.asarray(xi, dtype=float),
            np.asarray(v, dtype=float),
        )


class StateDerivative(NamedTuple):
    dx: np.ndarray
    dxi: np.ndarray
    dv: np.ndarray


def _check_payoff(p, k: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (k,):
        raise ValueError(f"payoff has shape {p.shape}, expected ({k},)")
    if not np.all(np.isfinite(p)):
        raise NonFiniteInputError("payoff entries must be finite")
    return p


def derivative(
    spec: DynamicsSpec, state: PlayerState, payoff, basis: TangentBasis | None = None
) -> StateDerivative:
    """Evaluate one player's state derivative for the given payoff vector."""
    x = np.asarray(state.x, dtype=float)
    k = x.size
    p = _check_payoff(payoff, k)
    empty = np.zeros(0)
    if isinstance(spec, Replicator):
        # a zero strategy mass has no mean payoff, and leaves dx not finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dx = x * (p - float(x @ p) / x.sum())
        if not np.isfinite(dx).all():
            raise NonFiniteInputError("replicator derivative is not finite (zero mass or overflow)")
        return StateDerivative(dx, empty, empty)
    if isinstance(spec, SmoothFictitiousPlay):
        return StateDerivative(softmax(p, spec.temperature) - x, empty, empty)
    if isinstance(spec, GradientPlay):
        return StateDerivative(project_to_simplex(x + p) - x, empty, empty)
    if isinstance(spec, HigherOrderGradientPlay):
        if basis is None:
            raise ValueError("higher-order dynamics need a tangent basis")
        if spec.signal_dim != k - 1 or basis.k != k:
            raise ValueError("compensator signal dimension must be k - 1")
        xi = np.asarray(state.xi, dtype=float)
        v = np.asarray(state.v, dtype=float)
        if xi.shape != (spec.aux_dim,) or v.shape != (k - 1,):
            raise ValueError("auxiliary state shapes do not match the spec")
        y = basis.N.T @ p - v
        u = spec.G @ xi + spec.H @ y
        dx = project_to_simplex(x + p + basis.N @ u) - x
        dxi = spec.E @ xi + spec.F @ y
        return StateDerivative(dx, dxi, y)
    raise TypeError(f"unknown dynamics spec {type(spec).__name__}")


def modified_payoff(
    spec: HigherOrderGradientPlay, state: PlayerState, payoff, basis: TangentBasis
) -> np.ndarray:
    """The payoff actually seen by the underlying gradient play: p + N(G xi + H y)."""
    if not isinstance(spec, HigherOrderGradientPlay):
        raise TypeError("modified_payoff applies to higher-order specs only")
    x = np.asarray(state.x, dtype=float)
    p = _check_payoff(payoff, x.size)
    y = basis.N.T @ p - np.asarray(state.v, dtype=float)
    u = spec.G @ np.asarray(state.xi, dtype=float) + spec.H @ y
    return p + basis.N @ u


def make_anticipatory(
    lam: float, gamma: float, k: int, gamma2: float | None = None
) -> HigherOrderGradientPlay:
    """Anticipatory compensator acting on the (k-1)-dimensional washout output.

    The filtered payoff derivative estimate gives E = -lam I, F = lam I,
    H = gamma*lam I, G = -gamma2*lam I (gamma2 defaults to gamma).  With
    gamma2 == gamma the modification approximates p(t + gamma).
    """
    if gamma2 is None:
        gamma2 = gamma
    if not all(0 < v < np.inf for v in (lam, gamma, gamma2)):
        raise ValueError("lam, gamma and gamma2 must be positive and finite")
    if k < 2:
        raise ValueError("need at least two pure strategies")
    r = k - 1
    eye = np.eye(r)
    return HigherOrderGradientPlay(
        E=-lam * eye, F=lam * eye, G=-gamma2 * lam * eye, H=gamma * lam * eye
    )


@dataclass(frozen=True)
class VanishingModificationResult:
    ok: bool
    residual: float
    note: str = ""


def check_vanishing_modification(D, E, F, G, tol: float = 1e-9) -> VanishingModificationResult:
    """Check that a linear aux system's payoff modification vanishes at equilibrium.

    For dz = D z + E p, phi = F p + G z, the steady-state modification at
    constant payoff is (F - G D^{-1} E) p; the residual is the norm of that
    matrix.  A singular D is reported as a failure with a diagnostic rather
    than raised.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    E = np.atleast_2d(np.asarray(E, dtype=float))
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if D.shape[0] != D.shape[1]:
        return VanishingModificationResult(False, float("inf"), "D is not square")
    try:
        X = np.linalg.solve(D, E)
    except np.linalg.LinAlgError:
        return VanishingModificationResult(
            False, float("inf"), "D is singular; equilibrium aux state is not unique"
        )
    residual = float(np.linalg.norm(F - G @ X))
    return VanishingModificationResult(residual <= tol, residual)
