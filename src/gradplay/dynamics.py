"""Payoff-driven learning rules: fixed-order variants and the higher-order family.

Every rule maps a payoff stream to a strategy derivative without knowing where
the payoffs come from; coupling to a game happens only in the simulation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .simplex import NonFiniteInputError, SupportProjection, TangentBasis, project_to_simplex

__all__ = [
    "GradientPlay",
    "Replicator",
    "SmoothFictitiousPlay",
    "HigherOrderGradientPlay",
    "DynamicsSpec",
    "PROJECTED",
    "PlayerState",
    "StateDerivative",
    "derivative",
    "modified_payoff",
    "make_anticipatory",
    "check_vanishing_modification",
    "VanishingModificationResult",
    "aux_dim",
    "washout_dim",
]


@dataclass(frozen=True)
class GradientPlay:
    """Projected payoff ascent: dx = proj(x + p) - x.

    The batched update of every rule takes (m, k) rows of strategies x and
    inputs z, the rows' temperatures, and memo: None, or a dict that the
    caller keeps for this group of rows from stage to stage. Gradient play
    keeps there the simplex.SupportProjection of its last projection's
    support, a cached affine map with its KKT check, and tries it first;
    only when the check fails does it sort (project_to_simplex) and cache
    the new support's map. The other rules ignore memo.
    """

    @staticmethod
    def update(x, z, temps, memo=None):
        if memo is None:
            return project_to_simplex(z) - x
        p = memo["projection"](z) if "projection" in memo else None
        if p is None:
            p = project_to_simplex(z)
            memo["projection"] = SupportProjection(p > 0)
        return p - x


@dataclass(frozen=True)
class Replicator:
    """dx = diag(p - (x^T p / 1^T x) 1) x: the usual rule on the simplex, and
    1^T dx = 0 everywhere, so rounding off the simplex does not grow."""

    @staticmethod
    def update(x, z, temps, memo=None):
        mean = np.add.reduce(x * z, axis=1, keepdims=True) / np.add.reduce(x, axis=1, keepdims=True)
        return x * (z - mean)


@dataclass(frozen=True)
class SmoothFictitiousPlay:
    """dx = softmax(p; T) - x."""

    temperature: float = 0.1

    def __post_init__(self):
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")

    @staticmethod
    def update(x, z, temps, memo=None):
        e = np.exp((z - np.maximum.reduce(z, axis=1, keepdims=True)) / temps)
        return e / np.add.reduce(e, axis=1, keepdims=True) - x


@dataclass(frozen=True)
class HigherOrderGradientPlay:
    """Gradient play with a washed-out, filtered payoff modification.

    The washout state v tracks the tangent payoff N^T p; the compensator
    (E, F, G, H) acts on the washout output y = N^T p - v:

        dx  = -x + proj(x + p + N (G xi + H y))
        dxi = E xi + F y
        dv  = y

    Shapes with aux dimension l and signal dimension r = k - 1:
    E is l x l, F is l x r, G is r x l, H is r x r. With l = 0 the
    compensator is the static gain u = H y.
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    update = staticmethod(GradientPlay.update)  # one (update, k) group with gradient play

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if E.size == F.size == G.size == 0:  # a static gain; numpy reads JSON's [] as 1 x 0
            E, F, G = E.reshape(0, 0), F.reshape(0, H.shape[0]), G.reshape(H.shape[0], 0)
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
PROJECTED = (GradientPlay, HigherOrderGradientPlay)  # their input is x + p (+ N u), not p


def aux_dim(spec: DynamicsSpec) -> int:
    return spec.aux_dim if isinstance(spec, HigherOrderGradientPlay) else 0


def washout_dim(spec: DynamicsSpec, k: int) -> int:
    """The one rule of who carries a washout: a compensated player, on its k - 1 tangent rows."""
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


def _compensated(spec: HigherOrderGradientPlay, state: PlayerState, p, basis) -> tuple:
    """(xi, y, p + N (G xi + H y)) of a compensated player whose payoff p has
    been checked, with y = N^T p - v its washout output."""
    k = p.size
    if basis is None:
        raise ValueError("higher-order dynamics need a tangent basis")
    if spec.signal_dim != k - 1 or basis.k != k:
        raise ValueError("compensator signal dimension must be k - 1")
    xi = np.asarray(state.xi, dtype=float)
    v = np.asarray(state.v, dtype=float)
    if xi.shape != (spec.aux_dim,) or v.shape != (k - 1,):
        raise ValueError("auxiliary state shapes do not match the spec")
    y = basis.N.T @ p - v
    return xi, y, p + basis.N @ (spec.G @ xi + spec.H @ y)


def derivative(
    spec: DynamicsSpec, state: PlayerState, payoff, basis: TangentBasis | None = None
) -> StateDerivative:
    """Evaluate one player's state derivative for the given payoff vector.

    Its dx is one row of spec.update on the rule's input: x + p for the
    projection family, plus N (G xi + H y) for a compensated player, and p
    for the other rules. A compensated player adds its aux and washout rows.
    """
    x = np.asarray(state.x, dtype=float)
    p = _check_payoff(payoff, x.size)
    dxi = dv = np.zeros(0)
    if isinstance(spec, HigherOrderGradientPlay):
        xi, dv, p = _compensated(spec, state, p, basis)
        dxi = spec.E @ xi + spec.F @ dv
    elif not isinstance(spec, DynamicsSpec):
        raise TypeError(f"unknown dynamics spec {type(spec).__name__}")
    # a replicator state of zero mass has no mean payoff; it, and any
    # overflow, leaves dx not finite
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = x + p if isinstance(spec, PROJECTED) else p
        temps = np.full((1, 1), getattr(spec, "temperature", 0.0))
        dx = spec.update(x[None], z[None], temps)[0]
    if not np.isfinite(dx).all():
        raise NonFiniteInputError("derivative is not finite (replicator zero mass or overflow)")
    return StateDerivative(dx, dxi, dv)


def modified_payoff(
    spec: HigherOrderGradientPlay, state: PlayerState, payoff, basis: TangentBasis
) -> np.ndarray:
    """The payoff actually seen by the underlying gradient play: p + N(G xi + H y)."""
    if not isinstance(spec, HigherOrderGradientPlay):
        raise TypeError("modified_payoff applies to higher-order specs only")
    return _compensated(spec, state, _check_payoff(payoff, np.size(state.x)), basis)[2]


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
