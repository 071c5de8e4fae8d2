"""Polymatrix games: payoff evaluation, Nash verification, named instances."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .simplex import NonFiniteInputError

__all__ = [
    "PolymatrixGame",
    "NeCertificate",
    "payoff_map",
    "utility",
    "verify_ne",
    "make_jordan",
    "make_coordination",
    "perturb_jordan_diagonal",
    "perturb_random",
    "uniform_profile",
    "validate_profile",
]

NE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PolymatrixGame:
    """An n-player game with pairwise bilinear utilities.

    Player i's utility is x_i^T sum_j M[i,j] x_j over opponents j.  Absent
    (i, j) pairs act as zero matrices, which keeps sparse cyclic games clean.
    Treat instances as immutable values.
    """

    dims: tuple
    pair_matrices: dict = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, PolymatrixGame):
            return NotImplemented
        if self.dims != other.dims or set(self.pair_matrices) != set(other.pair_matrices):
            return False
        return all(
            np.array_equal(m, other.pair_matrices[key])
            for key, m in self.pair_matrices.items()
        )

    def __post_init__(self):
        dims = tuple(_index(k, "dims") for k in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("a game needs at least one player")
        if any(k < 2 for k in dims):
            raise ValueError("every player needs at least 2 pure strategies")
        mats = {}
        for (i, j), m in self.pair_matrices.items():
            i, j = _index(i, "pair indices"), _index(j, "pair indices")
            if i == j or not (0 <= i < self.n) or not (0 <= j < self.n):
                raise ValueError(f"invalid player pair ({i}, {j})")
            m = np.asarray(m, dtype=float)
            if m.shape != (dims[i], dims[j]):
                raise ValueError(
                    f"pair matrix ({i}, {j}) has shape {m.shape}, "
                    f"expected {(dims[i], dims[j])}"
                )
            mats[(i, j)] = m
        object.__setattr__(self, "pair_matrices", mats)

    @property
    def n(self) -> int:
        return len(self.dims)

    def pair(self, i: int, j: int) -> np.ndarray:
        """Payoff matrix of player i against player j (zeros if absent)."""
        m = self.pair_matrices.get((i, j))
        if m is None:
            return np.zeros((self.dims[i], self.dims[j]))
        return m


def _index(value, field: str) -> int:
    """A plain int from an int or numpy integer; operator.index would also read a bool as 0 or 1."""
    if type(value) is int or (hasattr(type(value), "__index__") and not isinstance(value, bool)):
        return operator.index(value)
    raise TypeError(f"game {field} must be integers, got {value!r}")


@dataclass(frozen=True)
class NeCertificate:
    """Result of a Nash-equilibrium check at a strategy profile.

    payoff_levels holds the mean payoff component per player; for a completely
    mixed equilibrium each payoff vector is constant at that level, and
    max_violation bounds both the best-deviation gain and the deviation of
    payoff components from their level.
    """

    profile: tuple
    is_ne: bool
    completely_mixed: bool
    payoff_levels: tuple
    max_violation: float
    tol: float


def validate_profile(game: PolymatrixGame, profile) -> list:
    """Check simplex membership per player and return the profile as arrays."""
    if len(profile) != game.n:
        raise ValueError(f"profile has {len(profile)} strategies for {game.n} players")
    out = []
    for i, x in enumerate(profile):
        x = np.asarray(x, dtype=float)
        if x.shape != (game.dims[i],):
            raise ValueError(f"strategy {i} has shape {x.shape}, expected ({game.dims[i]},)")
        # "not <=" so that a NaN or infinite entry (sum NaN or infinite) fails too
        if x.min() < -1e-12 or not abs(float(x.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"strategy {i} is not a probability vector")
        out.append(x)
    return out


def uniform_profile(game: PolymatrixGame) -> list:
    return [np.full(k, 1.0 / k) for k in game.dims]


def payoff_map(game: PolymatrixGame, i: int, profile) -> np.ndarray:
    """Payoff vector of player i: sum of M[i,j] x_j over opponents j."""
    if not 0 <= i < game.n:
        raise ValueError(f"player index {i} out of range for {game.n} players")
    xs = validate_profile(game, profile)
    p = np.zeros(game.dims[i])
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, j), m in game.pair_matrices.items():
            if a == i:
                p += m @ xs[j]
    if not np.isfinite(p).all():
        raise NonFiniteInputError(f"payoff of player {i} is not finite")
    return p


def utility(game: PolymatrixGame, i: int, profile) -> float:
    """Expected utility x_i^T p_i of player i at the profile."""
    xs = validate_profile(game, profile)
    return float(xs[i] @ payoff_map(game, i, profile))


def verify_ne(game: PolymatrixGame, profile, tol: float = NE_TOL) -> NeCertificate:
    """Certify whether a profile is a Nash equilibrium.

    The profile is an equilibrium when no player can gain more than tol by
    deviating to their best pure strategy; it is completely mixed when every
    strategy entry exceeds tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    xs = validate_profile(game, profile)
    gains = []
    levels = []
    const_defects = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, x in enumerate(xs):
            p = payoff_map(game, i, xs)
            gain = float(np.max(p) - x @ p)
            alpha = float(np.mean(p))
            defect = float(np.max(np.abs(p - alpha)))
            if not (math.isfinite(gain) and math.isfinite(defect)):
                raise NonFiniteInputError(f"utility or payoff gap of player {i} is not finite")
            gains.append(gain)
            levels.append(alpha)
            const_defects.append(defect)
    completely_mixed = all(float(np.min(x)) > tol for x in xs)
    is_ne = max(gains) <= tol
    max_violation = max(gains)
    if completely_mixed:
        max_violation = max(max_violation, max(const_defects))
    return NeCertificate(
        profile=tuple(x.copy() for x in xs),
        is_ne=is_ne,
        completely_mixed=completely_mixed,
        payoff_levels=tuple(levels),
        max_violation=max_violation,
        tol=tol,
    )


_ANTI = np.array([[0.0, 1.0], [1.0, 0.0]])


def make_jordan(scale: float = 1.0) -> PolymatrixGame:
    """Three-player cyclic anti-coordination game with a unique mixed equilibrium.

    Player 0 plays against player 1 with payoff matrix scale*[[0,1],[1,0]];
    players 1 and 2 close the cycle with the unscaled matrix.  The unique Nash
    equilibrium is (1/2, 1/2) for every player, for any scale > 0.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return PolymatrixGame(
        dims=(2, 2, 2),
        pair_matrices={(0, 1): scale * _ANTI, (1, 2): _ANTI.copy(), (2, 0): _ANTI.copy()},
    )


def make_coordination() -> PolymatrixGame:
    """Two-player identical-interest coordination game with identity payoffs."""
    return PolymatrixGame(
        dims=(2, 2),
        pair_matrices={(0, 1): np.eye(2), (1, 0): np.eye(2)},
    )


def perturb_jordan_diagonal(d1: float, d2: float, d3: float) -> PolymatrixGame:
    """make_jordan(1.0) with d1, d2, d3 added on the diagonals of pairs (0, 1), (1, 2), (2, 0).

    For d_i in [0, 1) the uniform profile remains a completely mixed Nash
    equilibrium (the payoff vectors stay constant).
    """
    ds = (float(d1), float(d2), float(d3))
    if not all(0.0 <= d < 1.0 for d in ds):
        raise ValueError("diagonal perturbations must lie in [0, 1)")
    game = make_jordan(1.0)
    cycle = zip(game.pair_matrices.items(), ds)
    return PolymatrixGame(game.dims, {key: m + d * np.eye(2) for (key, m), d in cycle})


def _polar_gaussians(rng, count: int) -> np.ndarray:
    """Standard normals via Marsaglia's polar rejection from rng.random().

    Only rng.random() is consumed, so the stream is pinned by the PCG64 seed
    regardless of numpy's distribution implementations.
    """
    out = np.empty(count)
    n = 0
    while n < count:
        u = 2.0 * rng.random() - 1.0
        v = 2.0 * rng.random() - 1.0
        s = u * u + v * v
        if s >= 1.0 or s == 0.0:
            continue
        f = math.sqrt(-2.0 * math.log(s) / s)
        out[n] = u * f
        n += 1
        if n < count:
            out[n] = v * f
            n += 1
    return out


def perturb_random(game: PolymatrixGame, sigma: float, seed: int) -> PolymatrixGame:
    """Add i.i.d. Gaussian(0, sigma^2) noise to every stored pair matrix.

    Deterministic in (seed, sigma): uniforms come from PCG64(seed) and are
    mapped to normals by the polar method, with pairs visited in sorted order.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    if sigma == 0:
        return PolymatrixGame(game.dims, dict(game.pair_matrices))
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = {}
    for key in sorted(game.pair_matrices):
        m = game.pair_matrices[key]
        noise = sigma * _polar_gaussians(rng, m.size).reshape(m.shape)
        mats[key] = m + noise
    return PolymatrixGame(game.dims, mats)
