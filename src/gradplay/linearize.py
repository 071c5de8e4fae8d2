"""Local matrices around a completely mixed equilibrium, and the simulator's flow.

In tangent coordinates w_i = N_i^T (x_i - x_i*): the reduced game coupling
matrix, the closed-loop dynamics of higher-order gradient play and its affine
families J0 + t J1 along a direction in the pair matrices, and the open-loop
plant split into per-player input/output channels. The same loop builder
also gives the simulator's affine flow operators in full coordinates.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import PROJECTED, GradientPlay, HigherOrderGradientPlay, aux_dim
from .games import PolymatrixGame, validate_profile
from .simplex import NonFiniteInputError, tangent_basis

__all__ = [
    "GameLocalMatrix",
    "ClosedLoopMatrix",
    "DecentralizedPlant",
    "assemble_local_game",
    "assemble_closed_loop",
    "assemble_loop_family",
    "assemble_flow_operators",
    "assemble_plant",
    "singular",
]

SINGULAR_RTOL = 1e-12
MIXED_TOL = 1e-9  # smallest strategy entry of a completely mixed profile


@dataclass(frozen=True)
class GameLocalMatrix:
    """Reduced game coupling in tangent coordinates.

    Block (i, j) is N_i^T M[i,j] N_j for i != j; diagonal blocks are zero, so
    the trace vanishes and pure gradient play can never be asymptotically
    stable at a completely mixed equilibrium.
    """

    matrix: np.ndarray
    dims: tuple
    scale: float = 0.0  # largest |pair entry|, set by from_game; 0.0 judges M at its own scale

    @property
    def n(self) -> int:
        return len(self.dims)

    def block_slice(self, i: int) -> slice:
        return _tangent_slices(self.dims)[i]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.matrix[self.block_slice(i), self.block_slice(j)]

    @classmethod
    def from_game(cls, game: PolymatrixGame) -> GameLocalMatrix:
        """Reduced coupling straight from the pair matrices, with no profile check.

        Raises NonFiniteInputError naming the first pair, in sorted order,
        whose reduced block N_i^T M[i,j] N_j is not finite.
        """
        N = {k: tangent_basis(k).N for k in set(game.dims)}
        slices = _tangent_slices(game.dims)
        ell = sum(k - 1 for k in game.dims)
        M = np.zeros((ell, ell))
        with np.errstate(over="ignore", invalid="ignore"):
            for (i, j), mat in game.pair_matrices.items():
                M[slices[i], slices[j]] = N[game.dims[i]].T @ mat @ N[game.dims[j]]
        entries = itertools.chain(*(m.ravel().tolist() for m in game.pair_matrices.values()))
        local = cls(M, game.dims, max(map(abs, entries), default=0.0))
        if not np.isfinite(M).all():
            bad = next(p for p in sorted(game.pair_matrices) if not np.isfinite(local.block(*p)).all())
            raise NonFiniteInputError(f"reduced coupling block {bad} is not finite")
        return local


def singular(M: np.ndarray, scale: float = 0.0) -> bool:
    """sigma_min(M) <= SINGULAR_RTOL * max(scale, sigma_max(M)), the one singularity rule.

    A game passes its GameLocalMatrix.scale; a plant none, as its rank tests judge A at its own.
    """
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv[-1] <= SINGULAR_RTOL * max(scale, sv[0]))


def _warn_if_singular(local: GameLocalMatrix):
    if singular(local.matrix, local.scale):
        warnings.warn(
            "local game matrix is singular to working precision; "
            "the equilibrium is not isolated",
            stacklevel=3,
        )


_SLICES = {}  # dims -> each player's slice of the tangent coordinates


def _tangent_slices(dims) -> tuple:
    dims = tuple(dims)
    if dims not in _SLICES:
        ends = list(itertools.accumulate((k - 1 for k in dims), initial=0))
        _SLICES[dims] = tuple(slice(a, b) for a, b in zip(ends, ends[1:]))
    return _SLICES[dims]


def assemble_local_game(game: PolymatrixGame, ne_profile) -> GameLocalMatrix:
    """Reduced coupling matrix at a completely mixed equilibrium profile.

    The matrix itself depends only on the pair matrices and tangent bases; the
    profile is required to certify that local coordinates are valid (a
    boundary profile has no tangent-space neighbourhood). Raises
    NonFiniteInputError as GameLocalMatrix.from_game does.
    """
    xs = validate_profile(game, ne_profile)
    if float(np.concatenate(xs).min()) <= MIXED_TOL:
        raise ValueError(
            "profile is not completely mixed; local coordinates are undefined at the boundary"
        )
    local = GameLocalMatrix.from_game(game)
    _warn_if_singular(local)
    return local


@dataclass(frozen=True)
class ClosedLoopMatrix:
    """Closed-loop dynamics matrix of coupled (higher-order) gradient play.

    State ordering is (w, xi, v): all tangent deviations, then all aux states
    player by player, then all washout states.  With block-diagonal E, F, G, H
    collected from the per-player compensators the matrix is

        [[(I+H) M,  G, -H],
         [  F M,    E, -F],
         [   M,     0, -I]].

    Only the first ell columns, those of w, read M, which is what
    assemble_loop_family rests on. Fixed-order players contribute empty aux
    blocks and H_i = 0. A gradient-play player still keeps its washout block
    v_i' = (M w)_i - v_i: nothing reads it, so it only adds the eigenvalue -1
    with multiplicity k_i - 1. The simulator's state has no washout for such
    players.
    """

    matrix: np.ndarray
    dims: tuple
    aux_dims: tuple


def _build_loop(K, lift, dims, specs, washed, xdiag=None):
    """The loop of (higher-order) gradient play, and the players' aux dimensions.

    The state is (x, xi, v): coordinates x with payoffs p = K x, the aux
    states, and washouts v for the tangent rows indexed by washed; lift^T p
    is the tangent payoff and y = lift^T p - v the washout output. E, F, G, H
    stack the players' compensators block-diagonally on the tangent rows. The
    rows are PRE, the input diag(xdiag) x + p + lift (G xi + H y), then AUX:
    xi' = E xi + F y and v' = y. xdiag is the whole x coefficient, None for
    no x term: while finite, K and lift H lift^T K have zero diagonal blocks.
    A lift of None is the identity of tangent coordinates, where X + 0.0
    stands for I @ X: equal bit for bit, as both turn a -0.0 entry +0.0.
    """
    slices = _tangent_slices(dims)
    ell = sum(k - 1 for k in dims)
    auxes = tuple(aux_dim(s) for s in specs)
    ends = tuple(itertools.accumulate(auxes, initial=0))
    L = ends[-1]
    E = np.zeros((L, L))
    F = np.zeros((L, ell))
    G = np.zeros((ell, L))
    H = np.zeros((ell, ell))
    for i, spec in enumerate(specs):
        if isinstance(spec, HigherOrderGradientPlay):
            if spec.signal_dim != dims[i] - 1:
                raise ValueError(
                    f"player {i}: compensator signal dimension {spec.signal_dim} "
                    f"does not match k - 1 = {dims[i] - 1}"
                )
            sl, r = slices[i], slice(ends[i], ends[i + 1])  # tangent, aux rows
            E[r, r] = spec.E
            F[r, sl] = spec.F
            G[sl, r] = spec.G
            H[sl, sl] = spec.H
    m = K.shape[0]
    a = m + L
    with np.errstate(over="ignore", invalid="ignore"):  # callers check what they need finite
        if lift is None:
            TK, LH, LG = K + 0.0, H + 0.0, G + 0.0
        else:
            TK, LH, LG = lift.T @ K, lift @ H, lift @ G
        out = np.zeros((a + TK[washed].shape[0],) * 2)
        out[:m, :m] = K + LH @ TK
        if xdiag is not None:
            out[:m, :m] += np.diag(xdiag)
        out[:m, m:a] = LG
        out[:m, a:] = -LH[:, washed]
        out[m:a, :m] = F @ TK
        out[m:a, m:a] = E
        out[m:a, a:] = -F[:, washed]
        out[a:, :m] = TK[washed]
        out[a:, a:] = -np.eye(out.shape[0] - a)
    return out, auxes


def assemble_closed_loop(local: GameLocalMatrix, specs) -> ClosedLoopMatrix:
    """Closed-loop matrix for per-player dynamics around the equilibrium.

    There the projection acts as the identity on tangent coordinates, so J is
    the loop with lift I, K = M, a washout on every row and no x term: the +x
    of the projection argument cancels the -x of dx. Other rules raise ValueError.
    """
    if len(specs) != local.n:
        raise ValueError(f"need {local.n} specs, got {len(specs)}")
    for i, spec in enumerate(specs):
        if not isinstance(spec, PROJECTED):
            raise ValueError(f"player {i}: {type(spec).__name__} has no closed-loop linearization")
    J, auxes = _build_loop(local.matrix, None, local.dims, specs, slice(None))
    return ClosedLoopMatrix(J, local.dims, auxes)


def assemble_loop_family(game: PolymatrixGame, specs, direction) -> tuple:
    """Matrices (J0, J1) with J0 + t J1 the closed loop of pair matrices M + t D.

    direction maps player pairs (i, j) to D[i,j]. The loop is affine in the
    pair matrices, and only its first ell (w) columns read them, so J1 is the
    loop of the direction alone with every later column zeroed: the w columns
    of the game with no pairs are zero.
    """
    J0 = assemble_closed_loop(GameLocalMatrix.from_game(game), specs).matrix
    D = GameLocalMatrix.from_game(PolymatrixGame(game.dims, direction))
    J1 = assemble_closed_loop(D, specs).matrix
    J1[:, sum(k - 1 for k in game.dims) :] = 0.0
    return J0, J1


def assemble_flow_operators(game: PolymatrixGame, specs):
    """Affine operators (PRE, AUX) of the simulator's flow in full coordinates.

    The flat state y is (x, xi, v): every player's strategy, then the aux
    states, then washout states for the higher-order players only. PRE y is,
    per player, what its rule maps: the projection argument x + p + N u of
    (higher-order) gradient play, and the payoff p of any other rule. AUX y
    is (xi', v'). For the projection family the flow is
    y' = [proj(PRE y) - x; AUX y], with the projection taken per player.
    Raises NonFiniteInputError when a player's rows of PRE or AUX are not
    finite, naming the first player whose payoff or tangent payoff is not.
    """
    if len(specs) != game.n:
        raise ValueError(f"need {game.n} specs, got {len(specs)}")
    K = np.block([[game.pair(i, j) for j in range(game.n)] for i in range(game.n)])
    lift = np.zeros((K.shape[0], sum(k - 1 for k in game.dims)))
    starts = np.cumsum((0,) + game.dims)
    # only compensated players read their tangent payoff; a zero lift for the
    # others keeps one that overflows out of the loop
    for i, sl in enumerate(_tangent_slices(game.dims)):
        if isinstance(specs[i], HigherOrderGradientPlay):
            lift[starts[i] : starts[i + 1], sl] = tangent_basis(game.dims[i]).N
    washed = np.flatnonzero(lift.any(axis=0))  # the tangent rows that have a washout
    projected = [isinstance(s, PROJECTED) for s in specs]
    out, auxes = _build_loop(K, lift, game.dims, specs, washed, np.repeat(projected, game.dims))
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        # 0 * inf in lift^T K and LH @ TK spreads NaN from one player's rows
        # into others', so the name goes to a non-finite payoff row of K, else
        # to an overflowing N_i^T M (player i's washout rows), else to any row
        players = np.arange(game.n)
        tangent = np.repeat(players, np.array(game.dims) - 1)[washed]
        owner = np.concatenate([np.repeat(players, game.dims), np.repeat(players, auxes), tangent])
        payoff = owner[: K.shape[0]][~np.isfinite(K).all(axis=1)]
        overflowed = tangent[~finite[len(owner) - len(tangent) :]]
        bad = next(b for b in (payoff, overflowed, owner[~finite]) if b.size)
        raise NonFiniteInputError(f"flow operators of player {bad.min()} are not finite")
    return out[: K.shape[0]], out[K.shape[0] :]


@dataclass(frozen=True)
class DecentralizedPlant:
    """Open-loop plant seen by the compensators, split per player.

    A = [[M, 0], [M, -I]] is the loop of plain gradient play (ClosedLoopMatrix,
    no xi). Player i injects through B_i = (S_i; 0), S_i selecting its tangent
    block, and measures C_i = S_i^T [M, -I], A's washout rows of that block.
    Fixed modes in closed form: for disjoint inputs Q and outputs R,
    eliminating v at lam != -1 gives rank [[A - lam I, B_Q], [C_R, 0]] = ell +
    rank [[M - lam I, S_Q], [lam/(1 + lam) S_R^T M, 0]]; with Q or R = {i} and
    the other empty, these are also the PBH tests of player i's sub-plant
    [[M, 0], [S_i^T M, -I]]. At lam != 0 a kernel vector (w, u) of the latter
    has (M w)_R = 0, so lam w_R = 0 and u is fixed by w_Q: no rank loss. At
    lam = 0 the output rows vanish: Q fails exactly when rank [M, S_Q] < ell.
    So fixed modes lie only at 0 and exist exactly when M, so A, is singular.
    """

    A: np.ndarray
    B_blocks: tuple
    C_blocks: tuple
    dims: tuple

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def B(self) -> np.ndarray:
        return np.hstack(self.B_blocks)

    @property
    def C(self) -> np.ndarray:
        return np.vstack(self.C_blocks)


def assemble_plant(local: GameLocalMatrix) -> DecentralizedPlant:
    """Build the decentralized plant from the reduced coupling matrix."""
    _warn_if_singular(local)
    A = assemble_closed_loop(local, [GradientPlay()] * local.n).matrix
    ell = local.matrix.shape[0]
    B = np.eye(2 * ell, ell)
    C = A[ell:]  # y = M w - v, the washout rows
    slices = _tangent_slices(local.dims)
    return DecentralizedPlant(
        A, tuple(B[:, sl] for sl in slices), tuple(C[sl] for sl in slices), local.dims
    )
