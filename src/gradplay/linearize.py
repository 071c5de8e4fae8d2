"""Local matrices around a completely mixed equilibrium, and the simulator's flow.

In tangent coordinates w_i = N_i^T (x_i - x_i*): the reduced game coupling
matrix, the closed-loop dynamics of higher-order gradient play and its affine
families J0 + t J1 along a direction in the pair matrices, and the open-loop
plant split into per-player input/output channels. The same loop builder
also gives the simulator's affine flow operators in full coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import GradientPlay, HigherOrderGradientPlay, aux_dim
from .games import PolymatrixGame, validate_profile
from .simplex import NonFiniteInputError, tangent_basis

__all__ = [
    "GameLocalMatrix",
    "ClosedLoopMatrix",
    "DecentralizedPlant",
    "assemble_local_game",
    "assemble_closed_loop",
    "assemble_game_loop",
    "assemble_loop_family",
    "assemble_flow_operators",
    "assemble_plant",
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

    @property
    def n(self) -> int:
        return len(self.dims)

    def block_slice(self, i: int) -> slice:
        return _tangent_slices(self.dims)[i]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.matrix[self.block_slice(i), self.block_slice(j)]


def _warn_if_singular(M: np.ndarray, what: str):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RTOL * sv[0]:
        warnings.warn(
            f"{what} is singular to working precision; "
            "the equilibrium is not isolated",
            stacklevel=3,
        )


def _tangent_slices(dims) -> list:
    out = []
    start = 0
    for k in dims:
        out.append(slice(start, start + k - 1))
        start += k - 1
    return out


def _local_matrix_raw(game: PolymatrixGame, bases) -> np.ndarray:
    slices = _tangent_slices(game.dims)
    ell = sum(k - 1 for k in game.dims)
    M = np.zeros((ell, ell))
    for (i, j), mat in game.pair_matrices.items():
        M[slices[i], slices[j]] = bases[i].N.T @ mat @ bases[j].N
    return M


def assemble_local_game(game: PolymatrixGame, ne_profile) -> GameLocalMatrix:
    """Reduced coupling matrix at a completely mixed equilibrium profile.

    The matrix itself depends only on the pair matrices and tangent bases; the
    profile is required to certify that local coordinates are valid (a
    boundary profile has no tangent-space neighbourhood).
    """
    xs = validate_profile(game, ne_profile)
    if any(float(np.min(x)) <= MIXED_TOL for x in xs):
        raise ValueError(
            "profile is not completely mixed; local coordinates are undefined at the boundary"
        )
    M = _local_matrix_raw(game, [tangent_basis(k) for k in game.dims])
    _warn_if_singular(M, "local game matrix")
    return GameLocalMatrix(M, game.dims)


@dataclass(frozen=True)
class ClosedLoopMatrix:
    """Closed-loop dynamics matrix of coupled (higher-order) gradient play.

    State ordering is (w, xi, v): all tangent deviations, then all aux states
    player by player, then all washout states.  With block-diagonal E, F, G, H
    collected from the per-player compensators the matrix is

        [[(I+H) M,  G, -H],
         [  F M,    E, -F],
         [   M,     0, -I]].

    Fixed-order players contribute empty aux blocks and H_i = 0. A
    gradient-play player still keeps its washout block v_i' = (M w)_i - v_i:
    nothing reads it, so it only adds the eigenvalue -1 with multiplicity
    k_i - 1. The simulator's state has no washout for such players.
    """

    matrix: np.ndarray
    dims: tuple
    aux_dims: tuple


def _stacked_compensators(dims, specs):
    """Block-diagonal E, F, G, H of the players' compensators, on tangent rows."""
    slices = _tangent_slices(dims)
    ell = sum(k - 1 for k in dims)
    auxes = tuple(aux_dim(s) for s in specs)
    L = sum(auxes)
    E = np.zeros((L, L))
    F = np.zeros((L, ell))
    G = np.zeros((ell, L))
    H = np.zeros((ell, ell))
    row = 0
    for i, spec in enumerate(specs):
        if isinstance(spec, HigherOrderGradientPlay):
            sl = slices[i]
            if spec.signal_dim != dims[i] - 1:
                raise ValueError(
                    f"player {i}: compensator signal dimension {spec.signal_dim} "
                    f"does not match k - 1 = {dims[i] - 1}"
                )
            li = spec.aux_dim
            E[row : row + li, row : row + li] = spec.E
            F[row : row + li, sl] = spec.F
            G[sl, row : row + li] = spec.G
            H[sl, sl] = spec.H
            row += li
    return E, F, G, H, auxes


def _fill_loop(out, K, lift, E, F, G, H, washed, xdiag) -> None:
    """Write the loop of (higher-order) gradient play into the zeroed matrix out.

    The state is (x, xi, v): coordinates x with payoffs p = K x, the aux
    states, and washouts v for the tangent rows indexed by washed; lift^T p
    is the tangent payoff and y = lift^T p - v the washout output. The rows
    are PRE, the input diag(xdiag) x + p + lift (G xi + H y), then AUX:
    xi' = E xi + F y and v' = y. xdiag is the whole x coefficient: while
    finite, K and lift H lift^T K have zero diagonal blocks.
    """
    m = K.shape[0]
    a = m + E.shape[0]
    TK = lift.T @ K
    LH = lift @ H
    out[:m, :m] = K + LH @ TK + np.diag(xdiag)
    out[:m, m:a] = lift @ G
    out[:m, a:] = -LH[:, washed]
    out[m:a, :m] = F @ TK
    out[m:a, m:a] = E
    out[m:a, a:] = -F[:, washed]
    out[a:, :m] = TK[washed]
    out[a:, a:] = -np.eye(out.shape[0] - a)


def assemble_closed_loop(local: GameLocalMatrix, specs) -> ClosedLoopMatrix:
    """Closed-loop matrix for per-player dynamics around the equilibrium.

    There the projection acts as the identity on tangent coordinates, so J is
    the loop with lift I, K = M, a washout on every row and no x term: the +x
    of the projection argument cancels the -x of dx. Other rules raise ValueError.
    """
    if len(specs) != local.n:
        raise ValueError(f"need {local.n} specs, got {len(specs)}")
    for i, spec in enumerate(specs):
        if not isinstance(spec, (GradientPlay, HigherOrderGradientPlay)):
            name = type(spec).__name__
            raise ValueError(f"player {i}: {name} has no closed-loop linearization")
    ell = local.matrix.shape[0]
    E, F, G, H, auxes = _stacked_compensators(local.dims, specs)
    J = np.zeros((2 * ell + E.shape[0],) * 2)
    _fill_loop(J, local.matrix, np.eye(ell), E, F, G, H, slice(None), np.zeros(ell))
    return ClosedLoopMatrix(J, local.dims, auxes)


def assemble_game_loop(game: PolymatrixGame, specs) -> ClosedLoopMatrix:
    """Closed-loop matrix straight from the pair matrices, with no profile check.

    For sweeps that rebuild the game at every evaluation, and for the loop
    families of assemble_loop_family.
    """
    bases = [tangent_basis(k) for k in game.dims]
    local = GameLocalMatrix(_local_matrix_raw(game, bases), game.dims)
    return assemble_closed_loop(local, specs)


def assemble_loop_family(game: PolymatrixGame, specs, direction) -> tuple:
    """Matrices (J0, J1) with J0 + t J1 the closed loop of pair matrices M + t D.

    direction maps player pairs (i, j) to D[i,j]. The loop is affine in the
    pair matrices, so J1 is the loop of the direction alone less the loop of
    the game with no pairs: the compensator and washout blocks cancel exactly.
    """
    J0 = assemble_game_loop(game, specs).matrix
    JD = assemble_game_loop(PolymatrixGame(game.dims, direction), specs).matrix
    J_empty = assemble_game_loop(PolymatrixGame(game.dims), specs).matrix
    return J0, JD - J_empty


def assemble_flow_operators(game: PolymatrixGame, specs):
    """Affine operators (PRE, AUX) of the simulator's flow in full coordinates.

    The flat state y is (x, xi, v): every player's strategy, then the aux
    states, then washout states for the higher-order players only. PRE y is,
    per player, what its rule maps: the projection argument x + p + N u of
    (higher-order) gradient play, and the payoff p of any other rule. AUX y
    is (xi', v'). For the projection family the flow is
    y' = [proj(PRE y) - x; AUX y], with the projection taken per player.
    Raises NonFiniteInputError, naming the first player, when a player's
    rows of PRE or AUX are not finite.
    """
    if len(specs) != game.n:
        raise ValueError(f"need {game.n} specs, got {len(specs)}")
    E, F, G, H, auxes = _stacked_compensators(game.dims, specs)
    K = np.block([[game.pair(i, j) for j in range(game.n)] for i in range(game.n)])
    lift = np.zeros((K.shape[0], sum(k - 1 for k in game.dims)))
    starts = np.cumsum((0,) + game.dims)
    # only compensated players read their tangent payoff; a zero lift for the
    # others keeps one that overflows (0 * inf) out of rows that never read it
    for i, sl in enumerate(_tangent_slices(game.dims)):
        if isinstance(specs[i], HigherOrderGradientPlay):
            lift[starts[i] : starts[i + 1], sl] = tangent_basis(game.dims[i]).N
    washed = np.flatnonzero(lift.any(axis=0))  # the tangent rows that have a washout
    nx = K.shape[0]
    out = np.zeros((nx + E.shape[0] + len(washed),) * 2)
    # the projection argument carries x; the other rules' rows read the payoff alone
    projected = [isinstance(s, (GradientPlay, HigherOrderGradientPlay)) for s in specs]
    with np.errstate(over="ignore", invalid="ignore"):
        _fill_loop(out, K, lift, E, F, G, H, washed, np.repeat(projected, game.dims))
    # an overflowing N_i^T M leaves player i's flow undefined at every state
    players = np.arange(game.n)
    tangent = np.repeat(players, np.array(game.dims) - 1)[washed]
    owner = np.concatenate([np.repeat(players, game.dims), np.repeat(players, auxes), tangent])
    bad = owner[~np.isfinite(out).all(axis=1)]
    if bad.size:
        raise NonFiniteInputError(f"flow operators of player {bad.min()} are not finite")
    return out[:nx], out[nx:]


@dataclass(frozen=True)
class DecentralizedPlant:
    """Open-loop plant seen by the compensators, split per player.

    A = [[M, 0], [M, -I]] on state (w, v); player i injects through
    B_i = (S_i; 0) and measures y_i = (M_i-row, -S_i^T)(w; v), where S_i
    selects player i's tangent block.  Stacking all B_i gives (I; 0) and
    stacking all C_i gives (M, -I), the washout rows of A, so each block is a
    slice of one of these.
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
    M = local.matrix
    ell = M.shape[0]
    _warn_if_singular(M, "local game matrix")
    A = np.block([[M, np.zeros((ell, ell))], [M, -np.eye(ell)]])
    B = np.eye(2 * ell, ell)
    C = A[ell:]  # y = M w - v, the washout rows
    slices = [local.block_slice(i) for i in range(local.n)]
    return DecentralizedPlant(
        A, tuple(B[:, sl] for sl in slices), tuple(C[sl] for sl in slices), local.dims
    )
