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

from .dynamics import PROJECTED, HigherOrderGradientPlay, aux_dim, washout_dim
from .games import MIXED_TOL, PolymatrixGame, validate_profile
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

    def __post_init__(self):
        ell = sum(self.dims) - len(self.dims)
        if np.shape(self.matrix) != (ell, ell):
            raise ValueError(
                f"matrix has shape {np.shape(self.matrix)}, but dims {tuple(self.dims)} "
                f"need ({ell}, {ell})"
            )

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
        ell = sum(k - 1 for k in game.dims)
        M = _reduce_pairs(np.zeros((ell, ell)), game.dims, game.pair_matrices)
        entries = itertools.chain(*(m.ravel().tolist() for m in game.pair_matrices.values()))
        return cls(M, game.dims, max(map(abs, entries), default=0.0))

    def with_pair(self, i: int, j: int, pair: np.ndarray) -> GameLocalMatrix:
        """This coupling with block (i, j) re-reduced from the pair matrix pair.

        The block is N_i^T pair N_j, as from_game writes it, so on the
        reduced coupling of a game this equals from_game of that game with
        pair (i, j) set to pair, bit for bit. The other pairs' entries are not
        kept here, so scale is max(self.scale, largest |pair entry|): that
        game's pair-entry scale unless the old pair (i, j) alone held the
        largest entry, and above it then, so singular errs toward "not
        isolated". Raises ValueError for a pair that is not i != j in range
        with shape (k_i, k_j), and NonFiniteInputError as from_game does.
        """
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"invalid player pair ({i}, {j})")
        pair = np.asarray(pair, dtype=float)
        if pair.shape != (self.dims[i], self.dims[j]):
            raise ValueError(
                f"pair matrix ({i}, {j}) has shape {pair.shape}, "
                f"expected {(self.dims[i], self.dims[j])}"
            )
        M = _reduce_pairs(self.matrix.copy(), self.dims, {(i, j): pair})
        return GameLocalMatrix(M, self.dims, max(self.scale, *map(abs, pair.ravel().tolist())))


def _reduce_pairs(M: np.ndarray, dims, pairs) -> np.ndarray:
    """Write N_i^T P N_j into block (i, j) of M for each pair matrix P at (i, j) of pairs.

    Raises NonFiniteInputError naming the first pair, in sorted order, whose
    block is not finite.
    """
    N = {k: tangent_basis(k).N for k in set(dims)}
    slices = _tangent_slices(dims)
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), mat in pairs.items():
            M[slices[i], slices[j]] = N[dims[i]].T @ mat @ N[dims[j]]
    if not np.isfinite(M).all():
        for i, j in sorted(pairs):
            if not np.isfinite(M[slices[i], slices[j]]).all():
                raise NonFiniteInputError(f"reduced coupling block {(i, j)} is not finite")
    return M


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

    The state is the simulator's, in tangent coordinates: all deviations w,
    all aux states xi player by player, then the washouts v of the players
    that carry one (dynamics.washout_dim). With block-diagonal E, F, G, H of
    the players' compensators and S selecting the washed rows, the matrix is

        [[(I+H) M,  G, -H S],
         [  F M,    E, -F S],
         [ S^T M,   0,  -I ]].

    Only the first ell columns, those of w, read M, so assemble_loop_family takes
    J1 from one loop of the reduced direction. A fixed-order player adds no aux
    state, no washout and H_i = 0: with no compensated player the loop is M, of trace 0.
    """

    matrix: np.ndarray
    dims: tuple
    aux_dims: tuple


_last_loop = (None, None)  # (key, blocks) of the last _loop_blocks call


def _loop_blocks(lift, dims, specs) -> tuple:
    """What the loop takes from all but K: (aux dims, washed, lift H, F, the static output).

    washed lists the tangent rows of the players with a washout, and the
    static output holds lift G, -lift H[:, washed], E, -F[:, washed] and -I,
    with zeros where K enters. The last result is kept, keyed by value: lift's
    shape and bytes, dims, and the shapes and bytes of each compensated
    player's E, F, G and H, as other rules add no blocks and no washout.
    """
    global _last_loop
    key = (
        None if lift is None else (lift.shape, lift.tobytes()),
        tuple(dims),
        [
            (s.E.shape, s.F.shape, s.G.shape, s.H.shape)
            + (s.E.tobytes(), s.F.tobytes(), s.G.tobytes(), s.H.tobytes())
            if isinstance(s, HigherOrderGradientPlay)
            else None
            for s in specs
        ],
    )
    last_key, last = _last_loop  # one read: another thread may replace the slot
    if last_key == key:
        return last
    slices = _tangent_slices(dims)
    ell = sum(k - 1 for k in dims)
    auxes = tuple(aux_dim(s) for s in specs)
    ends = tuple(itertools.accumulate(auxes, initial=0))
    L = ends[-1]
    rows = [sl.start + r for s, k, sl in zip(specs, dims, slices) for r in range(washout_dim(s, k))]
    washed = np.array(rows, dtype=int)
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
    with np.errstate(over="ignore", invalid="ignore"):
        LH, LG = (H + 0.0, G + 0.0) if lift is None else (lift @ H, lift @ G)
    m = LH.shape[0]
    a = m + L
    static = np.zeros((a + washed.size,) * 2)
    static[:m, m:a] = LG
    static[:m, a:] = -LH[:, washed]
    static[m:a, m:a] = E
    static[m:a, a:] = -F[:, washed]
    static[a:, a:] = -np.eye(static.shape[0] - a)
    for arr in (washed, LH, F, static):
        arr.flags.writeable = False
    blocks = (auxes, washed, LH, F, static)
    _last_loop = (key, blocks)
    return blocks


def _build_loop(K, lift, dims, specs, xdiag=None):
    """The loop of (higher-order) gradient play, and the players' aux dimensions.

    The state is (x, xi, v): coordinates x with payoffs p = K x, the aux
    states, and washouts v for the washed tangent rows of _loop_blocks; lift^T p
    is the tangent payoff and y = lift^T p - v the washout output. E, F, G, H
    stack the players' compensators block-diagonally on the tangent rows. The
    rows are PRE, the input diag(xdiag) x + p + lift (G xi + H y), then AUX:
    xi' = E xi + F y and v' = y. xdiag is the whole x coefficient, None for
    no x term: while finite, K and lift H lift^T K have zero diagonal blocks.
    A lift of None is the identity of tangent coordinates, where X + 0.0
    stands for I @ X: equal bit for bit, as both turn a -0.0 entry +0.0.
    Only the x columns read K: each call fills them in a fresh copy of the
    kept blocks of _loop_blocks.
    """
    auxes, washed, LH, F, static = _loop_blocks(lift, dims, specs)
    m = LH.shape[0]
    a = m + F.shape[0]
    out = static.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # callers check what they need finite
        TK = K + 0.0 if lift is None else lift.T @ K
        out[:m, :m] = K + LH @ TK
        if xdiag is not None:
            out[:m, :m] += np.diag(xdiag)
        out[m:a, :m] = F @ TK
        out[a:, :m] = TK[washed]
    return out, auxes


def assemble_closed_loop(local: GameLocalMatrix, specs) -> ClosedLoopMatrix:
    """The Jacobian of the simulator's flow at the equilibrium, on its tangent state.

    There the projection acts as the identity on tangent coordinates, so J is
    the loop with lift I, K = M and no x term: the +x of the projection
    argument cancels the -x of dx. Other rules raise ValueError.
    """
    if len(specs) != local.n:
        raise ValueError(f"need {local.n} specs, got {len(specs)}")
    for i, spec in enumerate(specs):
        if not isinstance(spec, PROJECTED):
            raise ValueError(f"player {i}: {type(spec).__name__} has no closed-loop linearization")
    J, auxes = _build_loop(local.matrix, None, local.dims, specs)
    return ClosedLoopMatrix(J, local.dims, auxes)


def assemble_loop_family(game: PolymatrixGame, specs, direction) -> tuple:
    """Matrices (J0, J1) with J0 + t J1 the closed loop of pair matrices M + t D.

    direction maps player pairs (i, j) to D[i,j]. Only the loop's first ell (w)
    columns read the pair matrices, so J1 is the loop written from the reduced D
    with every later column zeroed: one game reduced and one loop assembled.
    """
    local = GameLocalMatrix.from_game(game)
    J0 = assemble_closed_loop(local, specs).matrix
    pairs = PolymatrixGame(game.dims, direction).pair_matrices  # checks the direction
    D = _reduce_pairs(np.zeros_like(local.matrix), game.dims, pairs)
    J1 = _build_loop(D, None, game.dims, specs)[0]
    J1[:, len(D) :] = 0.0
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
    # only players with a washout read their tangent payoff; a zero lift for
    # the others keeps one that overflows out of the loop
    for i, sl in enumerate(_tangent_slices(game.dims)):
        if washout_dim(specs[i], game.dims[i]):
            lift[starts[i] : starts[i + 1], sl] = tangent_basis(game.dims[i]).N
    projected = [isinstance(s, PROJECTED) for s in specs]
    out, auxes = _build_loop(K, lift, game.dims, specs, np.repeat(projected, game.dims))
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        # 0 * inf in lift^T K and LH @ TK spreads NaN from one player's rows
        # into others', so the name goes to a non-finite payoff row of K, else
        # to an overflowing N_i^T M (player i's washout rows), else to any row
        players = np.arange(game.n)
        tangent = np.repeat(players, [washout_dim(s, k) for s, k in zip(specs, game.dims)])
        owner = np.concatenate([np.repeat(players, game.dims), np.repeat(players, auxes), tangent])
        payoff = owner[: K.shape[0]][~np.isfinite(K).all(axis=1)]
        overflowed = tangent[~finite[len(owner) - len(tangent) :]]
        bad = next(b for b in (payoff, overflowed, owner[~finite]) if b.size)
        raise NonFiniteInputError(f"flow operators of player {bad.min()} are not finite")
    return out[: K.shape[0]], out[K.shape[0] :]


@dataclass(frozen=True)
class DecentralizedPlant:
    """Open-loop plant seen by the compensators, split per player.

    A = [[M, 0], [M, -I]] is gradient play with a washout on each tangent row
    (w, v; no xi). Player i injects through B_i = (S_i; 0), S_i selecting its tangent
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
    ell = local.matrix.shape[0]
    A = np.block([[local.matrix, np.zeros((ell, ell))], [local.matrix, -np.eye(ell)]])
    B, C = np.eye(2 * ell, ell), A[ell:]  # C: A's washout rows, y = M w - v
    slices = _tangent_slices(local.dims)
    return DecentralizedPlant(
        A, tuple(B[:, sl] for sl in slices), tuple(C[sl] for sl in slices), local.dims
    )
