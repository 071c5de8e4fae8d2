"""Shared fixtures and test-only generators."""

import itertools

import numpy as np
import pytest

from gradplay import run_scenario
from gradplay.analysis import STABILITY_TOL
from gradplay.dynamics import (
    GradientPlay,
    HigherOrderGradientPlay,
    PlayerState,
    Replicator,
    SmoothFictitiousPlay,
    StateDerivative,
    aux_dim,
)
from gradplay.games import PolymatrixGame, make_jordan, payoff_map
from gradplay.linearize import assemble_loop_family
from gradplay.simplex import NonFiniteInputError, project_to_simplex, tangent_basis


def random_mixed_ne_game(rng, n=None, dims=None, singular=False):
    """Random polymatrix game with a known completely mixed equilibrium.

    Draw random pair matrices, then shift one matrix per player by a rank-one
    correction so that the player's payoff vector at the chosen interior
    profile is constant; a constant payoff makes every strategy a best
    response, so the profile is a completely mixed equilibrium by
    construction.  With singular=True player 0 receives no payoffs at all,
    which zeroes a block row of the reduced coupling matrix.
    """
    if n is None:
        n = int(rng.integers(2, 5))
    if dims is None:
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
    profile = []
    for k in dims:
        x = rng.random(k) + 0.2
        profile.append(x / x.sum())
    mats = {}
    for i in range(n):
        if singular and i == 0:
            continue
        opponents = [j for j in range(n) if j != i]
        chosen = [j for j in opponents if rng.random() < 0.7]
        if not chosen:
            chosen = [opponents[int(rng.integers(len(opponents)))]]
        for j in chosen:
            mats[(i, j)] = rng.normal(size=(dims[i], dims[j]))
        r = sum(mats[(i, j)] @ profile[j] for j in chosen)
        c = r - np.mean(r)
        j0 = chosen[0]
        mats[(i, j0)] = mats[(i, j0)] - np.outer(c, np.ones(dims[j0]))
    return PolymatrixGame(tuple(dims), mats), profile


def reference_derivative(spec, state, payoff, basis=None):
    """One player's (dx, dxi, dv), each rule's formula written out on its own.

    The reference for the rules' batched updates and for dynamics.derivative,
    which evaluates one row of them. A payoff that is not finite, or a
    replicator dx that is not (zero strategy mass, overflow), raises
    NonFiniteInputError.
    """
    x, p = np.asarray(state.x, dtype=float), np.asarray(payoff, dtype=float)
    if not np.isfinite(p).all():
        raise NonFiniteInputError("payoff entries must be finite")
    empty = np.zeros(0)
    if isinstance(spec, Replicator):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dx = x * (p - float(x @ p) / x.sum())
        if not np.isfinite(dx).all():
            raise NonFiniteInputError("replicator derivative is not finite")
        return StateDerivative(dx, empty, empty)
    if isinstance(spec, SmoothFictitiousPlay):
        e = np.exp((p - np.max(p)) / spec.temperature)
        return StateDerivative(e / np.sum(e) - x, empty, empty)
    if isinstance(spec, GradientPlay):
        return StateDerivative(project_to_simplex(x + p) - x, empty, empty)
    xi, v = np.asarray(state.xi, dtype=float), np.asarray(state.v, dtype=float)
    y = basis.N.T @ p - v
    u = spec.G @ xi + spec.H @ y
    return StateDerivative(project_to_simplex(x + p + basis.N @ u) - x, spec.E @ xi + spec.F @ y, y)


def finite_difference_loop(game, specs, ne, h=1e-6):
    """Closed-loop Jacobian by central differences of reference_derivative.

    The state is (w, xi, v) in tangent coordinates around the completely mixed
    equilibrium ne with steady washouts: player i plays x_i = ne_i + N_i w_i
    and sees the payoffs of everyone's strategies. Only a higher-order player
    has a washout, N_i^T p_i(ne) + v_i, as only its rule reads one.
    """
    bases = [tangent_basis(k) for k in game.dims]
    w_at = np.cumsum([0] + [k - 1 for k in game.dims])
    xi_at = np.cumsum([0] + [aux_dim(s) for s in specs])
    washes = [isinstance(s, HigherOrderGradientPlay) * (k - 1) for s, k in zip(specs, game.dims)]
    v_at = np.cumsum([0] + washes)
    ell, aux = int(w_at[-1]), int(xi_at[-1])
    v_star = [b.N.T @ payoff_map(game, i, ne) for i, b in enumerate(bases)]

    def flow(z):
        w, xi, v = z[:ell], z[ell : ell + aux], z[ell + aux :]
        xs = [ne[i] + b.N @ w[w_at[i] : w_at[i + 1]] for i, b in enumerate(bases)]
        dw, dxi, dv = [], [], []
        for i, (spec, b) in enumerate(zip(specs, bases)):
            p = payoff_map(game, i, xs)
            if isinstance(spec, HigherOrderGradientPlay):
                vi = v_star[i] + v[v_at[i] : v_at[i + 1]]
                state = PlayerState(xs[i], xi[xi_at[i] : xi_at[i + 1]], vi)
            else:
                state = PlayerState.fixed_order(xs[i])
            d = reference_derivative(spec, state, p, b)
            dw.append(b.N.T @ d.dx)
            dxi.append(d.dxi)
            dv.append(d.dv)
        return np.concatenate(dw + dxi + dv)

    dim = ell + aux + int(v_at[-1])
    J = np.empty((dim, dim))
    for c in range(dim):
        e = np.zeros(dim)
        e[c] = h
        J[:, c] = (flow(e) - flow(-e)) / (2 * h)
    return J


def rank_test_points(A):
    """The lam of A with Re >= -STABILITY_TOL, in eigvals order, then 0 unless
    some eigenvalue is exactly 0: rounding can move a defective zero off 0,
    where the rank drops, and at 0 of a nonsingular A it never drops."""
    ev = np.linalg.eigvals(A)
    return list(ev[ev.real >= -STABILITY_TOL]) + ([] if (ev == 0).any() else [0])


def svd_rank(M):
    """Numerical rank by the SVD rule alone: the singular values above
    max(m, n)*eps*s_max, each matrix of a stack (..., m, n) on its own.

    The reference for robust_rank, which proves full rank without an SVD
    where it can; an empty matrix has rank 0.
    """
    M = np.asarray(M)
    if M.size == 0:
        ranks = np.zeros(M.shape[:-2], dtype=int)
    else:
        sv = np.linalg.svd(M, compute_uv=False)
        ranks = np.sum(sv > max(M.shape[-2:]) * np.finfo(float).eps * sv[..., :1], axis=-1)
    return int(ranks) if M.ndim == 2 else ranks


def per_point_rank_drops(A, B, C, points=None):
    """The points (rank_test_points(A) if None) where the bordered matrix
    [[A - lam I, B], [C, 0]] has rank below dim(A).

    One svd_rank call per point, each pair member on its own, so the
    reference shares no full-rank certificate with the rank tests.
    """
    n = A.shape[0]
    bordered = np.block([[A, B], [C, np.zeros((C.shape[0], B.shape[1]))]])
    shift = np.eye(*bordered.shape)
    shift[n:] = 0
    return [
        lam
        for lam in (rank_test_points(A) if points is None else points)
        if svd_rank(bordered - lam * shift) < n
    ]


def exhaustive_fixed_modes(plant):
    """Fixed-mode witnesses (lam, Q, R) of a decentralized plant, by brute force.

    For every split of the players into an input set Q and an output set R,
    and every point of rank_test_points(A), in that order, lam is a witness
    when [[A - lam I, B|Q], [C|R, 0]] has rank below dim(A). No closed form:
    every unstable eigenvalue, and 0, meets every partition.
    """
    n = plant.A.shape[0]
    points = rank_test_points(plant.A)
    players = range(plant.n)
    out = []
    for qsize in range(plant.n + 1):
        for Q in itertools.combinations(players, qsize):
            R = tuple(i for i in players if i not in Q)
            BQ = np.hstack([np.zeros((n, 0))] + [plant.B_blocks[q] for q in Q])
            CR = np.vstack([np.zeros((0, n))] + [plant.C_blocks[r] for r in R])
            out += [(lam, Q, R) for lam in per_point_rank_drops(plant.A, BQ, CR, points)]
    return out


def rescaled_jordan_split(specs):
    """Gain split A - mu B C of the closed loop of make_jordan(mu).

    make_jordan scales pair (0, 1), so along that pair from the game without
    it the loop family gives A = J0 and B C = -J1. J1 has one nonzero
    column, player 1's tangent coordinate w_1, which C selects.
    """
    jordan = make_jordan(1.0)
    rest = {key: m for key, m in jordan.pair_matrices.items() if key != (0, 1)}
    A, J1 = assemble_loop_family(
        PolymatrixGame(jordan.dims, rest), specs, {(0, 1): jordan.pair(0, 1)}
    )
    (col,) = np.flatnonzero(np.any(J1 != 0.0, axis=0))
    return A, -J1[:, [col]], np.eye(A.shape[0])[[col]]


@pytest.fixture(scope="session")
def jordan_single_result():
    return run_scenario("jordan-single")


@pytest.fixture(scope="session")
def jordan_random_result():
    return run_scenario("jordan-random")


@pytest.fixture(scope="session")
def jordan_diagonal_small_result():
    return run_scenario("jordan-diagonal")


@pytest.fixture(scope="session")
def jordan_diagonal_large_result():
    return run_scenario(
        "jordan-diagonal", {"deltas": (0.8831, 0.4259, 0.7546), "horizon": 60.0}
    )


@pytest.fixture(scope="session")
def jordan_rescaled_results():
    return {
        1.0: run_scenario("jordan-rescaled"),
        5.0: run_scenario("jordan-rescaled", {"mu": 5.0, "horizon": 30.0}),
        0.1: run_scenario("jordan-rescaled", {"mu": 0.1, "horizon": 60.0}),
    }


@pytest.fixture(scope="session")
def coordination_stabilize_result():
    return run_scenario("coordination-stabilize")


@pytest.fixture(scope="session")
def coordination_openloop_result():
    return run_scenario("coordination-openloop")
