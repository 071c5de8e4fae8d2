"""Seeded input generators for the gradplay benchmark.

Every generator draws from a numpy Generator built from the benchmark's
--seed, so the same seed always yields the same games, probe directions and
learning-rule mixes.  The program under test only ever sees the generated
objects.
"""

from __future__ import annotations

import numpy as np

import gradplay as gp
from gradplay.games import PolymatrixGame

# (n players, k strategies each) for analyze-scaling: n up to 10 at k = 2, 8
# at k = 3 and 7 at k = 4, so that no game takes more than about 0.4 s on a
# 2-core x86-64 machine.  (8, 4), (9, 3) and (10, 3) take 1.1, 1.1 and 2.5 s;
# with them a pass is 6.5 s and a run gets too few passes to time each game
# more than twice.
ANALYZE_CELLS = tuple(
    (n, k) for n in range(2, 11) for k in (2, 3, 4) if n <= {2: 10, 3: 8, 4: 7}[k]
)
TINY_ANALYZE_CELLS = ((2, 2), (3, 2), (3, 3))

# (n, k, rule mix) for generic-rules; every mix keeps at least one player off
# the gradient-play family, so simulate_coupled takes its generic branch.
RULE_MIXES = ("replicator", "smooth_fp", "mixed")
GENERIC_CELLS = tuple((n, k, mix) for n in (2, 3, 4, 5) for k in (2, 3) for mix in RULE_MIXES)
TINY_GENERIC_CELLS = ((2, 2, "mixed"), (3, 2, "smooth_fp"))


def random_mixed_ne_game(rng, dims):
    """Random polymatrix game with a known completely mixed equilibrium.

    The test suite's construction: draw random pair matrices, then shift one
    matrix per player by a rank-one correction so that the player's payoff
    vector at a random interior profile is constant.  A constant payoff makes
    every strategy a best response, so the profile is a completely mixed
    equilibrium by construction.  Where the test suite keeps each opponent
    with probability 0.7, here each player gets exactly max(1, round(0.7 (n-1)))
    random opponents, so every seed yields the same number of pair matrices
    and so the same work.
    """
    n = len(dims)
    profile = []
    for k in dims:
        x = rng.random(k) + 0.2
        profile.append(x / x.sum())
    mats = {}
    count = max(1, round(0.7 * (n - 1)))
    for i in range(n):
        opponents = [j for j in range(n) if j != i]
        chosen = sorted(int(j) for j in rng.choice(opponents, size=count, replace=False))
        for j in chosen:
            mats[(i, j)] = rng.normal(size=(dims[i], dims[j]))
        r = sum(mats[(i, j)] @ profile[j] for j in chosen)
        c = r - np.mean(r)
        j0 = chosen[0]
        mats[(i, j0)] = mats[(i, j0)] - np.outer(c, np.ones(dims[j0]))
    return PolymatrixGame(tuple(dims), mats), profile


def reduced_coupling(game) -> np.ndarray:
    """N_i^T M[i,j] N_j blocks, computed here so generation stays untraced."""
    bases = [gp.tangent_basis(k) for k in game.dims]
    off = np.cumsum([0] + [k - 1 for k in game.dims])
    M = np.zeros((off[-1], off[-1]))
    for (i, j), mat in game.pair_matrices.items():
        M[off[i] : off[i + 1], off[j] : off[j + 1]] = bases[i].N.T @ mat @ bases[j].N
    return M


def unstable_counts(game):
    """(all, real) eigenvalues of the reduced coupling matrix with Re >= -tol.

    The plant A = [[M, 0], [M, -I]] adds only eigenvalues at -1, so these are
    the eigenvalues the PBH and partition rank tests visit; a real one costs
    a real SVD per test, a complex one a complex SVD, about three times more.
    None for a singular M, whose equilibrium is not isolated
    (assemble_local_game warns about it); such draws are degenerate inputs.
    """
    M = reduced_coupling(game)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < 1e-9 * sv[0]:
        return None
    ev = np.linalg.eigvals(M)
    unstable = ev[ev.real >= -gp.analysis.STABILITY_TOL]
    return unstable.size, int(np.sum(unstable.imag == 0))


def analyze_games(rng, cells):
    """One random equilibrium game per (n, k) cell, for analyze-scaling.

    The partition loop runs 2^n rank tests per unstable eigenvalue, and the
    unstable count of a random game spreads by about +-2 around ell/2
    (ell = n(k-1)).  Draws repeat until there are exactly ell // 2 unstable
    eigenvalues, of which the most common number are real (1 for an odd
    count, else 2), so every seed asks for the same work and run-to-run
    spread reflects the program, not the draw.  About one draw in five
    qualifies.  Player 0 runs the anticipatory compensator of the
    jordan-single preset; the others run plain gradient play.
    """
    out = []
    for n, k in cells:
        u = n * (k - 1) // 2
        target = (u, 1 if u % 2 else 2)
        while True:
            game, profile = random_mixed_ne_game(rng, [k] * n)
            if unstable_counts(game) == target:
                break
        specs = [gp.make_anticipatory(50.0, 5.0, k)] + [gp.GradientPlay() for _ in range(n - 1)]
        out.append((f"n{n}k{k}", game, profile, specs))
    return out


def probe_direction(rng, game):
    """Gaussian direction over the game's stored pairs, unit Frobenius norm."""
    keys = sorted(game.pair_matrices)
    mats = {key: rng.normal(size=game.pair_matrices[key].shape) for key in keys}
    norm = np.sqrt(sum(float(np.sum(m * m)) for m in mats.values()))
    return {key: m / norm for key, m in mats.items()}


def probe_games(rng, count):
    """Small random games that all-anticipatory play stabilizes.

    robustness_probe needs a stable nominal loop; roughly one draw in six is
    stable for three or four players, so draws repeat until the loop is.
    """
    shapes = ((2, 2), (3, 2), (4, 2))
    out = []
    for idx in range(count):
        n, k = shapes[idx % len(shapes)]
        specs = [gp.make_anticipatory(5.0, 1.0, k) for _ in range(n)]
        while True:
            game, profile = random_mixed_ne_game(rng, [k] * n)
            if closed_loop_abscissa(game, specs) < -1e-3:
                break
        out.append((f"n{n}k{k}", game, profile, specs))
    return out


def closed_loop_matrix(game, specs) -> np.ndarray:
    """Closed-loop matrix from the benchmark's own reduced coupling.

    Goes through the public assemble_closed_loop so any change to the loop
    structure is seen by the gate too; only the coupling is computed here.
    """
    local = gp.GameLocalMatrix(reduced_coupling(game), game.dims)
    return gp.assemble_closed_loop(local, specs).matrix


def closed_loop_abscissa(game, specs) -> float:
    return float(np.max(np.linalg.eigvals(closed_loop_matrix(game, specs)).real))


def rule_mix(rng, n, k, mix):
    """Per-player rules for one generic-rules item."""
    if mix == "replicator":
        return [gp.Replicator() for _ in range(n)]
    if mix == "smooth_fp":
        return [gp.SmoothFictitiousPlay(float(rng.uniform(0.1, 1.0))) for _ in range(n)]
    # at least one replicator (generic branch) and one gradient player
    kinds = [bool(rng.random() < 0.5) for _ in range(n)]
    kinds[0], kinds[-1] = True, False
    rng.shuffle(kinds)
    return [gp.Replicator() if rep else gp.GradientPlay() for rep in kinds]


def generic_runs(rng, cells):
    """(label, game, specs, init) for generic-rules, started near the equilibrium."""
    out = []
    for n, k, mix in cells:
        game, profile = random_mixed_ne_game(rng, [k] * n)
        specs = rule_mix(rng, n, k, mix)
        init = []
        for x in profile:
            y = 0.8 * x + 0.2 * rng.dirichlet(np.ones(k))
            init.append(y / y.sum())
        out.append((f"n{n}k{k}-{mix}", game, specs, init))
    return out
