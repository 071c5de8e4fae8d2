import itertools
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gradplay.analysis
import gradplay.linearize
from gradplay.analysis import (
    PROBE_GAP,
    PROBE_SCAN_POINTS,
    REPEAT_TOL,
    STABILITY_TOL,
    SWEEP_REFINE_WIDTH,
    PbhResult,
    check_mode_support,
    decentralized_stabilizable,
    default_gain_grid,
    gain_sweep,
    markov_report,
    pbh_detectable,
    pbh_stabilizable,
    robust_rank,
    robustness_probe,
    spectral_abscissa,
    strong_stabilizability_2x2,
)
from gradplay.dynamics import GradientPlay, make_anticipatory
from gradplay.games import (
    PolymatrixGame,
    make_coordination,
    make_jordan,
    uniform_profile,
)
from gradplay.linearize import (
    SINGULAR_RTOL,
    GameLocalMatrix,
    assemble_closed_loop,
    assemble_local_game,
    assemble_loop_family,
    assemble_plant,
)
from gradplay.simplex import NonFiniteInputError

from conftest import (
    exhaustive_fixed_modes,
    finite_difference_loop,
    per_point_rank_drops,
    random_mixed_ne_game,
    rank_test_points,
    rescaled_jordan_split,
    svd_rank,
)


def jordan_local():
    g = make_jordan()
    return assemble_local_game(g, uniform_profile(g))


def jordan_plant():
    return assemble_plant(jordan_local())


def all_anticipatory_specs():
    return [make_anticipatory(5.0, 1.0, 2, gamma2=0.8) for _ in range(3)]


def loop_for_scale(scale, specs):
    g = make_jordan(scale)
    return assemble_closed_loop(assemble_local_game(g, uniform_profile(g)), specs).matrix


# --- spectra -----------------------------------------------------------------


def test_spectral_abscissa_jordan_local():
    v = spectral_abscissa(jordan_local().matrix)
    # roots of x^3 + 1: -1 and 1/2 +- i sqrt(3)/2
    expected = np.sort_complex(
        np.array([-1.0, 0.5 + np.sqrt(3) / 2 * 1j, 0.5 - np.sqrt(3) / 2 * 1j])
    )
    assert_allclose(np.sort_complex(v.eigenvalues), expected, atol=1e-9)
    assert v.spectral_abscissa == pytest.approx(0.5, abs=1e-9)
    assert not v.stable


def test_spectral_abscissa_stable_case():
    v = spectral_abscissa(-np.eye(4))
    assert v.stable and v.spectral_abscissa == pytest.approx(-1.0)


def test_spectral_abscissa_two_player_plant():
    v = spectral_abscissa(assemble_plant(
        assemble_local_game(make_coordination(), uniform_profile(make_coordination()))
    ).A)
    assert_allclose(
        np.sort(v.eigenvalues.real), [-1.0, -1.0, -1.0, 1.0], atol=1e-10
    )
    assert np.max(np.abs(v.eigenvalues.imag)) <= 1e-10


def test_eigenvalues_conjugate_pairs_on_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        ev = spectral_abscissa(A).eigenvalues
        for z in ev[np.abs(ev.imag) > 1e-12]:
            assert np.min(np.abs(ev - np.conj(z))) <= 1e-9


def test_spectral_abscissa_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_abscissa(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        spectral_abscissa(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --- PBH ---------------------------------------------------------------------


def test_pbh_full_plant():
    plant = jordan_plant()
    assert pbh_stabilizable(plant.A, plant.B).ok
    assert pbh_detectable(plant.A, plant.C).ok


def test_pbh_single_player_channels():
    plant = jordan_plant()
    for i in range(3):
        assert pbh_stabilizable(plant.A, plant.B_blocks[i]).ok
        assert pbh_detectable(plant.A, plant.C_blocks[i]).ok


def _single_channel_pbh(M, sl):
    # player i alone: A = [[M, 0], [S_i^T M, -I]], B = (S_i; 0), C = (S_i^T M, -I)
    S = np.eye(len(M))[:, sl]
    k = S.shape[1]
    A = np.block([[M, np.zeros((len(M), k))], [S.T @ M, -np.eye(k)]])
    B = np.vstack([S, np.zeros((k, k))])
    C = np.hstack([S.T @ M, -np.eye(k)])
    return pbh_stabilizable(A, B), pbh_detectable(A, C)


def _channel_verdicts(local):
    # each player's (ok, witness count) pairs on the full plant, checked
    # against the same pairs on that player's single-channel sub-plant
    plant = assemble_plant(local)
    out = []
    for i in range(local.n):
        full = (pbh_stabilizable(plant.A, plant.B_blocks[i]), pbh_detectable(plant.A, plant.C_blocks[i]))
        got = [(r.ok, len(r.witnesses)) for r in full]
        assert got == [(r.ok, len(r.witnesses)) for r in _single_channel_pbh(local.matrix, local.block_slice(i))]
        out.append(got)
    return out


def test_per_player_pbh_is_the_single_channel_verdict():
    # seeded equilibrium games with nonsingular M: 72 of 200 draws kept,
    # 235 channels, every one passing both tests
    rng = np.random.default_rng(11)
    kept, channels = 0, []
    for _ in range(200):
        game, _ = random_mixed_ne_game(rng)
        local = GameLocalMatrix.from_game(game)
        sv = np.linalg.svd(local.matrix, compute_uv=False)
        if sv[-1] <= SINGULAR_RTOL * sv[0]:
            continue
        kept += 1
        channels += _channel_verdicts(local)
    assert (kept, len(channels)) == (72, 235)
    assert all(stab[0] and det[0] for stab, det in channels)
    # two strongly connected pairs {0, 1} and {2, 3}, where player 0 also reads
    # player 2: inputs of 0 and 1 cannot reach the modes of {2, 3}, and outputs
    # of 2 and 3 cannot see those of {0, 1}
    rng = np.random.default_rng(3)
    pairs = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2)]
    for _ in range(100):
        game = PolymatrixGame((2,) * 4, {p: rng.normal(size=(2, 2)) for p in pairs})
        verdicts = _channel_verdicts(GameLocalMatrix.from_game(game))
        assert [(stab[0], det[0]) for stab, det in verdicts] == [(False, True)] * 2 + [(True, False)] * 2


def test_pbh_counterexamples_with_witness():
    A = np.diag([1.0, -1.0])
    res = pbh_stabilizable(A, np.array([[0.0], [1.0]]))
    assert not res.ok
    assert res.witnesses[0] == pytest.approx(1.0)
    res = pbh_detectable(A, np.array([[0.0, 1.0]]))
    assert not res.ok
    assert res.witnesses[0] == pytest.approx(1.0)


def test_pbh_returns_both_members_of_a_fixed_pair_in_eigvals_order():
    # the pair is tested once, yet both members come back, as eigvals lists them
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    e3 = np.array([[0.0], [0.0], [1.0]])
    assert pbh_stabilizable(A, e3).witnesses == (1j, -1j)
    assert pbh_detectable(A.T, e3.T).witnesses == (1j, -1j)


def test_pbh_on_real_and_complex_points_matches_the_per_point_reference():
    # unstable 0.3 +- 2i, +-i, 0.5 and 1.5 beside a stable -1, rotated; the
    # input reaches 0.3 +- 2i and 1.5 only
    T = np.zeros((7, 7))
    T[:2, :2] = [[0.3, 2.0], [-2.0, 0.3]]
    T[2:4, 2:4] = [[0.0, 1.0], [-1.0, 0.0]]
    T[4:, 4:] = np.diag([0.5, 1.5, -1.0])
    Q = np.linalg.qr(np.random.default_rng(1).normal(size=(7, 7)))[0]
    A = Q @ T @ Q.T
    B = Q[:, [0, 5]]
    stab = pbh_stabilizable(A, B)
    assert len(stab.witnesses) == 3 and sum(w.imag == 0 for w in stab.witnesses) == 1
    assert stab.witnesses == tuple(per_point_rank_drops(A, B, np.zeros((0, 7))))
    det = pbh_detectable(A.T, B.T)
    assert det.witnesses == tuple(per_point_rank_drops(A.T, np.zeros((7, 0)), B.T))


def test_robust_rank_threshold_decade_invariance():
    # verdicts on the named plants do not depend on the threshold within a
    # decade around 1e-10 * largest singular value
    for local in (jordan_local(),):
        plant = assemble_plant(local)
        n = plant.A.shape[0]
        for lam in np.linalg.eigvals(plant.A):
            if lam.real < -1e-8:
                continue
            M = np.hstack([plant.A - lam * np.eye(n), plant.B])
            smax = np.linalg.svd(M, compute_uv=False)[0]
            ranks = {
                robust_rank(M, tol=smax * 1e-10 / np.sqrt(10)),
                robust_rank(M, tol=smax * 1e-10 * np.sqrt(10)),
            }
            assert len(ranks) == 1


BAD_TOLS = [float("nan"), float("inf"), -float("inf"), -1e-12]


@pytest.mark.parametrize(
    "tol, shape",
    [pytest.param(tol, (3, 3), id=str(tol)) for tol in BAD_TOLS]
    + [pytest.param(tol, (0, 3), id=f"{tol}-empty") for tol in BAD_TOLS],
)
def test_robust_rank_rejects_bad_tol(tol, shape):
    with pytest.raises(ValueError, match="tol"):
        robust_rank(np.eye(*shape), tol=tol)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_robust_rank_of_empty_matrix_is_zero(shape):
    assert robust_rank(np.zeros(shape)) == 0


def random_draw(rng, dtype):
    """draw(*shape): standard normal entries, complex ones when dtype is complex."""

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if dtype is complex else x

    return draw


@pytest.mark.parametrize("dtype", [float, complex])
def test_robust_rank_of_a_stack_is_the_rank_of_each_matrix(dtype):
    # ranks 0..4 of 4 x 5 products, each at its own scale: the threshold
    # follows each matrix's own largest singular value
    draw = random_draw(np.random.default_rng(3), dtype)
    stack = np.stack(
        [draw(4, r) @ draw(r, 5) * scale for r in range(5) for scale in (1e-20, 1.0, 1e20)]
    )
    ranks = robust_rank(stack)
    assert ranks.tolist() == [robust_rank(m) for m in stack] == [r for r in range(5) for _ in range(3)]
    assert robust_rank(stack.reshape(3, 5, 4, 5)).tolist() == ranks.reshape(3, 5).tolist()
    assert type(robust_rank(stack[-1])) is int


@pytest.mark.parametrize("shape", [(4, 0, 3), (4, 3, 0), (0, 3, 3)])
def test_robust_rank_of_a_stack_with_an_empty_dimension(shape):
    ranks = robust_rank(np.zeros(shape))
    assert ranks.shape == shape[:1] and not ranks.any()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_robust_rank_rejects_a_non_finite_entry(bad):
    # an inf once read as rank 0, and a NaN failed inside the SVD
    with pytest.raises(NonFiniteInputError, match="finite"):
        robust_rank([[bad, 1.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteInputError, match="finite"):
        robust_rank(np.stack([np.eye(3), np.diag([1.0, bad * 1j, 1.0])]), tol=1e-3)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (5, 5), (45, 30), (30, 45), (30, 30)], ids=str)
def test_robust_rank_matches_the_svd_rule_on_products_at_every_scale(shape, dtype):
    # rank-r products from 1e-300 to 1e300: the Gram of one beyond about
    # 1e+-100 would overflow or underflow, so its trace sends it to the SVD
    m, n = shape
    p = min(shape)
    draw = random_draw(np.random.default_rng(m * n), dtype)
    scales = 10.0 ** np.arange(-300, 301, 25)
    for r in sorted({0, 1, 2, p // 2, p - 2, p - 1, p}):
        stack = np.stack([draw(m, r) * scale @ draw(r, n) for scale in scales])
        assert np.isfinite(stack).all()
        ranks = [robust_rank(X) for X in stack]
        assert ranks == svd_rank(stack).tolist(), r
        assert robust_rank(stack).tolist() == ranks, r
        if r == p:
            assert ranks == [p] * scales.size


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(45, 30), (30, 45), (30, 30), (7, 5)], ids=str)
def test_robust_rank_matches_the_svd_rule_across_singular_value_gaps(shape, dtype):
    # s_min / s_max from 1e-2 to 1e-16 in quarter decades, across the
    # certificate's own edge near s_min = 1e-4 |X|_F and the SVD rule's at
    # max(m, n) eps: one small singular value, or all spread geometrically
    m, n = shape
    p = min(shape)
    draw = random_draw(np.random.default_rng(m + n), dtype)
    U, V = np.linalg.qr(draw(m, p))[0], np.linalg.qr(draw(n, p))[0]
    ranks = set()
    for gap in 10.0 ** np.arange(-2.0, -16.01, -0.25):
        for s in (np.append(np.ones(p - 1), gap), np.geomspace(1.0, gap, p)):
            X = (U * s) @ V.conj().T
            rank = robust_rank(X)
            assert rank == svd_rank(X), gap
            ranks.add(rank)
    assert p in ranks and min(ranks) < p


@pytest.mark.parametrize("dtype", [float, complex])
def test_robust_rank_of_a_stack_with_one_deficient_member(dtype):
    # one member of rank 2 sends the whole stack to the SVD rule, which
    # still gives every member its own rank
    draw = random_draw(np.random.default_rng(5), dtype)
    stack = np.stack([draw(6, 9) for _ in range(5)])
    stack[3] = draw(6, 2) @ draw(2, 9)
    assert robust_rank(stack).tolist() == svd_rank(stack).tolist() == [6, 6, 6, 2, 6]
    assert robust_rank(stack[[0, 1, 2, 4]]).tolist() == [6] * 4


def stacked_svd_shapes(monkeypatch):
    """Shapes of the np.linalg.svd calls on stacks: the rank tests' calls,
    since singular() takes one matrix."""
    shapes = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def test_full_rank_pbh_stacks_make_no_svd_call(monkeypatch):
    # every bordered matrix of the jordan plant keeps full rank, which one
    # Cholesky per stack proves; the rounded defective zero's rank drop at 0
    # still goes through the SVD
    plant = jordan_plant()
    shapes = stacked_svd_shapes(monkeypatch)
    calls = rank_call_counter(monkeypatch)
    for B, C in [(plant.B, plant.C)] + list(zip(plant.B_blocks, plant.C_blocks)):
        assert pbh_stabilizable(plant.A, B) and pbh_detectable(plant.A, C)
    assert len(calls) == 8 and shapes == []
    mats = {p: np.array(m, dtype=float) for p, m in DEFECTIVE_ZERO_PAIRS.items()}
    with pytest.warns(UserWarning, match="singular"):
        plant = assemble_plant(GameLocalMatrix.from_game(PolymatrixGame((2,) * 5, mats)))
    assert pbh_detectable(plant.A, plant.C).witnesses == (0,)
    assert shapes


# --- eigenvector block support ----------------------------------------------


def test_mode_support_jordan_satisfied():
    report = check_mode_support(jordan_local())
    assert report.satisfied and not report.indeterminate
    # two unstable eigenvalues examined (conjugate pair)
    assert len(report.entries) == 2


def _decoupled_coordination_pairs():
    return PolymatrixGame(
        (2, 2, 2, 2),
        {(0, 1): np.eye(2), (1, 0): np.eye(2), (2, 3): 2.0 * np.eye(2), (3, 2): 2.0 * np.eye(2)},
    )


def test_mode_support_decoupled_block_violated():
    # two decoupled coordination pairs with distinct couplings: each unstable
    # eigenvector lives on a single pair's block
    g = _decoupled_coordination_pairs()
    local = assemble_local_game(g, uniform_profile(g))
    report = check_mode_support(local)
    assert not report.satisfied
    assert not report.indeterminate
    assert any(not entry.ok for entry in report.entries)


def test_mode_support_agrees_with_per_player_pbh():
    # Two independent algorithms: block norms of scipy's left and right
    # eigenvectors of M, and SVD rank tests on the plant A = [[M, 0], [M, -I]].
    # At an eigenvalue lam of M other than -1, A's left eigenvector is (p, 0)
    # with p M = lam p, and C_i maps A's right eigenvector to
    # lam^2 / (1 + lam) w_i with M w = lam w. So where every unstable
    # eigenvalue is simple and away from 0 and -1, "every player's PBH tests
    # pass" and "every mode has support on every block" are the same verdict.
    rng = np.random.default_rng(20261019)
    games = [_decoupled_coordination_pairs()]
    profiles = [uniform_profile(games[0])]
    for draw in range(200):
        n = int(rng.integers(2, 6))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        if draw % 2:
            game, profile = random_mixed_ne_game(rng, n=n, dims=dims)
        else:
            # players 0..s-1 and s..n-1 as two groups, decoupled, one-way coupled
            # (the second reads the first) or fully coupled: the first two leave
            # some mode off some block (assemble_local_game needs no equilibrium)
            n, s = n + 2, int(rng.integers(2, n + 1))
            reads = [(0, 0), (1, 1), (1, 0), (0, 1)][: 2 + draw % 6 // 2]
            pairs = [
                (i, j) for i in range(n) for j in range(n) if i != j and (i >= s, j >= s) in reads
            ]
            k = dims[0]
            game = PolymatrixGame((k,) * n, {p: rng.normal(size=(k, k)) for p in pairs})
            profile = uniform_profile(game)
        games.append(game)
        profiles.append(profile)
    verdicts = []
    for game, profile in zip(games, profiles):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            local = assemble_local_game(game, profile)
        if caught:  # singular M: 0 is an eigenvalue
            continue
        lam = np.linalg.eigvals(local.matrix)
        scale = max(1.0, float(np.max(np.abs(lam))))
        unstable = lam[lam.real >= -gradplay.analysis.STABILITY_TOL]
        nearest = [np.sort(np.abs(lam - z))[1] for z in unstable]  # the closest other eigenvalue
        away = min(np.min(np.abs(unstable)), np.min(np.abs(unstable + 1)))
        if min(nearest) <= 1e-6 * scale or away <= 1e-6:
            continue
        plant = assemble_plant(local)
        pbh = all(
            pbh_stabilizable(plant.A, B).ok and pbh_detectable(plant.A, C).ok
            for B, C in zip(plant.B_blocks, plant.C_blocks)
        )
        support = check_mode_support(local)
        assert not support.indeterminate
        assert support.satisfied == pbh
        verdicts.append(pbh)
    assert verdicts[0] is False  # the decoupled pairs fail both tests
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def test_mode_support_matches_the_per_entry_loop_on_random_games():
    # the loop the stacked block norms replaced: one np.linalg.norm per block
    # and entry, the multiplicity counted per entry; summation order differs,
    # so the norms agree to 16 eps
    import scipy.linalg

    rng = np.random.default_rng(9001)
    rtol = 16 * np.finfo(float).eps
    for draw in range(400):
        g, _ = random_mixed_ne_game(rng, singular=draw % 4 == 0)
        local = GameLocalMatrix.from_game(g)
        report = check_mode_support(local)
        lam, VL, VR = scipy.linalg.eig(local.matrix, left=True, right=True)
        lam, unstable, scale, zero, rounded = gradplay.analysis._spectrum(local.matrix, lam)
        slices = [local.block_slice(i) for i in range(local.n)]
        rows = zip(lam[unstable], zero[unstable], VL.T[unstable], VR.T[unstable])
        assert len(report.entries) == np.sum(unstable)
        for entry, (lv, z, left, right) in zip(report.entries, rows):
            near = zero if rounded and z else np.abs(lam - lv) <= REPEAT_TOL * scale
            assert (entry.eigenvalue, entry.multiplicity) == (lv, np.sum(near))
            assert entry.indeterminate == (entry.multiplicity > 1)
            if entry.indeterminate:
                assert (entry.left_block_norms, entry.right_block_norms, entry.ok) == ((), (), False)
                continue
            for got, v in ((entry.left_block_norms, left), (entry.right_block_norms, right)):
                want = [np.linalg.norm(v[sl]) / np.linalg.norm(v) for sl in slices]
                assert_allclose(got, want, rtol=rtol, atol=0)
            norms = entry.left_block_norms + entry.right_block_norms
            assert entry.ok == all(x > gradplay.analysis.MODE_BLOCK_TOL for x in norms)


def test_mode_support_ignores_stable_eigenvalues():
    report = check_mode_support(jordan_local())
    for entry in report.entries:
        assert entry.eigenvalue.real >= -1e-8


def test_mode_support_repeated_eigenvalue_indeterminate():
    # block-diagonal coupling with a repeated unstable eigenvalue
    g = PolymatrixGame(
        (2, 2, 2, 2),
        {
            (0, 1): np.array([[0.0, 1.0], [1.0, 0.0]]),
            (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]]),
            (2, 3): np.array([[0.0, 1.0], [1.0, 0.0]]),
            (3, 2): np.array([[0.0, 1.0], [1.0, 0.0]]),
        },
    )
    local = assemble_local_game(g, uniform_profile(g))
    report = check_mode_support(local)
    assert report.indeterminate and not report.satisfied


def test_mode_support_repeat_radius_scales_with_the_matrix():
    # an almost defective pair at +-3.1e-8i lies inside the repeat radius
    # REPEAT_TOL * n max|M| = 1.6e-7, though outside 1e-8 times the
    # spectral radius 3; so its eigenvectors, almost parallel, are not read
    # as those of two simple eigenvalues
    H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    H = np.kron(np.kron(H2, H2), H2) / np.sqrt(8)
    T = np.diag([0.0, 0.0, -2.0, -3.0, -2.0, -3.0, -2.0, -3.0])
    T[0, 1], T[1, 0] = 1.0, -1e-15
    M = H @ T @ H
    report = check_mode_support(GameLocalMatrix(M, (2,) * 8))
    gap = abs(report.entries[0].eigenvalue - report.entries[1].eigenvalue)
    assert REPEAT_TOL * 3 < gap < REPEAT_TOL * 8 * np.abs(M).max()
    assert [(e.multiplicity, e.indeterminate) for e in report.entries] == [(2, True), (2, True)]
    assert report.indeterminate and not report.satisfied


# --- decentralized rank condition ---------------------------------------------


def test_decentralized_jordan_all_partitions():
    res = decentralized_stabilizable(jordan_plant())
    assert res.ok
    assert res.required_rank == 6
    assert res.failures == ()


def test_decentralized_coordination_plant_passes():
    g = make_coordination()
    plant = assemble_plant(assemble_local_game(g, uniform_profile(g)))
    assert decentralized_stabilizable(plant).ok


def test_decentralized_extremes_match_pbh_on_random_plants():
    rng = np.random.default_rng(99)
    n_checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(100):
            singular = trial % 3 == 0
            g, profile = random_mixed_ne_game(
                rng, n=int(rng.integers(2, 4)), singular=singular
            )
            local = assemble_local_game(g, profile)
            plant = assemble_plant(local)
            dec = decentralized_stabilizable(plant)
            stab = pbh_stabilizable(plant.A, plant.B)
            det = pbh_detectable(plant.A, plant.C)
            q_all = tuple(f.eigenvalue for f in dec.failures if f.output_players == ())
            r_all = tuple(f.eigenvalue for f in dec.failures if f.input_players == ())
            assert (not q_all) == stab.ok and q_all == stab.witnesses
            assert (not r_all) == det.ok and r_all == det.witnesses
            n_checked += 1
    assert n_checked == 100


def test_decentralized_detects_singular_fixed_mode():
    # a player with no incoming payoffs leaves an unmovable eigenvalue at 0
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, profile = random_mixed_ne_game(rng, n=3, dims=[2, 2, 2], singular=True)
        plant = assemble_plant(assemble_local_game(g, profile))
    res = decentralized_stabilizable(plant)
    assert not res.ok
    assert any(abs(f.eigenvalue) < 1e-6 for f in res.failures)


def witnesses(check):
    return [(f.eigenvalue, f.input_players, f.output_players) for f in check.failures]


def rank_call_counter(monkeypatch):
    calls = []
    real = gradplay.analysis.robust_rank
    monkeypatch.setattr(
        gradplay.analysis, "robust_rank", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    return calls


def test_decentralized_screen_matches_exhaustive_reference():
    # isolated equilibria (nonsingular M) never have a fixed mode: the paper's
    # first claim; the reference visits every unstable eigenvalue, and 0
    rng = np.random.default_rng(2024)
    fixed = {True: 0, False: 0}
    draws = {True: 0, False: 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(300):
            g, profile = random_mixed_ne_game(rng, singular=trial % 3 == 0)
            local = assemble_local_game(g, profile)
            plant = assemble_plant(local)
            dec = decentralized_stabilizable(plant)
            assert witnesses(dec) == exhaustive_fixed_modes(plant)
            sv = np.linalg.svd(local.matrix, compute_uv=False)
            isolated = bool(sv[-1] >= SINGULAR_RTOL * sv[0])
            draws[isolated] += 1
            fixed[isolated] += not dec.ok
    assert draws[True] >= 50 and draws[False] >= 50
    assert fixed[True] == 0
    assert fixed[False] >= draws[False] // 2


def test_pbh_matches_the_per_point_reference_on_random_plants():
    # the draws of test_decentralized_screen_matches_exhaustive_reference,
    # each full and per-player PBH test against one rank test per eigenvalue
    rng = np.random.default_rng(2024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(300):
            g, profile = random_mixed_ne_game(rng, singular=trial % 3 == 0)
            plant = assemble_plant(assemble_local_game(g, profile))
            A, n = plant.A, plant.A.shape[0]
            no_B, no_C = np.zeros((n, 0)), np.zeros((0, n))
            for B, C in [(plant.B, plant.C)] + list(zip(plant.B_blocks, plant.C_blocks)):
                assert pbh_stabilizable(A, B).witnesses == tuple(per_point_rank_drops(A, B, no_C))
                assert pbh_detectable(A, C).witnesses == tuple(per_point_rank_drops(A, no_B, C))


def test_decentralized_defective_fixed_mode_reaches_rank_tests(monkeypatch):
    # player 1 gets no payoff: M is nilpotent, so lam = 0 is a defective
    # eigenvalue of A, which eigvals returns as exact zeros
    with pytest.warns(UserWarning, match="singular"):
        plant = assemble_plant(GameLocalMatrix(np.array([[0.0, 2.0], [0.0, 0.0]]), (2, 2)))
    calls = rank_call_counter(monkeypatch)
    dec = decentralized_stabilizable(plant)
    assert calls
    assert not dec.ok
    assert witnesses(dec) == exhaustive_fixed_modes(plant)
    assert [(f.input_players, f.output_players) for f in dec.failures] == [
        ((), (0, 1)),
        ((), (0, 1)),
        ((0,), (1,)),
        ((0,), (1,)),
    ]
    assert all(abs(f.eigenvalue) < 1e-12 for f in dec.failures)


# dims (2,) * 5: M has a defective triple eigenvalue at 0, and three of its
# entries that are 0 in exact arithmetic come out as 2.2e-17
DEFECTIVE_ZERO_PAIRS = {
    (0, 2): [[0, -1], [1, 0]],
    (0, 3): [[-1, -1], [0, 0]],
    (1, 0): [[1, -1], [0, -1]],
    (1, 3): [[0, -1], [1, 0]],
    (2, 0): [[-1, 1], [0, 0]],
    (2, 3): [[-1, -1], [0, 1]],
    (3, 2): [[-1, -2], [2, 0]],
    (3, 4): [[0, -1], [1, 1]],
    (4, 1): [[0, 0], [0, -1]],
}


def test_rounded_defective_zero_is_a_fixed_mode_of_every_rank_test():
    # eigvals spreads the triple zero over a cluster of radius 1.8e-6, where
    # every bordered matrix keeps full rank; the rank drops only at 0 itself
    mats = {p: np.array(m, dtype=float) for p, m in DEFECTIVE_ZERO_PAIRS.items()}
    local = GameLocalMatrix.from_game(PolymatrixGame((2,) * 5, mats))
    with pytest.warns(UserWarning, match="singular"):
        plant = assemble_plant(local)
    cluster = np.sort(np.abs(np.linalg.eigvals(local.matrix)))[:3]
    assert cluster.min() > 1e-6
    det = pbh_detectable(plant.A, plant.C)
    assert not det.ok and det.witnesses == (0,)
    dec = decentralized_stabilizable(plant)
    assert not dec.ok and all(f.eigenvalue == 0 for f in dec.failures)
    # 0 is a fixed mode of every partition whose inputs leave out player 0
    partitions = [
        (Q, tuple(i for i in range(5) if i not in Q))
        for size in range(6)
        for Q in itertools.combinations(range(5), size)
    ]
    assert [(f.input_players, f.output_players) for f in dec.failures] == [
        p for p in partitions if 0 not in p[0]
    ]
    # the two unstable members of the cluster cannot be told from the zero
    support = check_mode_support(local)
    assert support.indeterminate and not support.satisfied
    members = [e for e in support.entries if abs(e.eigenvalue) < 1e-5]
    assert [(e.multiplicity, e.indeterminate) for e in members] == [(3, True), (3, True)]
    assert all(not e.indeterminate for e in support.entries if abs(e.eigenvalue) > 0.1)


def test_mode_support_rounded_zero_cluster_with_a_tiny_member_is_indeterminate():
    # M has rank 2 of 4 and a fourfold zero that eigvals returns as a triple
    # spread over 1.8e-6 and a member at 6.7e-17: no eigenvalue is exactly 0,
    # so the unstable members are one cluster, not simple modes
    pairs = {
        (0, 1): [[1, 0], [2, 0]],
        (0, 2): [[1, 1], [0, 0]],
        (1, 3): [[0, 2], [-1, 1]],
        (2, 1): [[-1, 1], [0, -1]],
        (2, 3): [[0, 0], [-1, -1]],
        (3, 0): [[0, 2], [0, 1]],
    }
    mats = {p: np.array(m, dtype=float) for p, m in pairs.items()}
    local = GameLocalMatrix.from_game(PolymatrixGame((2,) * 4, mats))
    assert 0 < np.abs(np.linalg.eigvals(local.matrix)).min() < 1e-15
    support = check_mode_support(local)
    assert support.indeterminate and not support.satisfied
    assert [(e.multiplicity, e.indeterminate) for e in support.entries] == [(4, True)] * 3
    with pytest.warns(UserWarning, match="singular"):
        plant = assemble_plant(local)
    assert witnesses(decentralized_stabilizable(plant)) == exhaustive_fixed_modes(plant)


def test_small_eigenvalue_beside_a_zero_keeps_its_own_witness():
    # an exact zero: 1e-5 is visited as it is, and e1 cannot reach it
    diag = pbh_stabilizable(np.diag([0.0, 1e-5]), [[1.0], [0.0]])
    assert not diag.ok and diag.witnesses == (1e-5,)
    # a defective triple zero rounded over a radius of 6e-6, beside a simple
    # eigenvalue at 1e-5: the input reaches the zero's chain but not 1e-5
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    T = np.diag([1.0, 1.0, 0.0], 1)
    T[3, 3] = 1e-5
    A = Q @ T @ Q.T
    assert np.abs(np.linalg.eigvals(A)).min() > 1e-6
    stab = pbh_stabilizable(A, Q[:, [2]])
    assert not stab.ok and len(stab.witnesses) == 1
    assert abs(stab.witnesses[0] - 1e-5) < 1e-12
    det = pbh_detectable(A.T, Q[:, [2]].T)
    assert not det.ok and len(det.witnesses) == 1
    assert abs(det.witnesses[0] - 1e-5) < 1e-12
    # where the input misses the chain too, 0 is a witness beside 1e-5
    assert 0 in pbh_stabilizable(A, Q[:, [3]]).witnesses


def eigvals_counter(monkeypatch, A):
    """Count np.linalg.eigvals calls on A, from an empty spectrum slot."""
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(gradplay.analysis, "_last_spectrum", (None, None))
    monkeypatch.setattr(
        np.linalg, "eigvals", lambda M: calls.append(np.array_equal(M, A)) or real(M)
    )
    return calls


@pytest.mark.parametrize("singular", [False, True], ids=["isolated", "singular"])
def test_one_plant_solves_one_eigenproblem(monkeypatch, singular):
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, profile = random_mixed_ne_game(rng, n=3, dims=[2, 3, 2], singular=singular)
        plant = assemble_plant(assemble_local_game(g, profile))
    calls = eigvals_counter(monkeypatch, plant.A)
    decentralized_stabilizable(plant)
    assert calls == ([True] if singular else [])  # a nonsingular A needs no spectrum
    pbh_stabilizable(plant.A, plant.B)
    pbh_detectable(plant.A, plant.C)
    for b, c in zip(plant.B_blocks, plant.C_blocks):
        pbh_stabilizable(plant.A, b)
        pbh_detectable(plant.A, c)
    decentralized_stabilizable(plant)
    assert calls == [True]


def test_a_matrix_edited_in_place_gets_a_fresh_spectrum(monkeypatch):
    A = np.diag([0.5, -1.0, 2.0])
    B = np.array([[1.0], [0.0], [0.0]])
    calls = eigvals_counter(monkeypatch, A)
    assert pbh_stabilizable(A, B).witnesses == (2.0,)
    A[2, 2] = -2.0
    assert pbh_stabilizable(A, B).ok
    A[0, 0] = 3.0
    assert pbh_stabilizable(A, B).ok
    A[1, 1] = 4.0
    assert pbh_stabilizable(A, B).witnesses == (4.0,)
    assert calls == [True] * 4


def test_cached_spectrum_is_read_only():
    A = jordan_plant().A
    first = gradplay.analysis._spectrum(A)
    assert gradplay.analysis._spectrum(A.copy()) is first
    ev, unstable, _, zero, _ = first
    for arr in (ev, unstable, zero):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def cold_bordered_stacks(A, points, B, C):
    """The stacks of a rank test built from scratch: the bordered matrix,
    the points merged with their conjugates, then one stack per dtype, real
    first, each a copy of the bordered matrix with lam off its A diagonal."""
    n = A.shape[0]
    bordered = np.zeros((n + C.shape[0], n + B.shape[1]))
    bordered[:n, :n], bordered[:n, n:], bordered[n:, :n] = A, B, C
    keys = np.unique(points.real + 1j * np.abs(points.imag))
    real = keys.imag == 0
    stacks = []
    for lams in (keys.real[real], keys[~real]):
        if lams.size:
            stack = np.repeat(bordered[None].astype(lams.dtype), lams.size, axis=0)
            stack[:, np.arange(n), np.arange(n)] -= lams[:, None]
            stacks.append(stack)
    return stacks


def rank_test_cases():
    """(A, points, [(B, C), ...]): seeded plants, each at its PBH points, at
    the points of its decentralized check and at 0 alone, with its full and
    per-player channels; then A = diag(2, 3, -1) at the reals 2 and 3 and at
    the complex 2 + 3i, whose point arrays hold the same bytes."""
    rng = np.random.default_rng(38)
    cases = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(6):
            g, profile = random_mixed_ne_game(rng, singular=trial % 2 == 0)
            plant = assemble_plant(assemble_local_game(g, profile))
            A, n = plant.A, plant.A.shape[0]
            no_B, no_C = np.zeros((n, 0)), np.zeros((0, n))
            channels = [(plant.B, no_C), (no_B, plant.C)] + [
                pair for b, c in zip(plant.B_blocks, plant.C_blocks) for pair in ((b, no_C), (no_B, c))
            ]
            ev, unstable, _, zero, _ = gradplay.analysis._spectrum(A)
            for points in (np.array(rank_test_points(A)), ev[unstable & zero], np.zeros(1)):
                cases.append((A, points, channels))
    A = np.diag([2.0, 3.0, -1.0])
    real = np.array([2.0, 3.0])
    bare = [(np.zeros((3, 0)), np.zeros((0, 3)))]
    return cases + [(A, real, bare), (A, real.view(complex), bare)]


def test_kept_shifts_border_the_stacks_of_a_cold_build(monkeypatch):
    # point sets of different plants interleaved, each visited once per
    # channel in a row: the kept shifts are built once per visit, every
    # stack robust_rank sees is bit for bit the cold build's, and every
    # witness list that of a call on an emptied slot
    cases = rank_test_cases()
    last = len(cases) - 1  # the complex 2 + 3i right after the reals 2 and 3, and back
    order = list(np.random.default_rng(5).permutation(len(cases))) * 2 + [last - 1, last, last - 1]
    cold = {}
    for idx, (A, points, channels) in enumerate(cases):
        for c, (B, C) in enumerate(channels):
            monkeypatch.setattr(gradplay.analysis, "_last_shifts", (None, None))
            cold[idx, c] = gradplay.analysis._rank_drops(A, points, B, C)
    assert (cold[last - 1, 0], cold[last, 0]) == ([2.0, 3.0], [])
    builds, stacks = [], []
    shifts, rank = gradplay.analysis._shifts, gradplay.analysis.robust_rank
    monkeypatch.setattr(gradplay.analysis, "_shifts", lambda *a: builds.append(1) or shifts(*a))
    monkeypatch.setattr(gradplay.analysis, "robust_rank", lambda M: stacks.append(M) or rank(M))
    monkeypatch.setattr(gradplay.analysis, "_last_shifts", (None, None))
    for idx in order:
        A, points, channels = cases[idx]
        for c, (B, C) in enumerate(channels):
            stacks.clear()
            got = gradplay.analysis._rank_drops(A, points, B, C)
            want = cold_bordered_stacks(A, points, B, C)
            assert [(s.dtype, s.shape, s.tobytes()) for s in stacks] == [
                (s.dtype, s.shape, s.tobytes()) for s in want
            ]
            assert np.array(got).tobytes() == np.array(cold[idx, c]).tobytes()
    assert len(builds) == len(order)


def test_kept_shifts_are_read_only():
    A = np.diag([0.5, -1.0, 2.0])
    A[0, 1] = 3.0
    A[1:, 1:] = [[0.0, 1.0], [-1.0, 0.0]]  # +-i beside the real 0.5
    pbh_stabilizable(A, np.ones(3))
    keys, inverse, blocks = gradplay.analysis._last_shifts[1]
    assert [shifted.dtype for _, shifted in blocks] == [np.float64, np.complex128]
    for arr in (keys, inverse, *itertools.chain(*blocks)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_decentralized_failures_do_not_depend_on_the_kept_shifts(monkeypatch):
    # the singular plants among the first 120 sparse integer games and the
    # first 120 rng-9001 draws, each partition with the slot emptied first
    games = list(itertools.islice(closed_form_games(), 120)) + list(
        itertools.islice(closed_form_games(), 400, 520)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        plants = [assemble_plant(GameLocalMatrix.from_game(g)) for g in games]
    kept = [repr(decentralized_stabilizable(plant)) for plant in plants]
    rank_drops = gradplay.analysis._rank_drops

    def cold(*args):
        gradplay.analysis._last_shifts = (None, None)
        return rank_drops(*args)

    monkeypatch.setattr(gradplay.analysis, "_rank_drops", cold)
    assert [repr(decentralized_stabilizable(plant)) for plant in plants] == kept
    assert sum("ok=False" in r for r in kept) >= 100


def test_a_one_dimensional_channel_is_one_column_or_one_row():
    # a 1-D B read as a row reached every mode; as the column it is, it
    # misses the unstable 1.0
    A = np.diag([1.0, -1.0])
    assert pbh_stabilizable(A, [0.0, 1.0]) == pbh_stabilizable(A, [[0.0], [1.0]])
    assert pbh_stabilizable(A, [0.0, 1.0]) == PbhResult(False, (1.0,))
    assert pbh_detectable(A, [0.0, 1.0]) == pbh_detectable(A, [[0.0, 1.0]])
    assert pbh_detectable(A, [0.0, 1.0]) == PbhResult(False, (1.0,))
    assert pbh_stabilizable(A, [1.0, 0.0]).ok and pbh_detectable(A, [1.0, 0.0]).ok


@pytest.mark.parametrize("B", [np.ones(3), np.ones((3, 1)), np.ones((1, 2)), np.ones((2, 2, 1)), 1.0])
def test_pbh_rejects_a_channel_of_the_wrong_size(B):
    A = np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="B must have 2 rows"):
        pbh_stabilizable(A, B)
    with pytest.raises(ValueError, match="C must have 2 columns"):
        pbh_detectable(A, np.swapaxes(np.asarray(B), 0, -1) if np.ndim(B) > 1 else B)


def test_markov_report_reads_channels_as_the_pbh_tests_do():
    # a 1-D B was read as a row, and the first product C B failed inside numpy
    A = np.diag([1.0, -1.0])
    rep = markov_report(A, [0.0, 1.0], [[0.0, 1.0]])
    assert rep == markov_report(A, [[0.0], [1.0]], [[0.0, 1.0]])
    assert rep.norms == (1.0,) * 9 and rep.first_nonzero_order == 0
    assert markov_report(A, [[0.0], [1.0]], [0.0, 1.0]) == rep
    assert markov_report(A, None, [0.0, 1.0]).first_nonzero_order is None


@pytest.mark.parametrize("X", [np.ones(3), np.ones((3, 1)), np.ones((1, 2)), np.ones((2, 2, 1)), 1.0])
def test_markov_report_rejects_a_channel_of_the_wrong_size(X):
    A = np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="B must have 2 rows"):
        markov_report(A, X, np.ones((1, 2)))
    with pytest.raises(ValueError, match="C must have 2 columns"):
        markov_report(A, np.ones((2, 1)), np.swapaxes(np.asarray(X), 0, -1) if np.ndim(X) > 1 else X)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "check",
    [
        lambda A: pbh_stabilizable(A, [1.0, 0.0, 0.0]),
        lambda A: pbh_detectable(A, [1.0, 0.0, 0.0]),
        lambda A: markov_report(A, np.eye(3)[:, :1], np.eye(3)[:1]),
    ],
    ids=["pbh_stabilizable", "pbh_detectable", "markov_report"],
)
def test_rank_tests_and_markov_report_reject_a_non_finite_a(check, bad, monkeypatch):
    # numpy raised an untyped LinAlgError, or warned inside a product first
    monkeypatch.setattr(gradplay.analysis, "_last_spectrum", (None, None))
    A = np.diag([1.0, -1.0, 2.0])
    A[1, 2] = bad
    with pytest.raises(NonFiniteInputError, match="matrix entries must be finite"):
        check(A)


def test_rounded_defective_zero_lists_every_fixed_mode_partition():
    # M = [[0, 1], [4.4e-17, 0]]: eigvals splits its defective zero to
    # +-6.6e-9, where output rows of size 6.6e-9 restore the rank of
    # partition ((0,), (1,)); at 0 they vanish and rank [M, S_0] = 1 < 2
    mats = {(0, 1): np.array([[0.0, -1.0], [0.0, 1.0]]), (1, 0): np.array([[1.0, 2.0], [-2.0, -1.0]])}
    local = GameLocalMatrix.from_game(PolymatrixGame((2, 2), mats))
    with pytest.warns(UserWarning, match="singular"):
        plant = assemble_plant(local)
    assert 0 < np.abs(np.linalg.eigvals(local.matrix)).min() < 1e-8
    dec = decentralized_stabilizable(plant)
    assert witnesses(dec) == exhaustive_fixed_modes(plant)
    assert sorted({(f.input_players, f.output_players) for f in dec.failures}) == [
        ((), (0, 1)),
        ((0,), (1,)),
    ]
    assert pbh_detectable(plant.A, plant.C).witnesses[-1] == 0


def closed_form_games():
    """800 of the 1,100 games of the closed-form check; the 300 draws of rng
    2024 are test_decentralized_screen_matches_exhaustive_reference's."""
    rng = np.random.default_rng(7)  # the sparse integer games
    for _ in range(400):
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        mats = {p: np.round(rng.normal(size=(k, k))) for p in pairs if rng.random() < 0.5}
        yield PolymatrixGame((k,) * n, mats)
    rng = np.random.default_rng(9001)
    for _ in range(400):
        n = int(rng.integers(2, 5))
        yield random_mixed_ne_game(rng, n=n, dims=[int(rng.integers(2, 4)) for _ in range(n)])[0]


def test_closed_form_fixed_modes_match_the_exhaustive_reference():
    # fixed modes lie only at 0, and exist exactly when A (so M) is singular
    singular = 0
    for g in closed_form_games():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            plant = assemble_plant(GameLocalMatrix.from_game(g))
        dec = decentralized_stabilizable(plant)
        assert witnesses(dec) == exhaustive_fixed_modes(plant), (g.dims, sorted(g.pair_matrices))
        sv = np.linalg.svd(plant.A, compute_uv=False)
        assert dec.ok == (sv[-1] > SINGULAR_RTOL * sv[0])
        assert all(abs(f.eigenvalue) < 1e-6 for f in dec.failures)
        singular += not dec.ok
    assert singular == 499


def test_fixed_mode_iff_equilibrium_not_isolated_on_sparse_integer_games():
    # the paper's first claim read through Wang & Davison: an unstable fixed
    # mode of the plant exists exactly when M is singular
    rng = np.random.default_rng(7)
    isolated_draws = 0
    for _ in range(400):
        n, k = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        mats = {p: np.round(rng.normal(size=(k, k))) for p in pairs if rng.random() < 0.5}
        local = GameLocalMatrix.from_game(PolymatrixGame((k,) * n, mats))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the singular draws
            plant = assemble_plant(local)
        top = max((float(np.max(np.abs(m))) for m in mats.values()), default=0.0)
        isolated = bool(np.linalg.svd(local.matrix, compute_uv=False)[-1] > SINGULAR_RTOL * top)
        assert decentralized_stabilizable(plant).ok == isolated, (n, k, sorted(mats))
        isolated_draws += isolated
    assert isolated_draws == 90


def test_decentralized_screen_is_deterministic():
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g, profile = random_mixed_ne_game(rng, n=3, singular=True)
        plant = assemble_plant(assemble_local_game(g, profile))
    before = np.random.get_state()
    first = decentralized_stabilizable(plant)
    second = decentralized_stabilizable(plant)
    after = np.random.get_state()
    assert first == second
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


def test_decentralized_isolated_n10_game_skips_rank_tests(monkeypatch):
    rng = np.random.default_rng(11)
    while True:
        g, profile = random_mixed_ne_game(rng, n=10, dims=[2] * 10)
        local = assemble_local_game(g, profile)
        sv = np.linalg.svd(local.matrix, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            break
    plant = assemble_plant(local)
    assert np.max(np.linalg.eigvals(plant.A).real) >= 0
    calls = rank_call_counter(monkeypatch)
    assert decentralized_stabilizable(plant).ok
    assert calls == []


# --- Markov parameters ---------------------------------------------------------


def test_markov_report_rescaled_jordan():
    A, B, C = rescaled_jordan_split(all_anticipatory_specs())
    rep = markov_report(A, B, C)
    assert rep.cb_norm == 0.0
    assert rep.cab_norm == 0.0
    assert rep.first_nonzero_order == 2
    assert rep.zero_eigenvalue_multiplicity >= 3


def test_markov_report_zero_input():
    A, B, C = rescaled_jordan_split(all_anticipatory_specs())
    rep = markov_report(A, np.zeros_like(B), C)
    assert rep.first_nonzero_order is None
    assert all(v == 0.0 for v in rep.norms)


# --- gain sweep ----------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_73():
    specs = all_anticipatory_specs()
    return gain_sweep(lambda g: loop_for_scale(g, specs), default_gain_grid())


def test_sweep_is_the_same_with_the_loop_blocks_rebuilt_at_every_point(sweep_73):
    # the fixture's sweep reuses the kept loop blocks from point to point
    specs = all_anticipatory_specs()

    def cold(g):
        gradplay.linearize._last_loop = (None, None)
        return loop_for_scale(g, specs)

    res = gain_sweep(cold, default_gain_grid())
    assert res.grid.size == 200
    assert len(res.eigenvalues) == len(sweep_73.eigenvalues)
    for got, want in zip(res.eigenvalues, sweep_73.eigenvalues):
        assert np.array_equal(got, want)
    assert np.array_equal(res.stable, sweep_73.stable)
    assert res.crossings == sweep_73.crossings


def test_sweep_verdicts_at_named_gains(sweep_73):
    specs = all_anticipatory_specs()
    assert spectral_abscissa(loop_for_scale(1.0, specs)).stable
    assert not spectral_abscissa(loop_for_scale(5.0, specs)).stable
    assert not spectral_abscissa(loop_for_scale(0.1, specs)).stable


def test_sweep_two_crossings_bracketed(sweep_73):
    assert len(sweep_73.crossings) == 2
    lo, hi = sweep_73.crossings[0]
    assert 0.08 <= lo <= hi <= 0.15
    lo, hi = sweep_73.crossings[1]
    assert 2.5 <= lo <= hi <= 3.5
    for a, b in sweep_73.crossings:
        assert b - a <= 1e-4


def test_sweep_agrees_with_independent_assembly(sweep_73):
    # dual route: per-grid verdicts must match the finite-difference Jacobian
    # of the per-player rules
    specs = all_anticipatory_specs()
    for g, flag in zip(sweep_73.grid[::20], sweep_73.stable[::20]):
        game = make_jordan(float(g))
        v = spectral_abscissa(finite_difference_loop(game, specs, uniform_profile(game)))
        assert v.stable == flag


def test_sweep_input_validation():
    build = lambda g: -np.eye(2)
    with pytest.raises(ValueError):
        gain_sweep(build, [2.0, 1.0])
    with pytest.raises(ValueError):
        gain_sweep(build, [-1.0, 1.0])
    with pytest.raises(ValueError):
        gain_sweep(build, [])
    for grid in ([1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="grid values must be finite"):
            gain_sweep(build, grid)
    res = gain_sweep(build, [1.0])
    assert res.stable.tolist() == [True]
    assert res.crossings == ()


def test_sweep_bracket_stops_at_adjacent_floats():
    # floats near 1.5e15 are 0.25 apart, wider than the bracket width: the
    # bisection ends on two adjacent floats around the flip
    res = gain_sweep(lambda g: np.array([[g - 1.5e15]]), [1e15, 2e15])
    [(lo, hi)] = res.crossings
    assert lo < 1.5e15 <= hi and np.nextafter(lo, np.inf) == hi


# Per-point references for the stacked sweep and probe: one eigvals call and
# one sort per matrix.


def per_point_is_stable(M):
    return float(np.max(np.linalg.eigvals(M).real)) < -STABILITY_TOL


def per_point_bisect(build, lo, hi, lo_flag, width):
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if per_point_is_stable(build(mid)) == lo_flag:
            lo = mid
        else:
            hi = mid
    return lo, hi


def per_point_sweep(build, grid):
    eigenvalues, stable = [], []
    for g in grid:
        ev = np.linalg.eigvals(build(g))
        ev = ev[np.lexsort((-ev.imag, -ev.real))]
        eigenvalues.append(ev)
        stable.append(float(np.max(ev.real)) < -STABILITY_TOL)
    crossings = [
        per_point_bisect(build, float(grid[i]), float(grid[i + 1]), stable[i], SWEEP_REFINE_WIDTH)
        for i in range(len(grid) - 1)
        if stable[i] != stable[i + 1]
    ]
    return eigenvalues, stable, crossings


def assert_sweep_matches_per_point(build, grid):
    res = gain_sweep(build, grid)
    eigenvalues, stable, crossings = per_point_sweep(build, grid)
    assert len(res.eigenvalues) == len(eigenvalues)
    for got, want in zip(res.eigenvalues, eigenvalues):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert res.stable.dtype == bool and res.stable.tolist() == stable
    assert list(res.crossings) == crossings
    return res


def test_stacked_sweep_matches_per_point_on_rescaled_jordan():
    # 600 points make blocks of 256, 256 and 88
    specs = all_anticipatory_specs()
    res = assert_sweep_matches_per_point(
        lambda g: loop_for_scale(g, specs), default_gain_grid(points=600)
    )
    assert len(res.crossings) == 2


def real_then_complex(g):
    # eigenvalues g - 2 +- sqrt(1 - g): real below g = 1, complex above, and
    # unstable above g = 2
    return np.array([[g - 2.0, 1.0], [1.0 - g, g - 2.0]])


def test_stacked_sweep_matches_per_point_real_and_complex_rows():
    grid = np.linspace(0.05, 4.0, 300)
    res = assert_sweep_matches_per_point(real_then_complex, grid)
    dtypes = {ev.dtype for ev in res.eigenvalues[:256]}
    assert dtypes == {np.dtype(float), np.dtype(complex)}  # both within the first block
    [(lo, hi)] = res.crossings
    assert lo < 2.0 <= hi
    # a complex matrix keeps complex eigenvalues, real or not
    assert_sweep_matches_per_point(lambda g: real_then_complex(g).astype(complex), grid)


def test_sweep_call_contract():
    # every grid point in grid order, then one call per bisection step
    calls = []

    def build(g):
        calls.append(g)
        return real_then_complex(g)

    grid = np.linspace(0.05, 4.0, 300)
    res = gain_sweep(build, grid)
    assert calls[: grid.size] == grid.tolist()
    i = int(np.flatnonzero(res.stable[:-1] != res.stable[1:])[0])
    lo, hi = float(grid[i]), float(grid[i + 1])
    steps = []
    while hi - lo > SWEEP_REFINE_WIDTH:
        mid = 0.5 * (lo + hi)
        steps.append(mid)
        lo, hi = (mid, hi) if per_point_is_stable(real_then_complex(mid)) else (lo, mid)
    assert calls[grid.size :] == steps
    assert res.crossings == ((lo, hi),)


@pytest.mark.parametrize("bad", [3, 260, 299], ids=["first-block", "second-block", "last"])
def test_sweep_names_first_nonfinite_gain(bad):
    grid = np.linspace(1.0, 3.0, 300)

    def build(g):
        # not finite at grid[bad] and at every 7th gain after it
        return np.full((2, 2), np.inf) if g in grid[bad::7] else -np.eye(2)

    message = re.escape(f"the loop at gain {float(grid[bad])} is not finite")
    with pytest.raises(NonFiniteInputError, match=message):
        gain_sweep(build, grid)


def test_sweep_rejects_matrices_of_different_shapes():
    with pytest.raises(ValueError):
        gain_sweep(lambda g: -np.eye(2 if g < 2 else 3), [1.0, 3.0])


# --- parity screen ---------------------------------------------------------------


def test_parity_coordination_not_strongly_stabilizable():
    res = strong_stabilizability_2x2(make_coordination())
    assert res.verdict == "not_strongly_stabilizable"
    assert res.strongly_stabilizable_obstructed
    assert res.m12 == pytest.approx(1.0)
    assert res.m21 == pytest.approx(1.0)


ZERO_SUM_2X2 = {(0, 1): np.array([[1.0, -1.0], [-1.0, 1.0]]), (1, 0): np.array([[-1.0, 1.0], [1.0, -1.0]])}


def test_parity_zero_sum_passes():
    res = strong_stabilizability_2x2(PolymatrixGame((2, 2), ZERO_SUM_2X2))
    assert res.verdict == "parity_condition_passed"
    assert res.m12 == pytest.approx(2.0)
    assert res.m21 == pytest.approx(-2.0)


@pytest.mark.parametrize("mu", [1e-170, 1e-7, 1e-3, 1.0, 1e3, 1e7])
def test_parity_verdict_is_invariant_under_payoff_scaling(mu):
    # scaling every payoff by mu > 0 keeps the equilibria, so it keeps the
    # verdict; at 1e-170 the product m12 m21 underflows to 0, the signs do not
    for mats, verdict in [
        (make_coordination().pair_matrices, "not_strongly_stabilizable"),
        (ZERO_SUM_2X2, "parity_condition_passed"),
    ]:
        base = strong_stabilizability_2x2(PolymatrixGame((2, 2), mats))
        res = strong_stabilizability_2x2(PolymatrixGame((2, 2), {p: mu * m for p, m in mats.items()}))
        assert res.verdict == base.verdict == verdict
        assert res.m12 == pytest.approx(mu * base.m12, rel=1e-12)
        assert res.m21 == pytest.approx(mu * base.m21, rel=1e-12)


def test_parity_identical_interest_symmetric_couplings():
    rng = np.random.default_rng(31)
    for _ in range(10):
        M = rng.normal(size=(2, 2))
        g = PolymatrixGame((2, 2), {(0, 1): M, (1, 0): M.copy()})
        try:
            res = strong_stabilizability_2x2(g)
        except ValueError:
            continue
        assert res.m12 == pytest.approx(res.m21)
        assert res.verdict == "not_strongly_stabilizable"


def test_parity_degenerate_coupling_rejected():
    g = PolymatrixGame((2, 2), {(0, 1): np.ones((2, 2)), (1, 0): np.eye(2)})
    with pytest.raises(ValueError):
        strong_stabilizability_2x2(g)
    # draw 41 of the sparse integer games: m12 = m21 = -2.2e-17 at unit payoffs
    mats = {(0, 1): np.array([[0.0, 1.0], [-1.0, 0.0]]), (1, 0): np.array([[1.0, 0.0], [0.0, -1.0]])}
    with pytest.raises(ValueError, match="not isolated"):
        strong_stabilizability_2x2(PolymatrixGame((2, 2), mats))
    with pytest.raises(ValueError):
        strong_stabilizability_2x2(make_jordan())


def test_parity_screen_reads_the_reduced_coupling():
    # m12 and m21 are the off-diagonal entries of the generic reduced coupling
    rng = np.random.default_rng(2020)
    for _ in range(200):
        game, _ = random_mixed_ne_game(rng, n=2, dims=[2, 2])
        M = GameLocalMatrix.from_game(game).matrix
        res = strong_stabilizability_2x2(game)
        assert res.m12 == M[0, 1] and res.m21 == M[1, 0]


# --- robustness probe -------------------------------------------------------------


def single_anticipatory_specs():
    return [make_anticipatory(50.0, 5.0, 2), GradientPlay(), GradientPlay()]


STABLE_DIRECTION = {
    (0, 1): 0.3877 * np.eye(2),
    (1, 2): 0.1446 * np.eye(2),
    (2, 0): 0.1352 * np.eye(2),
}


def test_robustness_probe_stable_direction():
    res = robustness_probe(
        make_jordan(), single_anticipatory_specs(), STABLE_DIRECTION, max_delta=1.0
    )
    assert res.certified_delta == 1.0
    assert res.first_unstable_delta is None


def test_robustness_probe_finds_boundary():
    d = {
        (0, 1): 0.8831 * np.eye(2),
        (1, 2): 0.4259 * np.eye(2),
        (2, 0): 0.7546 * np.eye(2),
    }
    res = robustness_probe(make_jordan(), single_anticipatory_specs(), d, max_delta=1.0)
    assert (res.certified_delta, res.first_unstable_delta) == (0.53125, 0.5322265625)


def test_robustness_probe_zero_direction_trivially_stable():
    res = robustness_probe(make_jordan(), single_anticipatory_specs(), {}, max_delta=0.5)
    assert res.certified_delta == 0.5


def test_robustness_probe_rejects_unstable_nominal():
    with pytest.raises(ValueError):
        robustness_probe(make_jordan(), [GradientPlay()] * 3, {}, max_delta=1.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"max_delta": np.nan}, "max_delta"),
        ({"max_delta": np.inf}, "max_delta"),
        ({"direction": {(0, 1): np.array([[np.nan, 0.0], [0.0, 0.0]])}}, "direction"),
        # finite, but the loop at max_delta overflows
        ({"direction": STABLE_DIRECTION, "max_delta": 1e308}, "max_delta"),
    ],
)
def test_robustness_probe_rejects_nonfinite_input(kwargs, name):
    args = {"direction": {(0, 1): np.eye(2)}, "max_delta": 1.0, **kwargs}
    with pytest.raises(ValueError, match=name):
        robustness_probe(make_jordan(), single_anticipatory_specs(), **args)


@pytest.mark.parametrize(
    "fail, message",
    [
        (
            lambda: spectral_abscissa(np.array([[np.nan, 0.0], [0.0, 1.0]])),
            "matrix entries must be finite",
        ),
        (
            lambda: robustness_probe(
                make_jordan(), single_anticipatory_specs(), STABLE_DIRECTION, max_delta=1e308
            ),
            "the loop at max_delta = 1e+308 overflows",
        ),
    ],
    ids=["spectral_abscissa", "robustness_probe"],
)
def test_nonfinite_numeric_failures_are_typed(fail, message):
    with pytest.raises(NonFiniteInputError, match=re.escape(message)):
        fail()


EDGE = -STABILITY_TOL
BELOW_EDGE = np.nextafter(-STABILITY_TOL, -np.inf)


@pytest.mark.parametrize("x, stable", [(EDGE, False), (BELOW_EDGE, True)], ids=["edge", "below"])
def test_one_verdict_at_the_tolerance_edge(x, stable, monkeypatch):
    # a loop whose largest real part is exactly -STABILITY_TOL is unstable, and
    # one a float below it stable, wherever the verdict is read
    assert spectral_abscissa(np.array([[x]])).stable is stable

    # x g is x itself at g = 1: the flag there, and the bracket of the flip next to it
    res = gain_sweep(lambda g: np.array([[x * g]]), [0.5, 1.0, 2.0])
    assert res.stable.tolist() == [False, stable, True]
    [(lo, hi)] = res.crossings
    assert lo <= 1.0 <= hi and hi - lo <= SWEEP_REFINE_WIDTH

    # one bisection step of a flip from unstable (t < 1) to stable (t > 1), judged at t = 1
    def flip(t):
        return np.array([[1.0 if t < 1.0 else x if t == 1.0 else -1.0]])

    expected = (0.0, 1.0) if stable else (1.0, 2.0)
    assert gradplay.analysis._bisect_flip(flip, 0.0, 2.0, False, 1.5) == expected

    # J0 + delta J1 = 2x - delta x is x exactly at the last scan scale, delta = 1
    J0, J1 = np.array([[2.0 * x]]), np.array([[-x]])
    assert (J0 + 1.0 * J1)[0, 0] == x
    monkeypatch.setattr(gradplay.analysis, "assemble_loop_family", lambda *args: (J0, J1))
    res = robustness_probe(make_jordan(), single_anticipatory_specs(), {}, max_delta=1.0)
    if stable:
        assert (res.certified_delta, res.first_unstable_delta) == (1.0, None)
    else:
        assert res.first_unstable_delta == 1.0 and 1.0 - PROBE_GAP <= res.certified_delta < 1.0


def per_scale_probe(game, specs, direction, max_delta=1.0):
    J0, J1 = assemble_loop_family(game, specs, direction)
    loop = lambda delta: J0 + delta * J1
    assert per_point_is_stable(loop(0.0))
    lo = 0.0
    for d in np.linspace(0.0, max_delta, PROBE_SCAN_POINTS + 1)[1:]:
        if not per_point_is_stable(loop(float(d))):
            return per_point_bisect(loop, lo, float(d), True, PROBE_GAP)
        lo = float(d)
    return max_delta, None


def unit_direction(rng, game):
    mats = {key: rng.normal(size=m.shape) for key, m in sorted(game.pair_matrices.items())}
    norm = np.sqrt(sum(float(np.sum(m * m)) for m in mats.values()))
    return {key: m / norm for key, m in mats.items()}


def test_stacked_probe_matches_per_scale_scan_on_jordan():
    rng = np.random.default_rng(2121)
    game, specs = make_jordan(), single_anticipatory_specs()
    found = 0
    for _ in range(24):
        direction = unit_direction(rng, game)
        res = robustness_probe(game, specs, direction, max_delta=2.0)
        assert (res.certified_delta, res.first_unstable_delta) == per_scale_probe(
            game, specs, direction, max_delta=2.0
        )
        found += res.first_unstable_delta is not None
    assert 0 < found < 24  # both outcomes occur (13 of 24 find a boundary)


def test_stacked_probe_matches_per_scale_scan_on_random_games():
    rng = np.random.default_rng(2122)
    kept = found = 0
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 3)] * 25:
        game, _ = random_mixed_ne_game(rng, n=n, dims=[k] * n)
        specs = [make_anticipatory(5.0, 1.0, k) for _ in range(n)]
        J0, _ = assemble_loop_family(game, specs, {})
        if not per_point_is_stable(J0):
            continue
        kept += 1
        direction = unit_direction(rng, game)
        res = robustness_probe(game, specs, direction, max_delta=2.0)
        assert (res.certified_delta, res.first_unstable_delta) == per_scale_probe(
            game, specs, direction, max_delta=2.0
        )
        found += res.first_unstable_delta is not None
    # 18 of the 100 draws have a stable nominal loop; 8 of those find a boundary
    assert kept >= 15 and 0 < found < kept


def test_robustness_probe_assembles_two_loops(monkeypatch):
    calls, reductions = [], []
    assemble = gradplay.linearize.assemble_closed_loop
    from_game = GameLocalMatrix.from_game.__func__

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    def reducing(cls, game):
        reductions.append(game)
        return from_game(cls, game)

    monkeypatch.setattr(gradplay.linearize, "assemble_closed_loop", counting)
    monkeypatch.setattr(GameLocalMatrix, "from_game", classmethod(reducing))
    d = {(0, 1): 0.8831 * np.eye(2), (1, 2): 0.4259 * np.eye(2), (2, 0): 0.7546 * np.eye(2)}
    res = robustness_probe(make_jordan(), single_anticipatory_specs(), d)
    assert res.first_unstable_delta is not None and len(calls) == 1 and len(reductions) == 1
