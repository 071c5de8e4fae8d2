import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

import gradplay.linearize as linearize
from gradplay.analysis import robustness_probe, spectral_abscissa, strong_stabilizability_2x2
from gradplay.dynamics import (
    GradientPlay,
    HigherOrderGradientPlay,
    Replicator,
    SmoothFictitiousPlay,
    make_anticipatory,
)
from gradplay.games import (
    PolymatrixGame,
    make_coordination,
    make_jordan,
    payoff_map,
    uniform_profile,
)
from gradplay.linearize import (
    GameLocalMatrix,
    assemble_closed_loop,
    assemble_flow_operators,
    assemble_local_game,
    assemble_loop_family,
    assemble_plant,
    singular,
)
from gradplay.simplex import NonFiniteInputError, project_to_simplex, tangent_basis

from conftest import finite_difference_loop, random_mixed_ne_game, rescaled_jordan_split

JORDAN_LOCAL = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])


def jordan_local(scale=1.0):
    g = make_jordan(scale)
    return assemble_local_game(g, uniform_profile(g))


def single_anticipatory_specs():
    return [make_anticipatory(50.0, 5.0, 2), GradientPlay(), GradientPlay()]


def all_anticipatory_specs():
    return [make_anticipatory(5.0, 1.0, 2, gamma2=0.8) for _ in range(3)]


def test_local_matrix_jordan():
    local = jordan_local()
    assert_allclose(local.matrix, JORDAN_LOCAL, atol=1e-12)
    assert [local.block_slice(i) for i in range(3)] == [slice(0, 1), slice(1, 2), slice(2, 3)]


def test_local_matrix_jordan_rescaled():
    local = jordan_local(scale=4.0)
    expected = JORDAN_LOCAL.copy()
    expected[0, 1] = -4.0
    assert_allclose(local.matrix, expected, atol=1e-12)


def test_local_matrix_coordination():
    g = make_coordination()
    local = assemble_local_game(g, uniform_profile(g))
    assert_allclose(local.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_local_matrix_trace_zero_on_randoms():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g, profile = random_mixed_ne_game(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            local = assemble_local_game(g, profile)
        assert abs(np.trace(local.matrix)) <= 1e-10
        for i in range(g.n):
            assert_allclose(local.block(i, i), 0.0, atol=1e-15)


def test_local_matrix_rejects_boundary_profile():
    g = make_coordination()
    with pytest.raises(ValueError):
        assemble_local_game(g, [np.array([1.0, 0.0]), np.array([1.0, 0.0])])


def test_local_matrix_warns_when_singular():
    g = PolymatrixGame((2, 2), {(0, 1): np.array([[0.0, 1.0], [1.0, 0.0]])})
    with pytest.warns(UserWarning, match="singular"):
        local = assemble_local_game(g, uniform_profile(g))
    with pytest.warns(UserWarning, match="singular"):
        assemble_plant(local)


DRAW_41 = PolymatrixGame(
    (2, 2), {(0, 1): np.array([[0.0, 1.0], [-1.0, 0.0]]), (1, 0): np.array([[1.0, 0.0], [0.0, -1.0]])}
)


def test_coupling_that_cancels_to_rounding_size_warns():
    # draw 41 of the sparse integer games: the blocks cancel to M = [[0, -2.2e-17],
    # [-2.2e-17, 0]], nonsingular at its own scale but singular at the pair entries'
    local = GameLocalMatrix.from_game(DRAW_41)
    assert 0 < np.abs(local.matrix).max() < 1e-16
    assert not singular(local.matrix)
    with pytest.warns(UserWarning, match="singular"):
        assert_array_equal(assemble_local_game(DRAW_41, uniform_profile(DRAW_41)).matrix, local.matrix)
    with pytest.warns(UserWarning, match="singular"):
        assemble_plant(local)


def test_local_matrix_scale_is_the_largest_pair_entry():
    assert GameLocalMatrix.from_game(make_jordan()).scale == 1.0
    assert GameLocalMatrix.from_game(make_jordan(4.0)).scale == 4.0
    assert GameLocalMatrix.from_game(make_coordination()).scale == 1.0
    assert GameLocalMatrix.from_game(DRAW_41).scale == 1.0
    assert GameLocalMatrix.from_game(PolymatrixGame((2, 3))).scale == 0.0
    assert GameLocalMatrix.from_game(PolymatrixGame((2, 2), {(0, 1): -3.0 * np.eye(2)})).scale == 3.0


def test_local_matrix_built_directly_is_judged_at_its_own_scale():
    # scale 0.0: the rule is sigma_min(M) <= SINGULAR_RTOL * sigma_max(M), with equality singular
    tiny = GameLocalMatrix(1e-20 * np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 2))
    assert tiny.scale == 0.0
    assert not singular(tiny.matrix, tiny.scale)
    assert singular(tiny.matrix, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_plant(tiny)
    assert singular(np.diag([4.0, 4e-12])) and not singular(np.diag([4.0, 8e-12]))
    assert singular(np.zeros((2, 2)))


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4), (3,), (1, 3, 3)])
def test_local_matrix_rejects_a_matrix_not_ell_square(shape):
    # dims (2, 2, 2) have ell = 3 tangent coordinates; a wrong shape once
    # failed only later, inside a product
    message = rf"shape {re.escape(str(shape))}, but dims \(2, 2, 2\) need \(3, 3\)"
    with pytest.raises(ValueError, match=message):
        GameLocalMatrix(np.zeros(shape), (2, 2, 2))
    assert GameLocalMatrix(np.zeros((3, 3)), (2, 2, 2)).matrix.shape == (3, 3)
    assert GameLocalMatrix(np.zeros((0, 0)), ()).n == 0


def test_with_pair_equals_from_game_of_the_game_with_that_pair_replaced():
    # seeded games with n and k in 2-4; the new pair is a normal draw, zero,
    # or a draw with -0.0 entries, and the replaced pair may be absent before
    rng = np.random.default_rng(3501)
    absent = negative_zeros = 0
    ns, ks = set(), set()
    for draw in range(120):
        game, _ = random_mixed_ne_game(rng)
        ns.add(game.n)
        ks.update(game.dims)
        i, j = (int(p) for p in rng.choice(game.n, size=2, replace=False))
        pair = rng.normal(size=(game.dims[i], game.dims[j]))
        if draw % 3 == 1:
            pair = np.zeros_like(pair)
        elif draw % 3 == 2:
            pair = np.where(rng.random(pair.shape) < 0.5, -0.0, pair)
        local = GameLocalMatrix.from_game(game)
        before = local.matrix.copy()
        got = local.with_pair(i, j, pair)
        want = GameLocalMatrix.from_game(PolymatrixGame(game.dims, {**game.pair_matrices, (i, j): pair}))
        assert got.dims == want.dims
        assert_bits_equal(got.matrix, want.matrix)
        assert_bits_equal(local.matrix, before)
        # the docstring's scale: max(self.scale, largest |pair entry|), which is
        # want's scale unless the old pair (i, j) alone held the largest entry
        assert got.scale == max(local.scale, np.abs(pair).max())
        assert got.scale == max(want.scale, np.abs(game.pair(i, j)).max())
        absent += (i, j) not in game.pair_matrices
        negative_zeros += int(np.sum(np.signbit(pair) & (pair == 0)))
    assert ns == ks == {2, 3, 4}
    assert absent > 0 and negative_zeros > 0


def test_with_pair_rejects_a_bad_pair_as_from_game_does():
    local = GameLocalMatrix.from_game(
        PolymatrixGame((2, 3, 4), {(0, 1): np.ones((2, 3)), (2, 0): np.ones((4, 2))})
    )
    for i, j, shape in [(0, 1, (3, 2)), (1, 2, (3, 3)), (2, 0, (4,))]:
        message = rf"^pair matrix \({i}, {j}\) has shape {re.escape(str(shape))}, expected"
        with pytest.raises(ValueError, match=message):
            local.with_pair(i, j, np.ones(shape))
    for i, j in [(1, 1), (0, 3), (-1, 0)]:
        with pytest.raises(ValueError, match=rf"^invalid player pair \({i}, {j}\)$"):
            local.with_pair(i, j, np.ones((2, 2)))
    jordan = GameLocalMatrix.from_game(make_jordan())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, np.nan):
            with pytest.raises(NonFiniteInputError, match=r"^reduced coupling block \(2, 0\) is not finite$"):
                jordan.with_pair(2, 0, [[bad, 0.0], [0.0, 0.0]])


def test_closed_loop_all_fixed_order():
    # the fixed-order obstruction: plain gradient play has no aux state and no
    # washout, so its loop is the reduced coupling M, whose diagonal blocks
    # are zero: the trace is exactly 0 and some eigenvalue has Re >= 0
    rng = np.random.default_rng(2003)
    jordan = make_jordan()
    for game, ne in [(jordan, uniform_profile(jordan))] + [random_mixed_ne_game(rng) for _ in range(60)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some draws are singular
            local = assemble_local_game(game, ne)
        loop = assemble_closed_loop(local, [GradientPlay()] * game.n)
        assert loop.aux_dims == (0,) * game.n
        assert_array_equal(loop.matrix, local.matrix)
        assert np.trace(loop.matrix) == 0.0
        assert not spectral_abscissa(loop.matrix).stable


def test_closed_loop_single_higher_order_player_stable():
    loop = assemble_closed_loop(jordan_local(), single_anticipatory_specs())
    assert loop.matrix.shape == (5, 5)  # 3 tangent + 1 aux + 1 washout of player 0
    assert loop.aux_dims == (1, 0, 0)
    abscissa = np.max(np.linalg.eigvals(loop.matrix).real)
    assert abscissa == pytest.approx(-0.09085752046, abs=1e-9)


def test_closed_loop_coordination_parameters_stable():
    from gradplay.dynamics import HigherOrderGradientPlay

    g = make_coordination()
    local = assemble_local_game(g, uniform_profile(g))
    specs = [
        HigherOrderGradientPlay(E=[[0.5]], F=[[-1.0]], G=[[10.0]], H=[[-10.0]]),
        HigherOrderGradientPlay(E=[[-50.0]], F=[[50.0]], G=[[-50.0]], H=[[50.0]]),
    ]
    loop = assemble_closed_loop(local, specs)
    assert loop.matrix.shape == (6, 6)
    abscissa = np.max(np.linalg.eigvals(loop.matrix).real)
    assert abscissa == pytest.approx(-0.15813406560, abs=1e-9)


def test_closed_loop_block_layout():
    local = jordan_local()
    specs = all_anticipatory_specs()
    loop = assemble_closed_loop(local, specs)
    assert loop.matrix.shape == (9, 9)
    # (I+H)M block with H = 5 I
    assert_allclose(loop.matrix[:3, :3], 6.0 * JORDAN_LOCAL, atol=1e-12)
    assert_allclose(loop.matrix[:3, 3:6], -4.0 * np.eye(3), atol=1e-12)  # G
    assert_allclose(loop.matrix[:3, 6:9], -5.0 * np.eye(3), atol=1e-12)  # -H
    assert_allclose(loop.matrix[3:6, :3], 5.0 * JORDAN_LOCAL, atol=1e-12)  # F M
    assert_allclose(loop.matrix[3:6, 3:6], -5.0 * np.eye(3), atol=1e-12)  # E
    assert_allclose(loop.matrix[6:9, :3], JORDAN_LOCAL, atol=1e-12)  # M
    assert_allclose(loop.matrix[6:9, 6:9], -np.eye(3), atol=1e-12)


def test_closed_loop_validates_spec_count_and_shapes():
    local = jordan_local()
    with pytest.raises(ValueError):
        assemble_closed_loop(local, [GradientPlay()] * 2)
    with pytest.raises(ValueError):
        assemble_closed_loop(local, [make_anticipatory(1.0, 1.0, 3)] + [GradientPlay()] * 2)


@pytest.mark.parametrize("rule", [Replicator(), SmoothFictitiousPlay(0.1)])
def test_closed_loop_rejects_rules_outside_the_projection_family(rule):
    # at jordan's uniform profile the gradient-play rows give abscissa 0.5,
    # while replicator's own loop has 0.25 and smooth FP's (T = 0.1) 1.5
    g = make_jordan()
    local = assemble_local_game(g, uniform_profile(g))
    for specs in ([rule] * 3, [GradientPlay(), rule, make_anticipatory(5.0, 1.0, 2)]):
        with pytest.raises(ValueError, match=type(rule).__name__):
            assemble_closed_loop(local, specs)
        with pytest.raises(ValueError, match=type(rule).__name__):
            assemble_closed_loop(GameLocalMatrix.from_game(g), specs)
        with pytest.raises(ValueError, match=type(rule).__name__):
            robustness_probe(g, specs, {(0, 1): np.eye(2)})
        # the simulator's flow operators keep accepting every rule
        PRE, AUX = assemble_flow_operators(g, specs)
        assert np.isfinite(PRE).all() and np.isfinite(AUX).all()


def test_plant_structure_and_stacking():
    local = jordan_local()
    plant = assemble_plant(local)
    M = local.matrix
    assert_allclose(plant.A[:3, :3], M, atol=1e-15)
    assert_allclose(plant.A[:3, 3:], np.zeros((3, 3)), atol=1e-15)
    assert_allclose(plant.A[3:, :3], M, atol=1e-15)
    assert_allclose(plant.A[3:, 3:], -np.eye(3), atol=1e-15)
    assert_allclose(plant.B, np.vstack([np.eye(3), np.zeros((3, 3))]), atol=1e-15)
    assert_allclose(plant.C, np.hstack([M, -np.eye(3)]), atol=1e-15)
    for i in range(3):
        assert plant.B_blocks[i].shape == (6, 1)
        assert plant.C_blocks[i].shape == (1, 6)


def test_plant_eigenvalues_jordan():
    plant = assemble_plant(jordan_local())
    ev = np.sort_complex(np.linalg.eigvals(plant.A))
    expected = np.sort_complex(
        np.array([-1.0, -1.0, -1.0, -1.0, 0.5 + 0.8660254037844386j, 0.5 - 0.8660254037844386j])
    )
    assert_allclose(ev, expected, atol=1e-9)


def test_plant_two_player_display():
    g = make_coordination()
    local = assemble_local_game(g, uniform_profile(g))
    plant = assemble_plant(local)
    m12 = m21 = 1.0
    expected = np.array(
        [
            [0.0, m12, 0.0, 0.0],
            [m21, 0.0, 0.0, 0.0],
            [0.0, m12, -1.0, 0.0],
            [m21, 0.0, 0.0, -1.0],
        ]
    )
    assert_allclose(plant.A, expected, atol=1e-12)
    assert_allclose(plant.C, np.array([[0.0, m12, -1.0, 0.0], [m21, 0.0, 0.0, -1.0]]), atol=1e-12)


def test_rescaled_jordan_matches_generic_assembly():
    specs = all_anticipatory_specs()
    for mu in (0.1, 1.0, 5.0):
        g = make_jordan(mu)
        J = assemble_closed_loop(assemble_local_game(g, uniform_profile(g)), specs).matrix
        J_fd = finite_difference_loop(g, specs, uniform_profile(g))
        assert_allclose(J, J_fd, rtol=0, atol=1e-8 * max(1.0, np.max(np.abs(J))))


def test_rescaled_jordan_gain_identity():
    specs = all_anticipatory_specs()
    A, B, C = rescaled_jordan_split(specs)
    for mu in (0.1, 1.0, 5.0, 60.0):
        J = assemble_closed_loop(GameLocalMatrix.from_game(make_jordan(mu)), specs).matrix
        assert_allclose(A - mu * (B @ C), J, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(J))))
        ev1 = np.sort_complex(np.linalg.eigvals(J))
        ev2 = np.sort_complex(np.linalg.eigvals(A - mu * (B @ C)))
        assert_allclose(ev1, ev2, atol=1e-8)


def test_rescaled_jordan_markov_structure():
    A, B, C = rescaled_jordan_split(all_anticipatory_specs())
    assert (C @ B).item() == 0.0
    assert (C @ A @ B).item() == 0.0
    ev = np.linalg.eigvals(A)
    assert int(np.sum(np.abs(ev) < 1e-6)) >= 3


# --- simulator operators against the closed loop -----------------------------------


def _random_spec(rng, k):
    kind = int(rng.integers(3))
    if kind == 0:
        return GradientPlay()
    if kind == 1:
        return make_anticipatory(float(rng.choice([5.0, 50.0])), float(rng.uniform(0.1, 1.0)), k)
    ell = int(rng.integers(1, 4))
    return HigherOrderGradientPlay(
        E=rng.normal(size=(ell, ell)),
        F=rng.normal(size=(ell, k - 1)),
        G=rng.normal(size=(k - 1, ell)),
        H=rng.normal(size=(k - 1, k - 1)),
    )


def test_simulator_flow_linearizes_to_closed_loop():
    # On full support the per-player projection is z -> z - (1^T z - 1) / k,
    # so the flow y' = [proj(PRE y) - x; AUX y] has Jacobian [P PRE - (I 0 0); AUX]
    # with P = blockdiag(I - 11^T / k); x = x* + N w maps it to tangent
    # coordinates, where it is the closed loop on the same state.
    rng = np.random.default_rng(20231)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        game, ne = random_mixed_ne_game(rng, n=n, dims=dims)
        specs = [_random_spec(rng, k) for k in dims]
        PRE, AUX = assemble_flow_operators(game, specs)
        nx = sum(dims)
        dim = PRE.shape[1]

        # the equilibrium with steady washouts is a rest point of the flow
        higher = [i for i, s in enumerate(specs) if isinstance(s, HigherOrderGradientPlay)]
        y_star = np.concatenate(
            list(ne)
            + [np.zeros(dim - nx - sum(dims[i] - 1 for i in higher))]
            + [tangent_basis(dims[i]).N.T @ payoff_map(game, i, ne) for i in higher]
        )
        z = PRE @ y_star
        starts = np.cumsum([0] + dims)
        for i in range(n):
            assert_allclose(project_to_simplex(z[starts[i] : starts[i + 1]]), ne[i], atol=1e-12)
        assert_allclose(AUX @ y_star, 0.0, atol=1e-12)

        P = scipy.linalg.block_diag(*[np.eye(k) - 1.0 / k for k in dims])
        Df = np.vstack([P @ PRE - np.eye(nx, dim), AUX])
        lift = scipy.linalg.block_diag(*[tangent_basis(k).N for k in dims])
        T = scipy.linalg.block_diag(lift, np.eye(dim - nx))
        J_sim = T.T @ Df @ T

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some draws are singular
            loop = assemble_closed_loop(assemble_local_game(game, ne), specs)
        assert_allclose(J_sim, loop.matrix, rtol=0, atol=1e-12)
        assert_allclose(
            assemble_closed_loop(GameLocalMatrix.from_game(game), specs).matrix,
            loop.matrix,
            rtol=0,
            atol=0,
        )


def _compensator(spec, k):
    if isinstance(spec, HigherOrderGradientPlay):
        return spec.E, spec.F, spec.G, spec.H
    return np.zeros((0, 0)), np.zeros((0, k - 1)), np.zeros((k - 1, 0)), np.zeros((k - 1, k - 1))


def _washed_rows(specs, dims):
    # the tangent rows of the compensated players, the only ones with a washout
    compensated = [isinstance(s, HigherOrderGradientPlay) for s in specs]
    return np.flatnonzero(np.repeat(compensated, np.subtract(dims, 1)))


def _random_locals(rng, count):
    # (local matrix, specs) of random games with mixed specs
    for _ in range(count):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        game, ne = random_mixed_ne_game(rng, n=n, dims=dims)
        specs = [_random_spec(rng, k) for k in dims]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some draws are singular
            local = assemble_local_game(game, ne)
        yield local, specs


def _closed_plant(local, specs):
    # the plant (A, B, C) under u = G xi + H y, xi' = E xi + F y with
    # y = C (w; v): [[A + B H C, B G], [F C, E]] on the state (w, v, xi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # some draws are singular
        plant = assemble_plant(local)
    E, F, G, H = (
        scipy.linalg.block_diag(*blocks)
        for blocks in zip(*(_compensator(s, k) for s, k in zip(specs, local.dims)))
    )
    A, B, C = plant.A, plant.B, plant.C
    return np.block([[A + B @ H @ C, B @ G], [F @ C, E]])


def test_plant_closed_by_compensators_is_the_loop():
    # The plant washes every tangent row. The rows of an uncompensated player
    # feed no H or F, so their v columns are zero off their own block, and
    # deleting them leaves the loop, which orders its state (w, xi, v).
    for local, specs in _random_locals(np.random.default_rng(20231), 40):
        loop = assemble_closed_loop(local, specs)
        closed = _closed_plant(local, specs)
        ell, aux = local.matrix.shape[0], sum(loop.aux_dims)
        order = np.r_[0:ell, 2 * ell : 2 * ell + aux, ell + _washed_rows(specs, local.dims)]
        assert_allclose(loop.matrix, closed[np.ix_(order, order)], rtol=0, atol=0)


def test_plant_closed_by_compensators_keeps_the_loop_verdict():
    # the washouts of uncompensated players read M w but feed nothing back, so
    # the closed plant is block triangular: its characteristic polynomial is
    # the loop's times (lam + 1) per such tangent row, and its verdict the
    # loop's. The polynomials are compared at points off the spectra, where
    # they are well conditioned; eigvals would blur the -1 clusters that the
    # washouts of compensated players add to both
    cases = list(_random_locals(np.random.default_rng(33), 60))
    cases += [(jordan_local(), single_anticipatory_specs()), (jordan_local(), all_anticipatory_specs())]
    ghosts = stable = 0
    for local, specs in cases:
        J = assemble_closed_loop(local, specs).matrix
        closed = _closed_plant(local, specs)
        ghost = local.matrix.shape[0] - _washed_rows(specs, local.dims).size
        assert closed.shape[0] == J.shape[0] + ghost
        for z in (0.3 + 1.1j, -0.7 + 0.4j, 2.0 - 0.5j):
            want = np.linalg.det(J - z * np.eye(len(J))) * (-1.0 - z) ** ghost
            got = np.linalg.det(closed - z * np.eye(len(closed)))
            assert abs(got - want) <= 1e-9 * abs(want)
        verdict = spectral_abscissa(J).stable
        assert spectral_abscissa(closed).stable == verdict
        ghosts += ghost > 0
        stable += verdict
    assert ghosts >= 20 and stable >= 3


def test_closed_loop_matches_finite_differences():
    # the reference differentiates conftest.reference_derivative, written apart
    # from the loop builder and the rules' updates, coupled through the pair matrices
    rng = np.random.default_rng(4711)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        game, ne = random_mixed_ne_game(rng, n=n, dims=dims)
        specs = [_random_spec(rng, k) for k in dims]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some draws are singular
            J = assemble_closed_loop(assemble_local_game(game, ne), specs).matrix
        J_fd = finite_difference_loop(game, specs, ne)
        assert_allclose(J, J_fd, rtol=0, atol=1e-8 * max(1.0, np.max(np.abs(J))))


def test_loop_family_matches_perturbed_games():
    rng = np.random.default_rng(90210)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        game, _ = random_mixed_ne_game(rng, n=n, dims=dims)
        specs = [_random_spec(rng, k) for k in dims]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        direction = {
            (i, j): rng.normal(size=(dims[i], dims[j])) for i, j in pairs if rng.random() < 0.6
        }
        J0, J1 = assemble_loop_family(game, specs, direction)
        for t in (-0.7, 0.3, 2.5):
            mats = dict(game.pair_matrices)
            for key, d in direction.items():
                mats[key] = game.pair(*key) + t * d
            J = assemble_closed_loop(
                GameLocalMatrix.from_game(PolymatrixGame(game.dims, mats)), specs
            ).matrix
            assert_allclose(J0 + t * J1, J, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(J))))


# --- the loop writer's x term against the explicit +I formulas -----------------


def _loop_with_identity(K, lift, specs, dims, washed):
    """The loop with gradient play's +x on every x row, patched afterwards by the callers below."""
    E, F, G, H = (
        scipy.linalg.block_diag(*blocks)
        for blocks in zip(*(_compensator(s, k) for s, k in zip(specs, dims)))
    )
    m, a = K.shape[0], K.shape[0] + E.shape[0]
    out = np.zeros((a + len(washed),) * 2)
    TK = lift.T @ K
    LH = lift @ H
    out[:m, :m] = K + LH @ TK + np.eye(m)
    out[:m, m:a] = lift @ G
    out[:m, a:] = -LH[:, washed]
    out[m:a, :m] = F @ TK
    out[m:a, m:a] = E
    out[m:a, a:] = -F[:, washed]
    out[a:, :m] = TK[washed]
    out[a:, a:] = -np.eye(len(washed))
    return out


def _explicit_closed_loop(game, specs):
    # the -x of dx = proj(.) - x subtracted from the +x of the projection argument
    M = scipy.linalg.block_diag(*[np.zeros((k - 1, k - 1)) for k in game.dims])
    at = np.cumsum([0] + [k - 1 for k in game.dims])
    for (i, j), mat in game.pair_matrices.items():
        Ni, Nj = tangent_basis(game.dims[i]).N, tangent_basis(game.dims[j]).N
        M[at[i] : at[i + 1], at[j] : at[j + 1]] = Ni.T @ mat @ Nj
    ell = M.shape[0]
    J = _loop_with_identity(M, np.eye(ell), specs, game.dims, _washed_rows(specs, game.dims))
    J[:ell, :ell] -= np.eye(ell)
    return M, J


def _explicit_flow_operators(game, specs):
    # +x on every x row, then zeroed on the rows of rules outside the projection family
    K = np.block([[game.pair(i, j) for j in range(game.n)] for i in range(game.n)])
    blocks = [
        tangent_basis(k).N if isinstance(s, HigherOrderGradientPlay) else np.zeros((k, k - 1))
        for s, k in zip(specs, game.dims)
    ]
    lift = scipy.linalg.block_diag(*blocks)
    out = _loop_with_identity(K, lift, specs, game.dims, _washed_rows(specs, game.dims))
    projected = [isinstance(s, (GradientPlay, HigherOrderGradientPlay)) for s in specs]
    fixed = np.flatnonzero(~np.repeat(projected, game.dims))
    out[fixed, fixed] = 0.0
    return out[: K.shape[0]], out[K.shape[0] :]


def _any_rule(rng, k, projection_only):
    kind = int(rng.integers(2 if projection_only else 4))
    if kind == 0:
        return GradientPlay()
    if kind == 2:
        return Replicator()
    if kind == 3:
        return SmoothFictitiousPlay(float(rng.uniform(0.05, 2.0)))
    ell = int(rng.integers(3))  # aux dimensions 0, 1 and 2
    return HigherOrderGradientPlay(
        E=rng.normal(size=(ell, ell)),
        F=rng.normal(size=(ell, k - 1)),
        G=rng.normal(size=(k - 1, ell)),
        H=rng.normal(size=(k - 1, k - 1)),
    )


def assert_bits_equal(got, want):
    # assert_array_equal treats -0.0 and 0.0 as equal
    assert_array_equal(got, want)
    assert_array_equal(np.signbit(got), np.signbit(want))


def _anticipatory_or_plain(rng, k):
    kind = int(rng.integers(4))
    if kind == 0:
        return GradientPlay()
    lam, gamma, gamma2 = rng.uniform(0.5, 50.0), rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
    spec = make_anticipatory(float(lam), float(gamma), k, float(gamma2))
    # a negative gain H = -gamma lam I has -0.0 off its diagonal too
    return dataclasses.replace(spec, H=-spec.H) if kind == 1 else spec


def test_operators_equal_the_explicit_identity_formulas():
    # the loop writer takes the x coefficient of each row; writing +I and then
    # subtracting it (closed loop) or zeroing it (other rules' flow rows) gives
    # the same matrices, bit for bit and zero sign for zero sign. The last
    # draws use anticipatory compensators: G = -gamma2 lam I has -0.0 off its
    # diagonal, which the closed loop's identity lift I @ G turns into +0.0,
    # so a loop that copied G as it is would fail here; so would one that
    # copied a negative gain H, or a coupling M given with -0.0 entries
    rng = np.random.default_rng(1717)
    draws = {True: 0, False: 0}
    negative_zeros = 0
    for draw in range(300):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        game, _ = random_mixed_ne_game(rng, n=n, dims=dims)
        if draw < 240:
            specs = [_any_rule(rng, k, draw % 2 == 0) for k in dims]
        else:
            specs = [_anticipatory_or_plain(rng, k) for k in dims]
            negative_zeros += sum(
                int(np.signbit(s.G[s.G == 0]).sum())
                for s in specs
                if isinstance(s, HigherOrderGradientPlay)
            )
        family = all(isinstance(s, (GradientPlay, HigherOrderGradientPlay)) for s in specs)
        draws[family] += 1
        for got, want in zip(assemble_flow_operators(game, specs), _explicit_flow_operators(game, specs)):
            assert_bits_equal(got, want)
        M, J = _explicit_closed_loop(game, specs)
        local = GameLocalMatrix(M, game.dims)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # some draws are singular
            plant = assemble_plant(local)
        ell = M.shape[0]
        A = np.block([[M, np.zeros((ell, ell))], [M, -np.eye(ell)]])
        assert_bits_equal(plant.A, A)
        assert_bits_equal(plant.B, np.eye(2 * ell, ell))
        assert_bits_equal(plant.C, A[ell:])
        direction = {(0, 1): rng.normal(size=(dims[0], dims[1]))}
        if not family:
            with pytest.raises(ValueError, match="no closed-loop linearization"):
                assemble_closed_loop(local, specs)
            with pytest.raises(ValueError, match="no closed-loop linearization"):
                assemble_loop_family(game, specs, direction)
            continue
        assert_bits_equal(assemble_closed_loop(local, specs).matrix, J)
        assert_bits_equal(assemble_closed_loop(GameLocalMatrix.from_game(game), specs).matrix, J)
        if draw >= 240:
            signed = np.where(M == 0, -0.0, M)
            assert_bits_equal(assemble_closed_loop(GameLocalMatrix(signed, game.dims), specs).matrix, J)
        J0, J1 = assemble_loop_family(game, specs, direction)
        JD = _explicit_closed_loop(PolymatrixGame(game.dims, direction), specs)[1]
        J_empty = _explicit_closed_loop(PolymatrixGame(game.dims), specs)[1]
        assert_bits_equal(J0, J)
        assert_bits_equal(J1, JD - J_empty)
    assert min(draws.values()) >= 100
    assert negative_zeros >= 100


def test_loop_family_and_probe_assemble_two_loops(monkeypatch):
    # J1 is the coupling columns of a loop written from the reduced direction:
    # no empty-game loop, no second reduced game and no second loop assembly
    calls, reductions = [], []
    real = linearize.assemble_closed_loop
    monkeypatch.setattr(linearize, "assemble_closed_loop", lambda *a: calls.append(1) or real(*a))
    from_game = GameLocalMatrix.from_game.__func__
    monkeypatch.setattr(
        GameLocalMatrix, "from_game", classmethod(lambda c, g: reductions.append(1) or from_game(c, g))
    )
    game, specs = make_jordan(), all_anticipatory_specs()
    direction = {(0, 1): np.eye(2)}
    assemble_loop_family(game, specs, direction)
    assert len(calls) == 1 and len(reductions) == 1
    calls.clear()
    reductions.clear()
    robustness_probe(game, specs, direction, max_delta=0.1)
    assert len(calls) == 1 and len(reductions) == 1


def test_loop_family_equals_the_loops_of_game_and_direction_bit_for_bit():
    # J0 is the game's loop and J1 the direction's own loop with its columns
    # past ell zeroed, zero sign for zero sign. The specs mix plain and
    # anticipatory players (whose G and negated H carry -0.0); directions skip
    # pairs, carry -0.0 entries, and every tenth is empty
    rng = np.random.default_rng(3737)
    negative_zeros = absent = empty = 0
    for draw in range(240):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 5)) for _ in range(n)]
        game, _ = random_mixed_ne_game(rng, n=n, dims=dims)
        specs = [_anticipatory_or_plain(rng, k) for k in dims]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        direction = {}
        if draw % 10:
            for i, j in pairs:
                if rng.random() < 0.6:
                    d = rng.normal(size=(dims[i], dims[j]))
                    direction[(i, j)] = np.where(rng.random(d.shape) < 0.3, -0.0, d)
        empty += not direction
        absent += len(pairs) - len(direction)
        negative_zeros += sum(int(np.sum(np.signbit(d) & (d == 0))) for d in direction.values())
        J0, J1 = assemble_loop_family(game, specs, direction)
        want0 = assemble_closed_loop(GameLocalMatrix.from_game(game), specs).matrix
        D = GameLocalMatrix.from_game(PolymatrixGame(game.dims, direction))
        want1 = assemble_closed_loop(D, specs).matrix
        want1[:, D.matrix.shape[0] :] = 0.0
        assert_bits_equal(J0, want0)
        assert_bits_equal(J1, want1)
    assert empty >= 24 and absent > 0 and negative_zeros > 0


def test_overflowing_direction_names_its_first_pair():
    # the game is finite; the direction's pairs (1, 2) and (2, 0) overflow in
    # N_i^T D N_j, (0, 1) does not, and the error names (1, 2) with no warning
    big = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
    game, specs = make_jordan(), single_anticipatory_specs()
    direction = {(2, 0): big, (0, 1): np.eye(2), (1, 2): big}
    message = r"^reduced coupling block \(1, 2\) is not finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (assemble_loop_family, robustness_probe):
            with pytest.raises(NonFiniteInputError, match=message):
                route(game, specs, direction)


def test_overflowing_reduced_coupling_names_its_first_pair():
    # in the three-player game pairs (1, 2) and (2, 0) overflow in
    # N_i^T M N_j, (0, 1) does not; in the two-player game both pairs do. The
    # error names the first bad pair in sorted order, with no numpy warning,
    # on every route from a game to its reduced coupling
    big = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
    mats = {(2, 0): big, (0, 1): np.eye(2), (1, 2): big}
    game = PolymatrixGame((2, 2, 2), mats)
    pair = PolymatrixGame((2, 2), {(0, 1): big, (1, 0): big})
    specs, direction = [make_anticipatory(1, 1, 2), GradientPlay()], {(0, 1): np.eye(2)}
    routes = [
        ((1, 2), lambda: assemble_local_game(game, uniform_profile(game))),
        ((0, 1), lambda: GameLocalMatrix.from_game(pair)),
        ((1, 0), lambda: GameLocalMatrix.from_game(make_coordination()).with_pair(1, 0, big)),
        ((0, 1), lambda: assemble_loop_family(pair, specs, direction)),
        ((0, 1), lambda: robustness_probe(pair, specs, direction)),
        ((0, 1), lambda: strong_stabilizability_2x2(pair)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (i, j), route in routes:
            message = rf"^reduced coupling block \({i}, {j}\) is not finite$"
            with pytest.raises(NonFiniteInputError, match=message):
                route()


# --- the loop blocks kept between calls ------------------------------------------


def _flow(game, specs):
    return list(assemble_flow_operators(game, specs))


def _closed(game, specs):
    return [assemble_closed_loop(GameLocalMatrix.from_game(game), specs).matrix]


def _cold(build, game, specs):
    # with the slot cleared, the assembly builds every block afresh
    linearize._last_loop = (None, None)
    return build(game, specs)


def _builders(specs):
    projected = all(isinstance(s, (GradientPlay, HigherOrderGradientPlay)) for s in specs)
    return (_flow, _closed) if projected else (_flow,)


def assert_all_bits_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_bits_equal(g, w)


def test_kept_loop_blocks_equal_cold_builds_across_interleaved_spec_sets():
    rng = np.random.default_rng(3131)
    cases = []
    for dims in ([2, 2], [2, 3, 2], [3, 3, 3], [4, 2]):
        game, _ = random_mixed_ne_game(rng, n=len(dims), dims=dims)
        for projection_only in (True, False):
            cases.append((game, [_any_rule(rng, k, projection_only) for k in dims]))
    hits = 0
    for idx in rng.integers(len(cases), size=80):
        game, specs = cases[idx]
        for build in rng.permutation(_builders(specs)):
            kept = linearize._last_loop[1]
            got = build(game, specs)
            hits += linearize._last_loop[1] is kept
            assert_all_bits_equal(got, _cold(build, game, specs))
    assert hits >= 5


def test_kept_loop_blocks_survive_callers_that_change_the_returned_matrix():
    game, specs = make_jordan(), all_anticipatory_specs()
    direction = {(0, 1): np.eye(2)}
    D = PolymatrixGame(game.dims, direction)
    want = _cold(_closed, D, specs)
    # assemble_loop_family zeroes the later columns of its second loop in place
    J1 = assemble_loop_family(game, specs, direction)[1]
    assert not np.array_equal(J1, want[0])
    got = _closed(D, specs)
    assert_all_bits_equal(got, want)
    got[0][:] = 7.0
    assert_all_bits_equal(_closed(D, specs), want)
    want = _cold(_flow, game, specs)
    pre, aux = _flow(game, specs)
    pre[:] = aux[:] = -0.0
    assert_all_bits_equal(_flow(game, specs), want)


def test_kept_loop_blocks_serve_equal_specs_that_are_distinct_objects():
    game = make_jordan()
    for build in (_flow, _closed):
        first = build(game, all_anticipatory_specs())
        kept = linearize._last_loop[1]
        again = all_anticipatory_specs()
        assert_all_bits_equal(build(game, again), first)
        assert linearize._last_loop[1] is kept
        assert_all_bits_equal(first, _cold(build, game, again))


def _spec_pairs():
    # E = -lam I has zero entries off its diagonal: a -0.0 there keeps its
    # sign in the E block of both loops
    base = make_anticipatory(5.0, 1.0, 3, gamma2=0.8)
    E = np.where(base.E == 0, 0.0, base.E)
    nudged = E.copy()
    nudged[1, 1] = np.nextafter(nudged[1, 1], 0.0)
    first = [dataclasses.replace(base, E=E), GradientPlay()]
    yield "one-entry", [3, 2], first, [dataclasses.replace(base, E=nudged), GradientPlay()]
    signed = np.where(base.E == 0, -0.0, base.E)
    yield "negative-zero", [3, 2], first, [dataclasses.replace(base, E=signed), GradientPlay()]
    two = make_anticipatory(5.0, 1.0, 2)
    yield "other-player", [2, 2], [two, GradientPlay()], [GradientPlay(), two]


@pytest.mark.parametrize(
    "dims, specs, changed", [c[1:] for c in _spec_pairs()], ids=[c[0] for c in _spec_pairs()]
)
def test_kept_loop_blocks_are_not_served_to_specs_that_differ(dims, specs, changed):
    game, _ = random_mixed_ne_game(np.random.default_rng(5), n=2, dims=dims)
    for build in (_flow, _closed):
        warm = build(game, specs)
        got = build(game, changed)
        assert_all_bits_equal(got, _cold(build, game, changed))
        assert any(
            not np.array_equal(a, b) or not np.array_equal(np.signbit(a), np.signbit(b))
            for a, b in zip(got, warm)
        )


def test_kept_loop_blocks_are_keyed_by_lift():
    # the builder itself, on lifts that its two callers never pair with equal
    # dims and specs; which rows are washed follows from the specs, whose
    # change _spec_pairs' "other-player" case covers
    rng = np.random.default_rng(17)
    dims, specs = (3, 2), [make_anticipatory(5.0, 1.0, 3), GradientPlay()]
    K = rng.normal(size=(5, 5))
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    for lift in (a, b, a):
        got = linearize._build_loop(K, lift, dims, specs)
        linearize._last_loop = (None, None)
        want = linearize._build_loop(K, lift, dims, specs)
        assert got[1] == want[1]
        assert_bits_equal(got[0], want[0])


def test_signal_dimension_is_checked_on_every_call():
    game = make_jordan()
    good = all_anticipatory_specs()
    bad = [make_anticipatory(5.0, 1.0, 3), GradientPlay(), GradientPlay()]
    for build in (_flow, _closed):
        for _ in range(2):
            build(game, good)
            for _ in range(2):
                with pytest.raises(ValueError, match="signal dimension 2 does not match k - 1 = 1"):
                    build(game, bad)
        assert_all_bits_equal(build(game, good), _cold(build, game, good))
