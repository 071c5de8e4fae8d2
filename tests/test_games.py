import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gradplay.games
from gradplay.cli import game_from_json, game_to_json
from gradplay.games import (
    MIXED_TOL,
    NE_TOL,
    PolymatrixGame,
    make_coordination,
    make_jordan,
    payoff_map,
    perturb_jordan_diagonal,
    perturb_random,
    uniform_profile,
    utility,
    validate_profile,
    verify_ne,
)
from gradplay.simplex import NonFiniteInputError

from conftest import random_mixed_ne_game

ANTI = np.array([[0.0, 1.0], [1.0, 0.0]])


def e(k, idx):
    v = np.zeros(k)
    v[idx] = 1.0
    return v


def test_payoff_map_jordan_uniform():
    g = make_jordan()
    p = payoff_map(g, 0, uniform_profile(g))
    assert_allclose(p, [0.5, 0.5], atol=1e-15)


def test_payoff_map_pure_opponents_column_sums():
    rng = np.random.default_rng(0)
    g, _ = random_mixed_ne_game(rng, n=3, dims=[2, 3, 4])
    profile = [e(k, 0) for k in g.dims]
    for i in range(3):
        expected = sum(g.pair(i, j)[:, 0] for j in range(3) if j != i)
        assert_allclose(payoff_map(g, i, profile), expected, atol=1e-12)


def test_payoff_map_identity_matrix_echoes_opponent():
    g = make_coordination()
    p = payoff_map(g, 0, [np.array([0.5, 0.5]), np.array([0.3, 0.7])])
    assert_allclose(p, [0.3, 0.7], atol=1e-15)


def test_utility_jordan_uniform():
    g = make_jordan()
    assert utility(g, 0, uniform_profile(g)) == pytest.approx(0.5)


def test_utility_coordination_matched_pure():
    g = make_coordination()
    profile = [e(2, 0), e(2, 0)]
    assert utility(g, 0, profile) == pytest.approx(1.0)


def test_utility_scales_with_payoff_scale():
    g = make_jordan(scale=3.5)
    assert utility(g, 0, uniform_profile(g)) == pytest.approx(3.5 / 2.0)
    # only player 0's utility is rescaled
    assert utility(g, 1, uniform_profile(g)) == pytest.approx(0.5)


def test_utility_bilinear_in_own_strategy():
    rng = np.random.default_rng(1)
    g, profile = random_mixed_ne_game(rng, n=3, dims=[3, 2, 3])
    y = rng.random(3)
    y /= y.sum()
    z = rng.random(3)
    z /= z.sum()
    for a in (0.0, 0.25, 0.7, 1.0):
        mixed = [a * y + (1 - a) * z] + profile[1:]
        u = utility(g, 0, mixed)
        uy = utility(g, 0, [y] + profile[1:])
        uz = utility(g, 0, [z] + profile[1:])
        assert u == pytest.approx(a * uy + (1 - a) * uz, abs=1e-12)


def test_verify_ne_jordan_uniform():
    g = make_jordan()
    cert = verify_ne(g, uniform_profile(g))
    assert cert.is_ne and cert.completely_mixed
    assert_allclose(cert.payoff_levels, [0.5, 0.5, 0.5], atol=1e-12)
    assert cert.max_violation <= 1e-12


def test_verify_ne_jordan_rescaled_uniform():
    for scale in (0.1, 1.0, 5.0, 42.0):
        g = make_jordan(scale)
        cert = verify_ne(g, uniform_profile(g))
        assert cert.is_ne and cert.completely_mixed


def test_verify_ne_coordination_mixed_and_pure():
    g = make_coordination()
    mixed = verify_ne(g, uniform_profile(g))
    assert mixed.is_ne and mixed.completely_mixed
    pure = verify_ne(g, [e(2, 0), e(2, 0)])
    assert pure.is_ne and not pure.completely_mixed
    pure2 = verify_ne(g, [e(2, 1), e(2, 1)])
    assert pure2.is_ne and not pure2.completely_mixed


def test_verify_ne_rejects_non_equilibrium():
    g = make_jordan()
    cert = verify_ne(g, [np.array([0.9, 0.1]), np.array([0.5, 0.5]), np.array([0.5, 0.5])])
    assert not cert.is_ne
    assert cert.max_violation > 1e-3


BIG = 1.7e308


def test_overflowing_payoff_raises_typed_error_without_warning():
    # player 0 gets +-BIG from each opponent: the sums overflow to +-inf
    big = [[BIG, BIG], [-BIG, -BIG]]
    g = PolymatrixGame((2, 2, 2), {(0, 1): big, (0, 2): big})
    profile = uniform_profile(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (payoff_map, utility):
            with pytest.raises(NonFiniteInputError, match="player 0"):
                call(g, 0, profile)
        with pytest.raises(NonFiniteInputError, match="player 0"):
            verify_ne(g, profile)
        assert_array_equal(payoff_map(g, 1, profile), [0.0, 0.0])


def test_overflowing_payoff_gap_raises_typed_error_without_warning():
    # finite payoffs +-BIG, but on the worse strategy the gain max(p) - u
    # and the spread around the mean level both overflow
    g = PolymatrixGame((2, 2), {(0, 1): [[BIG, BIG], [-BIG, -BIG]]})
    profile = [np.array([0.0, 1.0]), np.array([0.5, 0.5])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert utility(g, 0, profile) == -BIG
        with pytest.raises(NonFiniteInputError, match="payoff gap of player 0"):
            verify_ne(g, profile)


# G @ x = [BIG, -BIG] for every probability vector x: two such pairs overflow
# a payoff, and a player on its second strategy overflows its gain
GAP = [[BIG, BIG], [-BIG, -BIG]]
U, SECOND = [0.5, 0.5], [0.0, 1.0]


@pytest.mark.parametrize(
    "pairs, profile, message",
    [
        ([(0, 1), (1, 0), (1, 2)], [SECOND, U, U], "utility or payoff gap of player 0"),
        ([(0, 1), (0, 2), (1, 0)], [U, SECOND, U], "payoff of player 0"),
        ([(1, 0), (1, 2), (2, 0)], [U, U, SECOND], "payoff of player 1"),
        ([(1, 0), (2, 0), (2, 1)], [U, SECOND, U], "utility or payoff gap of player 1"),
    ],
)
def test_verify_ne_names_the_first_non_finite_player(pairs, profile, message):
    # players in order, each payoff before its gain and spread
    g = PolymatrixGame((2, 2, 2), {pair: GAP for pair in pairs})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match=f"^{message} is not finite$"):
            verify_ne(g, [np.array(x) for x in profile])


def pair_order_payoff(game, i, xs):
    """Player i's payoff vector summed pair by pair in the game's pair order."""
    p = np.zeros(game.dims[i])
    for (a, j), m in game.pair_matrices.items():
        if a == i:
            p += m @ xs[j]
    return p


def per_player_certificate(game, xs, tol=NE_TOL):
    """verify_ne's verdict from one payoff_map call per player."""
    ps = [payoff_map(game, i, xs) for i in range(game.n)]
    gains = [float(np.max(p) - x @ p) for x, p in zip(xs, ps)]
    levels = tuple(float(np.mean(p)) for p in ps)
    defects = [float(np.max(np.abs(p - a))) for p, a in zip(ps, levels)]
    mixed = all(float(np.min(x)) > max(tol, MIXED_TOL) for x in xs)
    return max(gains) <= tol, mixed, levels, max(gains + defects) if mixed else max(gains)


def test_verify_ne_equals_the_per_player_payoff_maps_bit_for_bit():
    # at the equilibrium of each draw and at a random interior profile
    rng = np.random.default_rng(38)
    for _ in range(40):
        g, profile = random_mixed_ne_game(rng)
        away = [x / x.sum() for x in (rng.random(k) + 0.05 for k in g.dims)]
        for xs in (profile, away):
            for i in range(g.n):
                assert payoff_map(g, i, xs).tobytes() == pair_order_payoff(g, i, xs).tobytes()
            cert = verify_ne(g, xs)
            is_ne, mixed, levels, violation = per_player_certificate(g, xs)
            assert (cert.is_ne, cert.completely_mixed) == (is_ne, mixed)
            assert np.array(cert.payoff_levels).tobytes() == np.array(levels).tobytes()
            assert np.float64(cert.max_violation).tobytes() == np.float64(violation).tobytes()
            assert all(a.tobytes() == np.asarray(x).tobytes() for a, x in zip(cert.profile, xs))


def test_each_payoff_call_validates_the_profile_once(monkeypatch):
    calls = []
    real = gradplay.games.validate_profile
    monkeypatch.setattr(
        gradplay.games, "validate_profile", lambda g, p: calls.append(1) or real(g, p)
    )
    g = make_jordan()
    profile = uniform_profile(g)
    for call in (payoff_map, utility):
        call(g, 1, profile)
        assert len(calls) == 1
        calls.clear()
    verify_ne(g, profile)
    assert len(calls) == 1


def test_verify_ne_constant_payoff_on_random_mixed_equilibria():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g, profile = random_mixed_ne_game(rng)
        cert = verify_ne(g, profile)
        assert cert.is_ne and cert.completely_mixed
        for i in range(g.n):
            p = payoff_map(g, i, profile)
            assert_allclose(p, np.full(g.dims[i], cert.payoff_levels[i]), atol=1e-9)
            # the certificate bounds the payoff-constancy defect
            defect = np.max(np.abs(p - cert.payoff_levels[i]))
            assert defect <= cert.max_violation + 1e-15


def test_game_equality_compares_matrices():
    assert make_jordan() == make_jordan()
    assert make_jordan() != make_jordan(2.0)
    assert make_jordan() != make_coordination()


def test_make_jordan_matrices():
    g = make_jordan()
    assert g.dims == (2, 2, 2)
    assert_array_equal(g.pair(0, 1), ANTI)
    assert_array_equal(g.pair(1, 2), ANTI)
    assert_array_equal(g.pair(2, 0), ANTI)
    assert_array_equal(g.pair(1, 0), np.zeros((2, 2)))


def test_make_jordan_scale_applies_to_first_pair_only():
    g = make_jordan(5.0)
    assert_array_equal(g.pair(0, 1), 5.0 * ANTI)
    assert_array_equal(g.pair(1, 2), ANTI)


def test_make_jordan_rejects_nonpositive_scale():
    for scale in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            make_jordan(scale)


def test_make_coordination_matrices():
    g = make_coordination()
    assert g.dims == (2, 2)
    assert_array_equal(g.pair(0, 1), np.eye(2))
    assert_array_equal(g.pair(1, 0), np.eye(2))


def test_perturb_jordan_diagonal_values():
    g = perturb_jordan_diagonal(0.3877, 0.1446, 0.1352)
    assert_allclose(g.pair(0, 1), [[0.3877, 1.0], [1.0, 0.3877]])
    assert_allclose(g.pair(1, 2), [[0.1446, 1.0], [1.0, 0.1446]])
    assert_allclose(g.pair(2, 0), [[0.1352, 1.0], [1.0, 0.1352]])
    cert = verify_ne(g, uniform_profile(g))
    assert cert.is_ne and cert.completely_mixed


def test_perturb_jordan_diagonal_zero_limit():
    g = perturb_jordan_diagonal(0.0, 0.0, 0.0)
    for key in ((0, 1), (1, 2), (2, 0)):
        assert_array_equal(g.pair(*key), ANTI)


def test_perturb_jordan_diagonal_large_values_still_mixed_ne():
    g = perturb_jordan_diagonal(0.8831, 0.4259, 0.7546)
    cert = verify_ne(g, uniform_profile(g))
    assert cert.is_ne and cert.completely_mixed


def test_perturb_jordan_diagonal_range_check():
    with pytest.raises(ValueError):
        perturb_jordan_diagonal(1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        perturb_jordan_diagonal(-0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        perturb_jordan_diagonal(0.1, np.nan, 0.1)


def test_perturb_random_zero_sigma_is_identity():
    g = make_jordan()
    g2 = perturb_random(g, 0.0, seed=123)
    for key in g.pair_matrices:
        assert_array_equal(g2.pair(*key), g.pair(*key))


def test_perturb_random_deterministic_and_nontrivial():
    g = make_jordan()
    a = perturb_random(g, 0.3, seed=1)
    b = perturb_random(g, 0.3, seed=1)
    c = perturb_random(g, 0.3, seed=2)
    for key in g.pair_matrices:
        assert_array_equal(a.pair(*key), b.pair(*key))
        assert np.linalg.norm(a.pair(*key) - g.pair(*key)) > 0
    assert any(
        np.linalg.norm(a.pair(*key) - c.pair(*key)) > 0 for key in g.pair_matrices
    )


def test_perturb_random_touches_only_stored_pairs():
    g = make_jordan()
    p = perturb_random(g, 0.5, seed=9)
    assert set(p.pair_matrices) == {(0, 1), (1, 2), (2, 0)}


def test_perturb_random_rejects_negative_sigma():
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            perturb_random(make_jordan(), sigma, seed=0)


def test_game_shape_validation():
    with pytest.raises(ValueError):
        PolymatrixGame((2, 2), {(0, 1): np.zeros((3, 2))})
    with pytest.raises(ValueError):
        PolymatrixGame((2, 2), {(0, 0): np.zeros((2, 2))})
    with pytest.raises(ValueError):
        PolymatrixGame((1, 2), {})


def test_game_without_players_rejected():
    with pytest.raises(ValueError, match="a game needs at least one player"):
        PolymatrixGame(())
    assert PolymatrixGame((2,)).n == 1  # the open loop's one-player game


def test_fractional_dims_are_rejected_not_truncated():
    with pytest.raises(TypeError, match=r"^game dims must be integers, got 2\.7$"):
        PolymatrixGame((2.7, 2), {(0, 1): np.eye(2)})


def test_string_dims_are_rejected_not_parsed():
    with pytest.raises(TypeError, match=r"^game dims must be integers, got '3'$"):
        PolymatrixGame(("3", 2))


def test_bool_pair_index_is_rejected():
    # stored as True, it would reach game_to_json as "i": true, which
    # game_from_json rejects
    with pytest.raises(TypeError, match=r"^game pair indices must be integers, got True$"):
        PolymatrixGame((2, 2), {(True, 0): np.eye(2)})


def test_float_pair_index_names_the_field():
    with pytest.raises(TypeError, match=r"^game pair indices must be integers, got 0\.0$"):
        PolymatrixGame((2, 2), {(0.0, 1): np.eye(2)})


def test_numpy_integer_fields_are_stored_as_plain_ints():
    # so the game writes as JSON and reads back equal
    g = PolymatrixGame((np.int64(2), np.int32(2)), {(np.int64(0), np.int64(1)): ANTI})
    assert [type(k) for k in g.dims] == [int, int]
    assert [type(v) for key in g.pair_matrices for v in key] == [int, int]
    assert game_from_json(json.loads(json.dumps(game_to_json(g)))) == g


@pytest.mark.parametrize("i", [-1, 3])
def test_payoff_map_rejects_player_out_of_range(i):
    g = make_jordan()
    with pytest.raises(ValueError, match=f"player index {i} out of range for 3 players"):
        payoff_map(g, i, uniform_profile(g))


@pytest.mark.parametrize("call", [payoff_map, utility])
@pytest.mark.parametrize("i", [-1, 3])
def test_player_index_is_checked_before_the_profile(call, i):
    g = make_jordan()
    for profile in (uniform_profile(g), [np.array([0.6, 0.6])] * 2):
        with pytest.raises(ValueError, match=f"player index {i} out of range for 3 players"):
            call(g, i, profile)


def test_profile_validation():
    g = make_jordan()
    with pytest.raises(ValueError):
        validate_profile(g, [np.array([0.5, 0.5])] * 2)
    with pytest.raises(ValueError):
        validate_profile(g, [np.array([0.6, 0.6])] + uniform_profile(g)[1:])
    with pytest.raises(ValueError):
        payoff_map(g, 0, [np.array([0.5, 0.5, 0.0])] + uniform_profile(g)[1:])
    for bad in ([np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.0], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="probability vector"):
            validate_profile(g, [np.array(bad)] + uniform_profile(g)[1:])
