"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradplay.analysis import (
    check_mode_support,
    decentralized_stabilizable,
    markov_report,
    pbh_detectable,
    pbh_stabilizable,
    robustness_probe,
    spectral_abscissa,
    strong_stabilizability_2x2,
)
from gradplay.cli import run_scenario
from gradplay.dynamics import (
    GradientPlay,
    HigherOrderGradientPlay,
    PlayerState,
    check_vanishing_modification,
    make_anticipatory,
    modified_payoff,
)
from gradplay.games import (
    PolymatrixGame,
    make_coordination,
    make_jordan,
    uniform_profile,
    verify_ne,
)
from gradplay.linearize import (
    assemble_closed_loop,
    assemble_local_game,
    assemble_plant,
)
from gradplay.simplex import project_to_simplex, tangent_basis
from gradplay.simulate import SimConfig, simulate_open_loop

from conftest import random_mixed_ne_game, rescaled_jordan_split
from test_simplex import qp_projection_oracle


@contextmanager
def criterion(cid, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid} ({text}): FAIL")
        raise
    print(f"ACCEPTANCE {cid} ({text}): PASS")


def single_anticipatory_specs():
    return [make_anticipatory(50.0, 5.0, 2), GradientPlay(), GradientPlay()]


def all_anticipatory_specs():
    return [make_anticipatory(5.0, 1.0, 2, gamma2=0.8) for _ in range(3)]


def test_c01_trace_zero_instability():
    with criterion("1", "zero trace forbids asymptotic stability of plain gradient play"):
        rng = np.random.default_rng(2024)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(50):
                game, profile = random_mixed_ne_game(rng)
                cert = verify_ne(game, profile)
                assert cert.is_ne and cert.completely_mixed
                local = assemble_local_game(game, profile)
                assert abs(np.trace(local.matrix)) <= 1e-10
                v = spectral_abscissa(local.matrix)
                assert v.spectral_abscissa >= -1e-10


def test_c02_rank_tests_on_anticoordination():
    with criterion("2", "PBH full/single-player plus unstable-mode support"):
        g = make_jordan()
        local = assemble_local_game(g, uniform_profile(g))
        plant = assemble_plant(local)
        assert pbh_stabilizable(plant.A, plant.B).ok
        assert pbh_detectable(plant.A, plant.C).ok
        assert pbh_stabilizable(plant.A, plant.B_blocks[0]).ok
        assert pbh_detectable(plant.A, plant.C_blocks[0]).ok
        support = check_mode_support(local)
        assert support.satisfied and not support.indeterminate


def test_c03_decentralized_rank_condition():
    with criterion("3", "decentralized rank condition over all 8 partitions"):
        g = make_jordan()
        plant = assemble_plant(assemble_local_game(g, uniform_profile(g)))
        dec = decentralized_stabilizable(plant)
        assert dec.ok and dec.required_rank == 6
        # extreme partitions reproduce the PBH verdicts exactly
        stab = pbh_stabilizable(plant.A, plant.B).ok
        det = pbh_detectable(plant.A, plant.C).ok
        q_all_ok = not any(f for f in dec.failures if f.output_players == ())
        r_all_ok = not any(f for f in dec.failures if f.input_players == ())
        assert q_all_ok == stab == True
        assert r_all_ok == det == True


def test_c04_single_player_stabilization(jordan_single_result):
    with criterion("4", "single higher-order player stabilizes the cyclic game"):
        r = jordan_single_result
        assert r.verdict.spectral_abscissa < 0
        assert r.trajectory.times[-1] == pytest.approx(200.0)
        assert r.converged  # within 1e-3 of the uniform equilibrium by t=200
        assert r.consistent


def test_c05_diagonal_perturbations(
    jordan_diagonal_small_result, jordan_diagonal_large_result
):
    with criterion("5", "small diagonal perturbation stays stable, large destabilizes"):
        small = jordan_diagonal_small_result
        large = jordan_diagonal_large_result
        assert small.verdict.stable and small.converged
        assert not large.verdict.stable and not large.converged
        assert small.consistent and large.consistent


def test_c06_rescaled_family_and_sweep(jordan_rescaled_results):
    with criterion("6", "payoff-scale root locus: verdicts, crossings, gain split"):
        assert jordan_rescaled_results[1.0].verdict.stable
        assert jordan_rescaled_results[1.0].converged
        assert not jordan_rescaled_results[5.0].verdict.stable
        assert not jordan_rescaled_results[5.0].converged
        assert not jordan_rescaled_results[0.1].verdict.stable
        assert not jordan_rescaled_results[0.1].converged
        sweep = jordan_rescaled_results[1.0].sweep
        assert sweep.grid[0] == pytest.approx(0.01) and sweep.grid[-1] == pytest.approx(100.0)
        assert len(sweep.crossings) == 2
        lo, hi = sweep.crossings[0]
        assert 0.08 <= lo <= hi <= 0.15
        lo, hi = sweep.crossings[1]
        assert 2.5 <= lo <= hi <= 3.5
        rep = markov_report(*rescaled_jordan_split(all_anticipatory_specs()))
        assert rep.cb_norm == 0.0
        assert rep.cab_norm == 0.0
        assert rep.first_nonzero_order == 2
        assert rep.zero_eigenvalue_multiplicity >= 3


def test_c07_parity_obstruction():
    with criterion("7", "coordination mixed equilibrium is not strongly stabilizable"):
        coord = make_coordination()
        res = strong_stabilizability_2x2(coord)
        assert res.verdict == "not_strongly_stabilizable"
        assert res.m12 * res.m21 == pytest.approx(1.0, abs=1e-12)
        plant = assemble_plant(assemble_local_game(coord, uniform_profile(coord)))
        ev = np.sort(np.linalg.eigvals(plant.A).real)
        assert_allclose(ev, [-1.0, -1.0, -1.0, 1.0], atol=1e-10)
        assert np.max(np.abs(np.linalg.eigvals(plant.A).imag)) <= 1e-10
        zs = PolymatrixGame(
            (2, 2),
            {
                (0, 1): np.array([[1.0, -1.0], [-1.0, 1.0]]),
                (1, 0): np.array([[-1.0, 1.0], [1.0, -1.0]]),
            },
        )
        zres = strong_stabilizability_2x2(zs)
        assert zres.m12 == pytest.approx(-zres.m21, abs=1e-12)
        assert zres.verdict == "parity_condition_passed"


def test_c08_inherently_unstable_stabilization(
    coordination_stabilize_result, coordination_openloop_result
):
    with criterion("8", "coordination stabilized in loop, open loop misses best response"):
        stab = coordination_stabilize_result
        assert stab.verdict.stable and stab.converged and stab.consistent
        ol = coordination_openloop_result
        final_x = ol.trajectory.strategy(0)[-1]
        assert np.max(np.abs(final_x - np.array([1.0, 0.0]))) <= 1e-2
        assert np.max(np.abs(ol.trajectory.aux(0)[-1])) > 1e3


def _phi_norm(spec, basis, state_x, state_xi, state_v, payoff):
    state = PlayerState.higher_order(state_x, state_xi, state_v)
    return float(np.max(np.abs(modified_payoff(spec, state, payoff, basis) - payoff)))


def test_c09_property_suites(
    jordan_single_result,
    jordan_random_result,
    jordan_diagonal_small_result,
    jordan_diagonal_large_result,
    jordan_rescaled_results,
    coordination_stabilize_result,
    coordination_openloop_result,
):
    with criterion("9", "projection oracle, washout decay, invariances, step halving"):
        # projection vs brute-force oracle: 1000 random cases across k in {2,3,5}
        rng = np.random.default_rng(77)
        checked = 0
        for k in (2, 3, 5):
            for _ in (range(334) if k == 2 else range(333)):
                x = rng.uniform(-4.0, 4.0, size=k) * rng.choice([0.2, 1.0, 25.0])
                p = project_to_simplex(x)
                assert_allclose(p, qp_projection_oracle(x), atol=1e-8)
                # idempotence
                assert_allclose(project_to_simplex(p), p, atol=1e-12)
                checked += 1
        assert checked == 1000
        # nonexpansiveness
        for _ in range(500):
            k = int(rng.integers(2, 6))
            x = rng.uniform(-5.0, 5.0, size=k)
            y = rng.uniform(-5.0, 5.0, size=k)
            assert np.linalg.norm(
                project_to_simplex(x) - project_to_simplex(y)
            ) <= np.linalg.norm(x - y) + 1e-12

        # washout decay: stable compensator, constant payoff, cold start
        cfg = SimConfig(step=0.01, horizon=20.0, record_stride=100)
        for trial in range(20):
            k = int(rng.integers(2, 4))
            ell = int(rng.integers(1, 4))
            A = rng.normal(size=(ell, ell))
            shift = float(np.max(np.linalg.eigvals(A).real)) + rng.uniform(1.0, 5.0)
            spec = HigherOrderGradientPlay(
                E=A - shift * np.eye(ell),
                F=rng.uniform(-1.0, 1.0, size=(ell, k - 1)),
                G=rng.uniform(-1.0, 1.0, size=(k - 1, ell)),
                H=rng.uniform(-1.0, 1.0, size=(k - 1, k - 1)),
            )
            assert np.max(np.linalg.eigvals(spec.E).real) <= -0.5
            payoff = rng.uniform(-1.0, 1.0, size=k)
            x0 = np.full(k, 1.0 / k)
            traj = simulate_open_loop(spec, payoff, x0, cfg, v0="zero")
            basis = tangent_basis(k)
            phi_end = _phi_norm(
                spec, basis, traj.strategy(0)[-1], traj.aux(0)[-1], traj.washout(0)[-1], payoff
            )
            assert phi_end < 1e-6

        # vanishing-modification residual for 100 random anticipatory wrappers
        for _ in range(100):
            lam = float(10.0 ** rng.uniform(-1.0, 2.0))
            gamma = float(10.0 ** rng.uniform(-1.0, 2.0))
            res = check_vanishing_modification(
                D=-lam * np.eye(2),
                E=lam * np.eye(2),
                F=gamma * lam * np.eye(2),
                G=-gamma * lam * np.eye(2),
            )
            assert res.ok and res.residual <= 1e-9

        # simplex invariance along every scenario trajectory
        results = [
            jordan_single_result,
            jordan_random_result,
            jordan_diagonal_small_result,
            jordan_diagonal_large_result,
            *jordan_rescaled_results.values(),
            coordination_stabilize_result,
            coordination_openloop_result,
        ]
        for r in results:
            for i in range(r.trajectory.layout.n):
                xs = r.trajectory.strategy(i)
                assert xs.min() >= -1e-6
                assert np.max(np.abs(xs.sum(axis=1) - 1.0)) <= 1e-6

        # fixed-step robustness: halving the step moves converged endpoints < 1e-6
        base = run_scenario("jordan-rescaled", {"horizon": 100.0})
        half = run_scenario("jordan-rescaled", {"horizon": 100.0, "h": 0.005})
        assert np.max(np.abs(base.trajectory.states[-1] - half.trajectory.states[-1])) < 1e-6
        base = run_scenario("jordan-single", {"horizon": 60.0})
        half = run_scenario("jordan-single", {"horizon": 60.0, "h": 0.001})
        assert np.max(np.abs(base.trajectory.states[-1] - half.trajectory.states[-1])) < 1e-6


def test_c10_robustness_margin():
    with criterion("10", "certified stable radius along the diagonal direction"):
        direction = {
            (0, 1): 0.3877 * np.eye(2),
            (1, 2): 0.1446 * np.eye(2),
            (2, 0): 0.1352 * np.eye(2),
        }
        res = robustness_probe(make_jordan(), single_anticipatory_specs(), direction, max_delta=1.0)
        assert res.certified_delta >= 0.05
