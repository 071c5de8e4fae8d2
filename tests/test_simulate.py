import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import gradplay.cli as cli
import gradplay.simulate as sim
from gradplay.cli import run_scenario, scenario_names
from gradplay.dynamics import (
    GradientPlay,
    HigherOrderGradientPlay,
    PlayerState,
    Replicator,
    SmoothFictitiousPlay,
    aux_dim,
    derivative,
    make_anticipatory,
)
from gradplay.games import PolymatrixGame, make_jordan, uniform_profile
from gradplay.linearize import assemble_flow_operators
from gradplay.simplex import NonFiniteInputError, project_to_simplex, tangent_basis
from gradplay.simulate import (
    NonFiniteStateError,
    SimConfig,
    detect_convergence,
    simulate_coupled,
    simulate_open_loop,
)

from conftest import random_mixed_ne_game


def offset_init(game, offset=0.05):
    return [
        np.full(k, 1.0 / k) + offset * tangent_basis(k).N[:, 0] for k in game.dims
    ]


def single_anticipatory_specs():
    return [make_anticipatory(50.0, 5.0, 2), GradientPlay(), GradientPlay()]


# --- basic integration -----------------------------------------------------


def test_equilibrium_is_stationary_fixed_order():
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=5.0, record_stride=10)
    traj = simulate_coupled(g, [GradientPlay()] * 3, uniform_profile(g), cfg)
    for i in range(3):
        assert_allclose(traj.strategy(i), 0.5 * np.ones_like(traj.strategy(i)), atol=1e-12)


def test_equilibrium_is_stationary_higher_order_steady_start():
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=5.0, record_stride=10)
    traj = simulate_coupled(g, single_anticipatory_specs(), uniform_profile(g), cfg)
    assert_allclose(traj.states[-1], traj.states[0], atol=1e-12)


def test_determinism_bit_identical():
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=3.0, record_stride=5)
    a = simulate_coupled(g, single_anticipatory_specs(), offset_init(g), cfg)
    b = simulate_coupled(g, single_anticipatory_specs(), offset_init(g), cfg)
    assert_array_equal(a.states, b.states)
    assert_array_equal(a.times, b.times)


def test_fast_and_generic_paths_agree(monkeypatch):
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=2.0, record_stride=5)
    fast = simulate_coupled(g, single_anticipatory_specs(), offset_init(g), cfg)
    monkeypatch.setattr(sim, "_projection_family", lambda specs: False)
    generic = simulate_coupled(g, single_anticipatory_specs(), offset_init(g), cfg)
    assert_allclose(fast.states, generic.states, atol=1e-10)


def _support_left_full(traj, game, specs):
    # whether some recorded state projects onto a face of a simplex
    PRE, _ = assemble_flow_operators(game, specs)
    for y in traj.states:
        z = PRE @ y
        for i in range(traj.layout.n):
            if np.any(project_to_simplex(z[traj.layout.x_slice(i)]) == 0.0):
                return True
    return False


PRESET_RUNS = [
    ("jordan-single", {"h": 0.02, "horizon": 4.0}, False),
    ("jordan-random", {"h": 0.02, "horizon": 4.0}, False),
    ("jordan-diagonal", {"h": 0.02, "horizon": 4.0}, False),
    ("jordan-rescaled", {"h": 0.02, "horizon": 4.0}, False),
    ("coordination-stabilize", {"h": 0.02, "horizon": 4.0}, False),
    # the saturating variants of conftest, shortened through h and horizon
    ("jordan-diagonal", {"deltas": (0.8831, 0.4259, 0.7546), "h": 0.04, "horizon": 30.0}, True),
    ("jordan-rescaled", {"mu": 5.0, "h": 0.02, "horizon": 4.0}, True),
    ("jordan-rescaled", {"mu": 0.1, "h": 0.1, "horizon": 62.0}, True),
    # the open loop, one player against a constant payoff: its unstable aux
    # state reaches 70 by t = 10 (2.3e8 by the default t = 40); the support
    # check below reads the coupled presets' flows
    ("coordination-openloop", {"horizon": 10.0}, None),
]


@pytest.mark.parametrize("name,overrides,saturates", PRESET_RUNS)
def test_presets_match_per_stage_reference(monkeypatch, name, overrides, saturates):
    fast = run_scenario(name, overrides)
    monkeypatch.setattr(sim, "_projection_family", lambda specs: False)
    ref = run_scenario(name, overrides)
    assert_allclose(fast.trajectory.states, ref.trajectory.states, rtol=0, atol=1e-10)
    assert_array_equal(fast.trajectory.times, ref.trajectory.times)

    def verdict(r):
        return (r.verdict.stable, r.converged, r.consistent, r.diverged)

    assert verdict(fast) == verdict(ref)
    if saturates is None:
        return
    preset = cli._PRESETS[name]
    game = preset.game(cli._take(overrides, preset.defaults))
    specs = cli._data_specs(preset.specs_file, game)
    assert _support_left_full(fast.trajectory, game, specs) == saturates


def _region_case(seed, lam, stride):
    """Seeded coupled and open-loop projection-family runs of 95 steps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    dims = [int(rng.integers(2, 5)) for _ in range(n)]
    game, _ = random_mixed_ne_game(rng, n=n, dims=dims)
    specs = [
        make_anticipatory(lam, float(rng.uniform(0.1, 1.0)), k)
        if rng.random() < 0.5
        else GradientPlay()
        for k in dims
    ]
    init = []
    for k in dims:
        x = rng.random(k) + 0.1
        if rng.random() < 0.5:
            x[rng.integers(k)] = 0.0  # boundary start
        init.append(x / x.sum())
    # the open loop: player 0 alone against a constant payoff
    payoff = rng.normal(size=dims[0])
    v0 = "steady" if rng.random() < 0.5 else "zero"
    # 95 steps: stride 7 does not divide the run, stride 200 exceeds it
    cfg = SimConfig(step=0.01, horizon=0.95, record_stride=stride)

    def runs():
        return (
            simulate_coupled(game, specs, init, cfg),
            simulate_open_loop(specs[0], payoff, init[0], cfg, v0=v0),
        )

    return runs


REGION_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    lam=st.sampled_from([5.0, 50.0]),
    stride=st.sampled_from([1, 7, 200]),
)
REGION_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@REGION_SETTINGS
@given(**REGION_CASES)
def test_region_propagator_matches_per_stage_reference(monkeypatch, seed, lam, stride):
    runs = _region_case(seed, lam, stride)
    with monkeypatch.context() as m:
        m.setattr(sim, "_projection_family", lambda specs: False)
        refs = runs()
    for fast, ref in zip(runs(), refs):
        assert_array_equal(fast.times, ref.times)
        assert_allclose(fast.states, ref.states, rtol=0, atol=1e-10)


# --- runs of record blocks against one block per region check ----------------


def _plain_steps(monkeypatch, run):
    """run()'s result, and the steps it took as plain RK4."""
    steps = []
    plain_step = sim._rk4_step

    def counted(*args):
        steps.append(args[1])
        return plain_step(*args)

    with monkeypatch.context() as m:
        m.setattr(sim, "_rk4_step", counted)
        return run(), steps


def _assert_runs_match_single_blocks(monkeypatch, run):
    """run() is bit for bit the same, with the same plain steps, when one
    region check clears one block at a time."""
    out, steps = _plain_steps(monkeypatch, run)
    with monkeypatch.context() as m:
        m.setattr(sim, "_MAX_RUN", 1)
        ref, ref_steps = _plain_steps(monkeypatch, run)
    for traj, single in zip(out, ref):
        assert_array_equal(traj.times, single.times)
        assert_array_equal(traj.states, single.states)
    assert steps == ref_steps
    return steps


@REGION_SETTINGS
@given(**REGION_CASES)
def test_region_runs_match_single_blocks(monkeypatch, seed, lam, stride):
    _assert_runs_match_single_blocks(monkeypatch, _region_case(seed, lam, stride))


# the benchmark's preset items at full length: the paper presets, then the
# three saturating variants
BENCH_PRESETS = [
    ("jordan-single", {}, False),
    ("jordan-random", {}, False),
    ("jordan-diagonal", {}, False),
    ("jordan-rescaled", {}, False),
    ("coordination-stabilize", {}, False),
    ("coordination-openloop", {}, False),
    ("jordan-diagonal", {"deltas": (0.8831, 0.4259, 0.7546), "horizon": 60.0}, True),
    ("jordan-rescaled", {"mu": 5.0, "horizon": 30.0}, True),
    ("jordan-rescaled", {"mu": 0.1, "horizon": 60.0}, True),
]


@pytest.mark.parametrize("name,overrides,saturates", BENCH_PRESETS)
def test_presets_match_single_blocks(monkeypatch, name, overrides, saturates):
    steps = _assert_runs_match_single_blocks(
        monkeypatch, lambda: [run_scenario(name, overrides).trajectory]
    )
    assert bool(steps) == saturates


@pytest.mark.parametrize("stride", [1, 7, 64, 65, 200])
@pytest.mark.parametrize("mu", [1.0, 5.0])
def test_region_runs_match_single_blocks_at_any_stride(monkeypatch, stride, mu):
    # the rescaled loop is stable at mu = 1 and saturates at mu = 5; its run
    # of 3007 = 31 * 97 steps is a multiple of none of these strides but 1
    g = make_jordan(mu)
    specs = cli._data_specs("jordan_rescaled.specs.json", g)
    cfg = SimConfig(step=0.01, horizon=30.07, record_stride=stride)
    steps = _assert_runs_match_single_blocks(
        monkeypatch, lambda: [simulate_coupled(g, specs, offset_init(g), cfg)]
    )
    assert bool(steps) == (mu == 5.0)


def test_region_check_clears_runs_of_blocks(monkeypatch):
    # jordan-single records 2,000 blocks of 50 steps and leaves no region:
    # runs of 1, 2, 4, ... 64 blocks take a few dozen checks
    checks = []
    steps_kept = sim._Region.steps_kept

    def counted(self, Y, n):
        checks.append(len(n))
        return steps_kept(self, Y, n)

    monkeypatch.setattr(sim._Region, "steps_kept", counted)
    run_scenario("jordan-single")
    assert sum(checks) == 2000 and max(checks) == sim._MAX_RUN and len(checks) < 50


def test_open_loop_zero_margin_rest_point_matches_per_stage_reference(monkeypatch):
    # equal payoffs and a vertex start: a rest point whose projection argument
    # has KKT margin exactly 0 on the two strategies off the support
    p = np.ones(3)
    x0 = [1.0, 0.0, 0.0]
    cfg = SimConfig(step=0.01, horizon=10.0, record_stride=10)
    for spec, v0 in ((GradientPlay(), "zero"), (make_anticipatory(5.0, 1.0, 3), "steady")):
        fast = simulate_open_loop(spec, p, x0, cfg, v0=v0)
        with monkeypatch.context() as m:
            m.setattr(sim, "_projection_family", lambda specs: False)
            ref = simulate_open_loop(spec, p, x0, cfg, v0=v0)
        assert_allclose(fast.states, ref.states, rtol=0, atol=1e-10)
        assert_allclose(fast.strategy(0), np.tile(x0, (fast.times.size, 1)), rtol=0, atol=1e-12)


def test_open_loop_zero_margin_rest_point_takes_no_plain_steps(monkeypatch):
    # the zero KKT margins of that rest point are ties: both supports project
    # to the same point, so the block check keeps the region and the run jumps
    calls = []
    plain_step = sim._rk4_step

    def counted(*args):
        calls.append(args[1])
        return plain_step(*args)

    monkeypatch.setattr(sim, "_rk4_step", counted)
    cfg = SimConfig(horizon=100.0)
    for spec, v0 in ((GradientPlay(), "zero"), (make_anticipatory(5.0, 1.0, 3), "steady")):
        calls.clear()
        simulate_open_loop(spec, np.ones(3), [1.0, 0.0, 0.0], cfg, v0=v0)
        assert len(calls) <= 10


def test_replicator_conserves_strategy_mass_at_negative_mean_payoff():
    # rock-paper-scissors less 1: the mean payoff x.p is about -1, where
    # dx = x (p - x.p) would push rounding off the simplex at rate -x.p
    rps = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    g = PolymatrixGame((3, 3), {(0, 1): rps - 1.0, (1, 0): rps - 1.0})
    init = [np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.2, 0.6])]
    cfg = SimConfig(step=0.1, horizon=400.0, record_stride=20)
    traj = simulate_coupled(g, [Replicator()] * 2, init, cfg)
    for i in range(2):
        assert np.max(np.abs(traj.strategy(i).sum(axis=1) - 1.0)) <= 1e-12
        assert np.min(traj.strategy(i)) > 0.1


def test_replicator_derivative_conserves_strategy_mass_off_the_simplex():
    x = np.array([0.5, 0.4, 0.3])
    d = derivative(Replicator(), PlayerState(x, np.zeros(0), np.zeros(0)), [-1.0, 2.0, 0.5])
    assert abs(d.dx.sum()) <= 1e-15


def test_mixed_variants_use_generic_path():
    g = make_jordan()
    specs = [make_anticipatory(5.0, 1.0, 2), Replicator(), SmoothFictitiousPlay(0.5)]
    cfg = SimConfig(step=0.01, horizon=2.0, record_stride=10)
    traj = simulate_coupled(g, specs, offset_init(g), cfg)
    for i in range(3):
        assert np.all(traj.strategy(i) >= -1e-9)
        assert_allclose(traj.strategy(i).sum(axis=1), 1.0, atol=1e-9)


# --- the stacked flow against per-player dynamics.derivative -------------------


def per_player_rk4(game, specs, init, cfg, c=None, steady=True):
    """Fixed-step RK4 with one dynamics.derivative call per player and stage.

    The state is simulate_coupled's (x, xi, v) layout with aux states at 0
    and washouts at their steady value N_i^T p_i (or 0 without steady); c is
    a constant added to the payoffs. Returns (times, states) recorded every
    record_stride steps and at the end, or the end time of the step at which
    a stage payoff or the new state stops being finite.
    """
    c = np.zeros(sum(game.dims)) if c is None else c
    bases = [tangent_basis(k) for k in game.dims]
    x_at = np.cumsum([0] + list(game.dims))
    xi_at = x_at[-1] + np.cumsum([0] + [aux_dim(s) for s in specs])
    washed = [isinstance(s, HigherOrderGradientPlay) * (k - 1) for s, k in zip(specs, game.dims)]
    v_at = xi_at[-1] + np.cumsum([0] + washed)

    def payoffs(y):
        p = [c[x_at[i] : x_at[i + 1]].copy() for i in range(game.n)]
        for (i, j), m in game.pair_matrices.items():
            p[i] += m @ y[x_at[j] : x_at[j + 1]]
        return p

    def f(y):
        out = np.empty_like(y)
        for i, (spec, p) in enumerate(zip(specs, payoffs(y))):
            xs, xis, vs = (slice(at[i], at[i + 1]) for at in (x_at, xi_at, v_at))
            d = derivative(spec, PlayerState(y[xs], y[xis], y[vs]), p, bases[i])
            out[xs], out[xis], out[vs] = d
        return out

    h = cfg.step
    n_steps = int(round(cfg.horizon / h))
    y = np.zeros(v_at[-1])
    y[: x_at[-1]] = np.concatenate(init)
    for i, p in enumerate(payoffs(y)):
        if steady and isinstance(specs[i], HigherOrderGradientPlay):
            y[v_at[i] : v_at[i + 1]] = bases[i].N.T @ p
    times, states = [0.0], [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            try:
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
            except NonFiniteInputError:
                return step * h
            y = y + (k1 + 2.0 * (k2 + k3) + k4) * (h / 6.0)
            if not np.isfinite(y).all():
                return step * h
            if step % cfg.record_stride == 0 or step == n_steps:
                times.append(step * h)
                states.append(y)
    return np.array(times), np.array(states)


def _rule(name, k, temperature=0.4):
    return {
        "replicator": Replicator(),
        "smooth_fp": SmoothFictitiousPlay(temperature),
        "gradient": GradientPlay(),
        "higher": make_anticipatory(5.0, 0.5, k),
    }[name]


RULE_NAMES = ("replicator", "smooth_fp", "gradient", "higher")
# each rotation of the four rules over dims (2, 3, 4, 3) puts every rule on
# every dimension once; the last game batches two players into each group
RULE_MIXES = [
    ((2, 3, 4, 3), [RULE_NAMES[(i + r) % 4] for i in range(4)]) for r in range(4)
] + [
    (
        (3, 3, 3, 3, 2, 2, 3),
        ["replicator", "smooth_fp", "replicator", "smooth_fp", "higher", "gradient", "gradient"],
    )
]


@pytest.mark.parametrize("start", ["interior", "vertex", "tied"])
@pytest.mark.parametrize("dims,names", RULE_MIXES)
def test_stacked_flow_matches_per_player_derivative(dims, names, start):
    rng = np.random.default_rng(sum(dims) + len(names))
    game, ne = random_mixed_ne_game(rng, dims=list(dims))
    specs = [_rule(name, k, 0.2 + 0.1 * i) for i, (name, k) in enumerate(zip(names, dims))]
    if start == "interior":
        init = [rng.dirichlet(np.ones(k)) for k in dims]
    elif start == "vertex":
        init = [np.eye(k)[i % k] for i, k in enumerate(dims)]
    else:
        init = ne  # every payoff vector is constant there: all entries tie
    cfg = SimConfig(step=0.01, horizon=1.0, record_stride=7)
    traj = simulate_coupled(game, specs, init, cfg)
    times, states = per_player_rk4(game, specs, init, cfg)
    assert_array_equal(traj.times, times)
    assert_allclose(traj.states, states, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", RULE_NAMES)
@pytest.mark.parametrize("v0", ["zero", "steady"])
def test_stacked_open_loop_matches_per_player_derivative(name, v0):
    # one player against a constant payoff, with and without a steady washout
    p = np.array([0.7, -0.2, 0.4])
    x0 = [0.2, 0.5, 0.3]
    cfg = SimConfig(step=0.01, horizon=2.0, record_stride=10)
    traj = simulate_open_loop(_rule(name, 3), p, x0, cfg, v0=v0)
    ref = per_player_rk4(PolymatrixGame((3,)), [_rule(name, 3)], [x0], cfg, p, v0 == "steady")
    assert_allclose(traj.states, ref[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name,step", [("replicator", 0.01), ("smooth_fp", 3.0)])
def test_stacked_flow_nonfinite_time_matches_per_player_derivative(name, step):
    # steps past RK4's stability limit, on payoffs of size 300: the strategies
    # leave the simplex and grow until they overflow
    rng = np.random.default_rng(11)
    pairs = {(0, 1): 300 * rng.normal(size=(2, 3)), (1, 0): 300 * rng.normal(size=(3, 2))}
    game = PolymatrixGame((2, 3), pairs)
    specs = [_rule(name, k) for k in game.dims]
    init = [np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5])]
    cfg = SimConfig(step=step, horizon=10000.0)
    with pytest.raises(NonFiniteStateError) as err:
        simulate_coupled(game, specs, init, cfg)
    assert err.value.time == per_player_rk4(game, specs, init, cfg) > cfg.step


def test_overflowing_tangent_payoff_rows_stay_out_of_rows_that_never_read_them():
    # N^T M overflows for these entries, though the payoffs at the uniform
    # start are 0: players without a compensator never read N^T M
    M = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
    g = PolymatrixGame((2, 2), {(0, 1): M, (1, 0): M})
    init = uniform_profile(g)
    cfg = SimConfig(horizon=0.1)
    mixes = ([Replicator()] * 2, [GradientPlay(), SmoothFictitiousPlay()], [GradientPlay()] * 2)
    for specs in mixes:
        traj = simulate_coupled(g, specs, init, cfg)
        assert_allclose(traj.states, per_player_rk4(g, specs, init, cfg)[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("other", [Replicator(), GradientPlay()], ids=["replicator", "gradient"])
def test_overflowing_compensated_rows_are_an_input_error(monkeypatch, other):
    # N_0^T M overflows, though every payoff at the uniform start is 0: the
    # compensated player's flow is not finite at any state, so the run is an
    # input error before its first step
    M = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
    g = PolymatrixGame((2, 2), {(0, 1): M, (1, 0): M})
    monkeypatch.setattr(sim, "_rk4_step", lambda *args: pytest.fail("took a step"))
    with pytest.raises(NonFiniteInputError, match="flow operators of player 0 are not finite"):
        simulate_coupled(g, [make_anticipatory(1.0, 1.0, 2), other], uniform_profile(g))


def test_unknown_rule_rejected():
    g = make_jordan()
    with pytest.raises(TypeError, match="unknown dynamics spec object"):
        simulate_coupled(g, [Replicator(), object(), GradientPlay()], uniform_profile(g))


def test_payoffs_recomputed_each_stage():
    # two RK4 steps of coupled gradient play against a hand-rolled reference
    g = make_jordan()
    init = offset_init(g, 0.1)
    h = 0.05

    def f(y):
        xs = [y[0:2], y[2:4], y[4:6]]
        from gradplay.simplex import project_to_simplex

        ps = [g.pair(0, 1) @ xs[1], g.pair(1, 2) @ xs[2], g.pair(2, 0) @ xs[0]]
        return np.concatenate(
            [project_to_simplex(xs[i] + ps[i]) - xs[i] for i in range(3)]
        )

    y = np.concatenate(init)
    for _ in range(2):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    cfg = SimConfig(step=h, horizon=2 * h, record_stride=1)
    traj = simulate_coupled(g, [GradientPlay()] * 3, init, cfg)
    assert_allclose(traj.states[-1], y, atol=1e-13)


def test_coupled_nonfinite_time_matches_per_stage_reference(monkeypatch):
    # an anticipatory-style compensator with an unstable E overflows; the
    # region propagator must report the step the per-stage reference reports
    g = make_jordan()
    spec = HigherOrderGradientPlay(E=[[100.0]], F=[[100.0]], G=[[-100.0]], H=[[100.0]])
    specs = [spec, GradientPlay(), GradientPlay()]
    times = {}
    for stride in (7, 64):
        cfg = SimConfig(step=0.01, horizon=50.0, record_stride=stride)
        with pytest.raises(NonFiniteStateError) as err:
            simulate_coupled(g, specs, offset_init(g), cfg)
        with monkeypatch.context() as m:
            m.setattr(sim, "_projection_family", lambda specs: False)
            with pytest.raises(NonFiniteStateError) as ref:
                simulate_coupled(g, specs, offset_init(g), cfg)
        assert err.value.time == ref.value.time
        times[stride] = err.value.time
    assert times[7] == times[64] > 0


def test_huge_payoffs_run_plain_steps_without_overflow_warning(monkeypatch):
    # the region growth bound overflows to inf on payoffs of 1e100, which
    # turns every jump off; computing it must not warn
    g = make_jordan(1e100)
    specs = cli._data_specs("jordan_rescaled.specs.json", g)
    cfg = SimConfig(step=0.01, horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = simulate_coupled(g, specs, offset_init(g), cfg)
    monkeypatch.setattr(sim, "_projection_family", lambda specs: False)
    ref = simulate_coupled(g, specs, offset_init(g), cfg)
    assert_allclose(fast.states, ref.states, rtol=1e-12, atol=0)


def test_nonfinite_state_aborts_with_time():
    # wildly unstable compensator on a constant payoff overflows quickly
    spec = HigherOrderGradientPlay(E=[[100.0]], F=[[1.0]], G=[[1.0]], H=[[0.0]])
    cfg = SimConfig(step=0.01, horizon=50.0, record_stride=10)
    with pytest.raises(NonFiniteStateError) as err:
        simulate_open_loop(spec, np.array([1.0, 0.0]), [0.5, 0.5], cfg, v0="zero")
    assert err.value.time > 0


def test_overflowing_steady_start_aborts_at_time_zero():
    # payoffs that overflow make the steady washout start non-finite: the run
    # fails at t = 0, with no numpy warning ahead of the error
    big = np.full((2, 2), 1.7e308)
    g = PolymatrixGame((2, 2, 2), {(0, 1): big, (0, 2): big})
    specs = [make_anticipatory(1.0, 1.0, 2), GradientPlay(), GradientPlay()]
    with pytest.raises(NonFiniteStateError) as err:
        simulate_coupled(g, specs, uniform_profile(g), SimConfig(horizon=1.0))
    assert err.value.time == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(step=0.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        SimConfig(record_stride=0)
    # a fractional stride, and a bool, which would index the cached powers as a mask
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="record_stride"):
            SimConfig(record_stride=bad)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(step=bad)
        with pytest.raises(ValueError, match="finite"):
            SimConfig(horizon=bad)


def test_open_loop_rejects_nonfinite_start():
    for x0 in ([np.nan, 0.5], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="probability vector"):
            simulate_open_loop(GradientPlay(), np.zeros(2), x0, SimConfig(horizon=1.0))
    for p in ([np.nan, 0.0], [np.inf, 0.0], [0.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="payoff"):
            simulate_open_loop(GradientPlay(), np.array(p), [0.5, 0.5], SimConfig(horizon=1.0))


def test_washout_override_shapes_checked():
    spec = make_anticipatory(5.0, 1.0, 2)
    cfg = SimConfig(horizon=0.1)
    with pytest.raises(ValueError):
        simulate_open_loop(spec, np.array([1.0, 0.0]), [0.5, 0.5], cfg, v0="sideways")


# --- open loop ---------------------------------------------------------------


def test_open_loop_gradient_play_reaches_best_response():
    p = np.array([1.0, 0.0])
    cfg = SimConfig(step=0.01, horizon=30.0, record_stride=10)
    traj = simulate_open_loop(GradientPlay(), p, [0.3, 0.7], cfg)
    assert_allclose(traj.strategy(0)[-1], [1.0, 0.0], atol=1e-6)


def test_open_loop_unstable_compensator_misses_best_response():
    spec = HigherOrderGradientPlay(E=[[0.5]], F=[[-1.0]], G=[[10.0]], H=[[-10.0]])
    p = np.array([0.0, 1.0])
    cfg = SimConfig(step=0.002, horizon=30.0, record_stride=50)
    traj = simulate_open_loop(spec, p, [0.5, 0.5], cfg, v0="zero")
    # best response to (0, 1) is (0, 1); the loop locks onto (1, 0) instead
    assert_allclose(traj.strategy(0)[-1], [1.0, 0.0], atol=1e-6)
    assert np.abs(traj.aux(0)[-1]) > 1e3


def test_open_loop_stable_compensator_washes_out():
    spec = make_anticipatory(5.0, 2.0, 2)
    p = np.array([1.0, 0.0])
    cfg = SimConfig(step=0.01, horizon=30.0, record_stride=10)
    traj = simulate_open_loop(spec, p, [0.3, 0.7], cfg, v0="zero")
    base = simulate_open_loop(GradientPlay(), p, [0.3, 0.7], cfg)
    assert_allclose(traj.strategy(0)[-1], base.strategy(0)[-1], atol=1e-6)
    assert np.max(np.abs(traj.aux(0)[-1])) <= 1e-8
    # washout state has converged onto the tangent payoff
    N = tangent_basis(2).N
    assert_allclose(traj.washout(0)[-1], N.T @ p, atol=1e-8)


def test_open_loop_steady_washout_keeps_compensator_quiet():
    spec = HigherOrderGradientPlay(E=[[0.5]], F=[[-1.0]], G=[[10.0]], H=[[-10.0]])
    p = np.array([0.0, 1.0])
    cfg = SimConfig(step=0.002, horizon=20.0, record_stride=50)
    traj = simulate_open_loop(spec, p, [0.5, 0.5], cfg, v0="steady")
    # started on the filter equilibrium, the aux state never moves and the
    # strategy follows plain gradient play to the best response
    assert_allclose(traj.aux(0)[-1], [0.0], atol=1e-12)
    assert_allclose(traj.strategy(0)[-1], [0.0, 1.0], atol=1e-6)


# --- convergence detection -----------------------------------------------------


def test_detect_convergence_constant_trajectory():
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=2.0, record_stride=10)
    traj = simulate_coupled(g, [GradientPlay()] * 3, uniform_profile(g), cfg)
    check = detect_convergence(traj, uniform_profile(g))
    assert check.converged
    assert check.hitting_time == 0.0


def test_detect_convergence_rejects_far_target():
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=2.0, record_stride=10)
    traj = simulate_coupled(g, [GradientPlay()] * 3, uniform_profile(g), cfg)
    target = [np.array([1.0, 0.0])] * 3
    assert not detect_convergence(traj, target).converged


def test_detect_convergence_rejects_misshapen_target():
    g = make_jordan()
    cfg = SimConfig(step=0.01, horizon=2.0, record_stride=10)
    traj = simulate_coupled(g, [GradientPlay()] * 3, uniform_profile(g), cfg)
    half = np.full(2, 0.5)
    # too few players, too many players, and a wrong strategy length
    for target in ([half], [half] * 4, [np.full(3, 1 / 3), half, half]):
        with pytest.raises(ValueError, match="target"):
            detect_convergence(traj, target)


def test_divergence_from_unstable_equilibrium():
    g = make_jordan(5.0)
    specs = [make_anticipatory(5.0, 1.0, 2, gamma2=0.8) for _ in range(3)]
    cfg = SimConfig(step=0.01, horizon=30.0, record_stride=10)
    traj = simulate_coupled(g, specs, offset_init(g, 0.01), cfg)
    d0 = max(np.abs(traj.strategy(i)[0] - 0.5).max() for i in range(3))
    dmax = max(np.abs(traj.strategy(i) - 0.5).max() for i in range(3))
    assert dmax > 10 * d0
    assert not detect_convergence(traj, uniform_profile(g)).converged


# --- step-size robustness -------------------------------------------------------


def test_half_step_agreement_on_converging_run():
    base = run_scenario("jordan-rescaled", {"horizon": 100.0})
    half = run_scenario("jordan-rescaled", {"horizon": 100.0, "h": 0.005})
    assert np.max(np.abs(base.trajectory.states[-1] - half.trajectory.states[-1])) < 1e-6


# --- scenarios -------------------------------------------------------------------


def test_scenario_names_and_unknown():
    assert set(scenario_names()) == {
        "jordan-single",
        "jordan-random",
        "jordan-diagonal",
        "jordan-rescaled",
        "coordination-stabilize",
        "coordination-openloop",
    }
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("jordan-sextuple")
    with pytest.raises(ValueError, match="unknown overrides"):
        run_scenario("jordan-rescaled", {"mu": 1.0, "sigma": 0.3})


def test_scenario_single_player_stabilization(jordan_single_result):
    r = jordan_single_result
    assert r.verdict.stable
    assert r.verdict.spectral_abscissa == pytest.approx(-0.0908575, abs=1e-6)
    assert r.converged and r.consistent
    assert r.hitting_time is not None and r.hitting_time < 100.0


def test_scenario_random_perturbation_settles_to_ne(jordan_random_result):
    r = jordan_random_result
    assert r.verdict.stable
    assert r.converged and r.consistent


def test_scenario_random_perturbation_deterministic():
    a = run_scenario("jordan-random", {"horizon": 5.0})
    b = run_scenario("jordan-random", {"horizon": 5.0})
    assert_array_equal(a.trajectory.states, b.trajectory.states)


def test_scenario_diagonal_small_and_large(
    jordan_diagonal_small_result, jordan_diagonal_large_result
):
    small, large = jordan_diagonal_small_result, jordan_diagonal_large_result
    assert small.verdict.stable and small.converged and small.consistent
    assert not large.verdict.stable and not large.converged and large.consistent


def test_scenario_rescaled_family(jordan_rescaled_results):
    assert jordan_rescaled_results[1.0].verdict.stable
    assert jordan_rescaled_results[1.0].converged
    assert not jordan_rescaled_results[1.0].diverged
    for mu in (5.0, 0.1):
        assert not jordan_rescaled_results[mu].verdict.stable
        assert not jordan_rescaled_results[mu].converged
        assert jordan_rescaled_results[mu].diverged
        assert jordan_rescaled_results[mu].consistent
    sweep = jordan_rescaled_results[1.0].sweep
    assert sweep is not None and len(sweep.crossings) == 2


def test_scenario_coordination_stabilize(coordination_stabilize_result):
    r = coordination_stabilize_result
    assert r.verdict.stable and r.converged and r.consistent


def test_scenario_coordination_openloop(coordination_openloop_result):
    r = coordination_openloop_result
    assert not r.verdict.stable
    assert r.converged  # onto the non-best-response vertex
    assert r.consistent
    assert np.max(np.abs(r.trajectory.aux(0)[-1])) > 1e3


def test_all_scenarios_linearization_consistency(
    jordan_single_result,
    jordan_random_result,
    jordan_diagonal_small_result,
    jordan_diagonal_large_result,
    jordan_rescaled_results,
    coordination_stabilize_result,
    coordination_openloop_result,
):
    results = [
        jordan_single_result,
        jordan_random_result,
        jordan_diagonal_small_result,
        jordan_diagonal_large_result,
        *jordan_rescaled_results.values(),
        coordination_stabilize_result,
        coordination_openloop_result,
    ]
    assert all(r.consistent for r in results)
    # both directions appear in the suite
    assert any(r.verdict.stable for r in results)
    assert any(not r.verdict.stable for r in results)
