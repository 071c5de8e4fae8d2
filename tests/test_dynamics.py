import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from gradplay.dynamics import (
    PROJECTED,
    GradientPlay,
    HigherOrderGradientPlay,
    PlayerState,
    Replicator,
    SmoothFictitiousPlay,
    check_vanishing_modification,
    derivative,
    make_anticipatory,
    modified_payoff,
)
from gradplay.simplex import NonFiniteInputError, tangent_basis

from conftest import reference_derivative

B2 = tangent_basis(2)
E_OVER = np.e / (np.e + 1.0)


def softmax(v, T):
    """Smooth FP's logit map at temperature T: x + dx of its update on the row v."""
    v = np.asarray(v, dtype=float)[None]
    return SmoothFictitiousPlay(T).update(np.zeros_like(v), v, np.full((1, 1), T))[0]


def test_softmax_symmetric():
    # tied payoffs, one row per temperature
    temps = np.array([[0.1], [1.0], [7.0]])
    rows = SmoothFictitiousPlay.update(np.zeros((3, 2)), np.ones((3, 2)), temps)
    assert_allclose(rows, 0.5, atol=1e-15)


def test_softmax_frozen_value():
    assert_allclose(softmax([1.0, 0.0], 1.0), [E_OVER, 1.0 - E_OVER], atol=1e-12)


@given(
    st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=5),
    st.floats(-10.0, 10.0),
    st.floats(0.05, 5.0),
)
def test_softmax_shift_invariant(vals, shift, T):
    v = np.asarray(vals)
    assert_allclose(softmax(v + shift, T), softmax(v, T), atol=1e-12)


def test_softmax_rejects_bad_temperature():
    for T in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            SmoothFictitiousPlay(T)


def test_gradient_play_fixed_at_constant_payoff():
    state = PlayerState.fixed_order([0.5, 0.5])
    d = derivative(GradientPlay(), state, [0.5, 0.5])
    assert_allclose(d.dx, [0.0, 0.0], atol=1e-15)


def test_replicator_fixed_at_constant_payoff():
    state = PlayerState.fixed_order([0.25, 0.25, 0.5])
    d = derivative(Replicator(), state, [2.0, 2.0, 2.0])
    assert_allclose(d.dx, np.zeros(3), atol=1e-15)


def test_smooth_fp_frozen_value():
    state = PlayerState.fixed_order([0.5, 0.5])
    d = derivative(SmoothFictitiousPlay(temperature=1.0), state, [1.0, 0.0])
    assert_allclose(d.dx, [E_OVER - 0.5, 0.5 - E_OVER], atol=1e-12)


def test_higher_order_equilibrium_is_fixed():
    spec = make_anticipatory(50.0, 5.0, 2)
    p = np.array([0.7, 0.7])
    state = PlayerState.higher_order([0.5, 0.5], [0.0], B2.N.T @ p)
    d = derivative(spec, state, p, B2)
    assert_allclose(d.dx, np.zeros(2), atol=1e-15)
    assert_allclose(d.dxi, np.zeros(1), atol=1e-15)
    assert_allclose(d.dv, np.zeros(1), atol=1e-15)


def test_derivative_shift_invariance_all_variants():
    rng = np.random.default_rng(2)
    p = rng.normal(size=2)
    shift = 3.7
    x = np.array([0.4, 0.6])
    ho = make_anticipatory(2.0, 1.5, 2)
    cases = [
        (Replicator(), PlayerState.fixed_order(x)),
        (SmoothFictitiousPlay(0.5), PlayerState.fixed_order(x)),
        (GradientPlay(), PlayerState.fixed_order(x)),
        (ho, PlayerState.higher_order(x, [0.2], [0.1])),
    ]
    for spec, state in cases:
        d0 = derivative(spec, state, p, B2)
        d1 = derivative(spec, state, p + shift, B2)
        assert_allclose(d1.dx, d0.dx, atol=1e-12)
        assert_allclose(d1.dxi, d0.dxi, atol=1e-12)
        assert_allclose(d1.dv, d0.dv, atol=1e-12)


def test_boundary_outward_component_nonpositive():
    # at a face, the derivative never points out of the simplex
    rng = np.random.default_rng(3)
    for spec in (GradientPlay(), Replicator()):
        for _ in range(50):
            x = np.array([0.0, rng.random(), 0.0])
            x[2] = 1.0 - x[1]
            p = rng.normal(size=3) * 2.0
            d = derivative(spec, PlayerState.fixed_order(x), p)
            assert d.dx[0] >= -1e-12
            assert abs(d.dx.sum()) <= 1e-12


def test_make_anticipatory_values():
    spec = make_anticipatory(50.0, 5.0, 2)
    assert_allclose(spec.E, [[-50.0]])
    assert_allclose(spec.F, [[50.0]])
    assert_allclose(spec.G, [[-250.0]])
    assert_allclose(spec.H, [[250.0]])


def test_make_anticipatory_two_gamma_variant():
    spec = make_anticipatory(5.0, 1.0, 2, gamma2=0.8)
    assert_allclose(spec.E, [[-5.0]])
    assert_allclose(spec.F, [[5.0]])
    assert_allclose(spec.G, [[-4.0]])
    assert_allclose(spec.H, [[5.0]])


def test_make_anticipatory_higher_dim():
    spec = make_anticipatory(2.0, 3.0, 4)
    assert spec.aux_dim == 3 and spec.signal_dim == 3
    assert_allclose(spec.E, -2.0 * np.eye(3))


def test_make_anticipatory_rejects_bad_params():
    with pytest.raises(ValueError):
        make_anticipatory(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        make_anticipatory(1.0, -1.0, 2)
    for lam, gamma, gamma2 in ((np.nan, 1.0, None), (1.0, np.inf, None), (1.0, 1.0, np.nan)):
        with pytest.raises(ValueError):
            make_anticipatory(lam, gamma, 2, gamma2)


def test_vanishing_modification_anticipatory_wrapper():
    # full-payoff anticipatory form: dz = lam (p - z), phi = gamma lam (p - z)
    for lam, gamma in [(50.0, 5.0), (0.3, 2.0), (7.0, 0.01)]:
        res = check_vanishing_modification(
            D=-lam * np.eye(2), E=lam * np.eye(2), F=gamma * lam * np.eye(2), G=-gamma * lam * np.eye(2)
        )
        assert res.ok
        assert res.residual <= 1e-9


def test_vanishing_modification_trivial_and_failing():
    ok = check_vanishing_modification(D=[[-2.0]], E=[[1.0]], F=[[0.0]], G=[[0.0]])
    assert ok.ok and ok.residual == 0.0
    bad = check_vanishing_modification(D=[[-1.0]], E=[[1.0]], F=[[1.0]], G=[[0.0]])
    assert not bad.ok
    assert bad.residual == pytest.approx(1.0)


def test_vanishing_modification_singular_diagnostic():
    res = check_vanishing_modification(D=[[0.0]], E=[[1.0]], F=[[1.0]], G=[[1.0]])
    assert not res.ok
    assert res.residual == np.inf
    assert "singular" in res.note


def test_modified_payoff_equilibrium_passthrough():
    spec = make_anticipatory(50.0, 5.0, 2)
    p = np.array([0.3, -0.2])
    state = PlayerState.higher_order([0.5, 0.5], [0.0], B2.N.T @ p)
    assert_allclose(modified_payoff(spec, state, p, B2), p, atol=1e-15)


def test_modified_payoff_constant_payoff_cold_start():
    # constant payoff has zero tangent component, so H*(N^T p - 0) = 0
    spec = make_anticipatory(50.0, 5.0, 2)
    p = np.array([0.5, 0.5])
    state = PlayerState.higher_order([0.5, 0.5], [0.0], [0.0])
    assert_allclose(modified_payoff(spec, state, p, B2), p, atol=1e-12)


def test_modified_payoff_frozen_gain_example():
    spec = HigherOrderGradientPlay(E=[[-50.0]], F=[[50.0]], G=[[-250.0]], H=[[250.0]])
    p = np.array([1.0, 0.0])
    state = PlayerState.higher_order([0.5, 0.5], [0.0], [0.0])
    # N N^T p = (1/2, -1/2), so p + 250 * that = (126, -125)
    assert_allclose(modified_payoff(spec, state, p, B2), [126.0, -125.0], atol=1e-12)


def test_higher_order_shape_validation():
    with pytest.raises(ValueError):
        HigherOrderGradientPlay(E=[[1.0, 0.0]], F=[[1.0]], G=[[1.0]], H=[[1.0]])
    with pytest.raises(ValueError):
        HigherOrderGradientPlay(E=[[1.0]], F=[[1.0, 0.0]], G=[[1.0]], H=[[1.0]])
    for bad in ({"E": [[np.nan]]}, {"F": [[np.inf]]}, {"G": [[-np.inf]]}, {"H": [[np.nan]]}):
        with pytest.raises(ValueError, match="finite"):
            HigherOrderGradientPlay(**{"E": [[1.0]], "F": [[1.0]], "G": [[1.0]], "H": [[1.0]], **bad})
    spec = make_anticipatory(1.0, 1.0, 3)
    state = PlayerState.higher_order([0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        derivative(spec, state, [1.0, 0.0], B2)


def test_derivative_rejects_nonfinite_payoff():
    state = PlayerState.fixed_order([0.5, 0.5])
    with pytest.raises(ValueError):
        derivative(GradientPlay(), state, [np.nan, 0.0])
    with pytest.raises(ValueError):
        derivative(Replicator(), state, [np.inf, 0.0])


@pytest.mark.parametrize(
    "x,p",
    [([1.0, -1.0], [1.0, 2.0]), ([2.0, -1.0], [1.7e308, -1.7e308])],
    ids=["zero-mass", "overflow"],
)
def test_replicator_nonfinite_derivative_raises_typed_error_without_warning(x, p):
    # a strategy mass of 0 has no mean payoff; x.p may overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match="replicator"):
            derivative(Replicator(), PlayerState.fixed_order(x), p)


ANTI2 = make_anticipatory(1.0, 1.0, 2)
ONES = {"E": [[1.0]], "F": [[1.0]], "G": [[1.0]], "H": [[1.0]]}
FIXED = PlayerState.fixed_order([0.5, 0.5])
AUX = PlayerState.higher_order([0.5, 0.5], [0.0], [0.0])
LONG_XI = PlayerState.higher_order([0.5, 0.5], [0.0, 0.0], [0.0])
NO_V = PlayerState.higher_order([0.5, 0.5], [0.0], [])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: derivative(object(), FIXED, [0.0, 0.0]), TypeError, "unknown dynamics spec"),
        (lambda: derivative(ANTI2, AUX, [0.0, 0.0]), ValueError, "need a tangent basis"),
        (lambda: derivative(ANTI2, LONG_XI, [0.0, 0.0], B2), ValueError, "auxiliary state shapes"),
        (lambda: derivative(ANTI2, NO_V, [0.0, 0.0], B2), ValueError, "auxiliary state shapes"),
        (
            lambda: derivative(GradientPlay(), FIXED, [0.0, 0.0, 0.0]),
            ValueError,
            r"payoff has shape \(3,\), expected \(2,\)",
        ),
        (
            lambda: derivative(SmoothFictitiousPlay(1.0), FIXED, [0.0, np.inf]),
            NonFiniteInputError,
            "payoff entries must be finite",
        ),
        (lambda: HigherOrderGradientPlay(**{**ONES, "H": [[1.0, 0.0]]}), ValueError, "H must be square"),
        (lambda: HigherOrderGradientPlay(**{**ONES, "G": [[1.0, 2.0]]}), ValueError, "G must be 1 x 1"),
        (lambda: modified_payoff(GradientPlay(), FIXED, [0.0, 0.0], B2), TypeError, "higher-order"),
        (lambda: make_anticipatory(1.0, 1.0, 1), ValueError, "at least two pure strategies"),
    ],
    ids=[
        "derivative-unknown-spec",
        "derivative-no-basis",
        "derivative-aux-shape",
        "derivative-washout-shape",
        "derivative-payoff-shape",
        "softmax-nonfinite",
        "higher-order-nonsquare-H",
        "higher-order-misshapen-G",
        "modified-payoff-fixed-order",
        "anticipatory-k1",
    ],
)
def test_invalid_arguments_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_vanishing_modification_nonsquare_d():
    res = check_vanishing_modification(D=[[1.0, 0.0]], E=[[1.0]], F=[[1.0]], G=[[1.0]])
    assert (res.ok, res.residual, res.note) == (False, np.inf, "D is not square")


# rows of a batched update: interior, vertex, all payoffs tied, top two tied
ROWS_X = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.6, 0.1, 0.3]])
ROWS_P = np.array([[0.3, -0.1, 0.7], [-0.4, 0.9, 0.2], [0.6, 0.6, 0.6], [0.8, 0.8, -0.3]])
ROWS_T = np.array([0.1, 0.35, 1.0, 4.0])  # smooth FP's temperature on each row


@pytest.mark.parametrize(
    "make",
    [
        lambda T: GradientPlay(),
        lambda T: Replicator(),
        lambda T: SmoothFictitiousPlay(T),
        lambda T: make_anticipatory(2.0, 0.5, 3),
    ],
    ids=["gradient", "replicator", "smooth_fp", "higher_order"],
)
def test_batched_update_matches_derivative_row_by_row(make):
    # the batched update and derivative, each against the reference formulas
    rng = np.random.default_rng(3)
    B3 = tangent_basis(3)
    specs = [make(T) for T in ROWS_T]
    z = np.empty_like(ROWS_X)
    want = np.empty_like(ROWS_X)
    for r, (spec, x, p) in enumerate(zip(specs, ROWS_X, ROWS_P)):
        if isinstance(spec, HigherOrderGradientPlay):
            state = PlayerState.higher_order(x, rng.normal(size=spec.aux_dim), rng.normal(size=2))
            z[r] = x + modified_payoff(spec, state, p, B3)  # the projection argument
        else:
            state = PlayerState.fixed_order(x)
            z[r] = x + p if isinstance(spec, PROJECTED) else p
        ref = reference_derivative(spec, state, p, B3)
        want[r] = ref.dx
        for got, exp in zip(derivative(spec, state, p, B3), ref):
            assert_allclose(got, exp, rtol=0, atol=1e-12)
    assert all(s.update is specs[0].update for s in specs)
    assert_allclose(specs[0].update(ROWS_X, z, ROWS_T[:, None]), want, rtol=0, atol=1e-12)


def test_gradient_play_shares_its_update_with_the_compensated_rule():
    assert GradientPlay().update is make_anticipatory(1.0, 1.0, 2).update
    updates = {GradientPlay().update, Replicator().update, SmoothFictitiousPlay().update}
    assert len(updates) == 3
