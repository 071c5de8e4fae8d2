import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import gradplay.cli as cli
from gradplay.cli import (
    ScenarioResult,
    game_from_json,
    game_to_json,
    load_game_file,
    load_specs_file,
    main,
    run_scenario,
    spec_to_json,
    specs_from_json,
    specs_to_json,
    write_matrix_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from gradplay.dynamics import (
    GradientPlay,
    HigherOrderGradientPlay,
    Replicator,
    SmoothFictitiousPlay,
    make_anticipatory,
)
from gradplay.analysis import SweepResult, default_gain_grid, gain_sweep
from gradplay.games import PolymatrixGame, make_coordination, make_jordan
from gradplay.linearize import (
    GameLocalMatrix,
    assemble_closed_loop,
    assemble_local_game,
    assemble_plant,
)
from gradplay.simplex import NonFiniteInputError
from gradplay.simulate import StateLayout, Trajectory

from conftest import exhaustive_fixed_modes, random_mixed_ne_game


def data_path(name):
    return str(resources.files("gradplay") / "data" / name)


@pytest.fixture()
def jordan_file(tmp_path):
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(game_to_json(make_jordan())))
    return str(path)


@pytest.fixture()
def gp_specs_file(tmp_path):
    path = tmp_path / "gp.json"
    path.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 3}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- schemas -----------------------------------------------------------------


def test_game_round_trip_exact():
    g = make_jordan(np.pi)
    doc = json.loads(json.dumps(game_to_json(g)))
    g2 = game_from_json(doc)
    assert g2.dims == g.dims
    for key in g.pair_matrices:
        assert_array_equal(g2.pair(*key), g.pair(*key))


def test_game_round_trip_random_entries():
    rng = np.random.default_rng(8)
    from gradplay.games import PolymatrixGame

    g = PolymatrixGame(
        (2, 3), {(0, 1): rng.normal(size=(2, 3)) * 1e-7, (1, 0): rng.normal(size=(3, 2)) * 1e9}
    )
    g2 = game_from_json(json.loads(json.dumps(game_to_json(g))))
    for key in g.pair_matrices:
        assert_array_equal(g2.pair(*key), g.pair(*key))


def test_game_from_json_validates():
    with pytest.raises(ValueError):
        game_from_json({"dims": [2, 2], "n": 3, "matrices": []})
    with pytest.raises(ValueError):
        game_from_json({"matrices": []})
    with pytest.raises(ValueError):
        game_from_json(
            {
                "dims": [2, 2],
                "matrices": [
                    {"i": 0, "j": 1, "rows": [[1.0, 0.0], [0.0, 1.0]]},
                    {"i": 0, "j": 1, "rows": [[1.0, 0.0], [0.0, 1.0]]},
                ],
            }
        )

    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            game_from_json(
                json.loads(
                    json.dumps(
                        {"dims": [2, 2], "matrices": [{"i": 0, "j": 1, "rows": [[bad, 0.0], [0.0, 1.0]]}]}
                    )
                )
            )


def test_specs_round_trip_all_variants():
    g = make_jordan()
    specs = [
        HigherOrderGradientPlay(E=[[-2.0]], F=[[1.0]], G=[[0.5]], H=[[0.25]]),
        Replicator(),
        SmoothFictitiousPlay(0.3),
    ]
    doc = json.loads(json.dumps(specs_to_json(specs)))
    loaded = specs_from_json(doc, g)
    assert isinstance(loaded[1], Replicator)
    assert loaded[2].temperature == 0.3
    assert_allclose(loaded[0].E, [[-2.0]])
    assert_allclose(loaded[0].H, [[0.25]])


@pytest.mark.parametrize("aux", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_specs_round_trip_keeps_aux_dimension(aux, k):
    # aux 0 is a static gain: E, F and G have no entries, and JSON writes them as
    # [], [] and [[]] * (k - 1), which numpy alone reads back as 1 x 0 arrays
    rng = np.random.default_rng(10 * aux + k)
    r = k - 1
    spec = HigherOrderGradientPlay(
        E=rng.normal(size=(aux, aux)),
        F=rng.normal(size=(aux, r)),
        G=rng.normal(size=(r, aux)),
        H=rng.normal(size=(r, r)),
    )
    game = PolymatrixGame((k, 2), {})
    doc = json.loads(json.dumps(specs_to_json([spec, GradientPlay()])))
    (loaded, _) = specs_from_json(doc, game)
    for name in "EFGH":
        before, after = getattr(spec, name), getattr(loaded, name)
        assert after.shape == before.shape
        assert_array_equal(after, before)
    assert loaded.aux_dim == aux


STATIC_GAIN_SPECS = {
    "players": [
        {"variant": "higher_order", "E": [], "F": [], "G": [[]], "H": [[2.0]]},
        {"variant": "gradient_play"},
        {"variant": "gradient_play"},
    ]
}


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_static_gain_spec_file_runs(capsys, jordan_file, tmp_path, command):
    specs = tmp_path / "static.json"
    specs.write_text(json.dumps(STATIC_GAIN_SPECS))
    argv = [command, jordan_file, str(specs)]
    if command == "simulate":
        argv += ["--horizon", "1", "--out", str(tmp_path / "trajectory.csv")]
    code, out, err = run(capsys, argv)
    assert code in (0, 1), err
    assert err == ""
    json.loads(out)


def test_specs_anticipatory_expansion():
    g = make_jordan()
    doc = {
        "players": [
            {"variant": "anticipatory", "lambda": 50.0, "gamma": 5.0},
            {"variant": "gradient_play"},
            {"variant": "gradient_play"},
        ]
    }
    specs = specs_from_json(doc, g)
    expected = make_anticipatory(50.0, 5.0, 2)
    assert_allclose(specs[0].E, expected.E)
    assert_allclose(specs[0].G, expected.G)
    assert isinstance(specs[1], GradientPlay)


def test_specs_validation():
    g = make_jordan()
    with pytest.raises(ValueError):
        specs_from_json({"players": [{"variant": "gradient_play"}]}, g)
    with pytest.raises(ValueError):
        specs_from_json({"players": [{"variant": "nope"}] * 3}, g)
    with pytest.raises(ValueError):
        specs_from_json(
            {
                "players": [
                    {"variant": "higher_order", "E": [[1.0]], "F": [[1.0, 0.0]], "G": [[1.0], [0.0]], "H": [[1.0, 0.0], [0.0, 1.0]]},
                    {"variant": "gradient_play"},
                    {"variant": "gradient_play"},
                ]
            },
            g,
        )


GRADIENT = {"variant": "gradient_play"}


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"players": [{"variant": "anticipatory", "lambda": 1.0}, GRADIENT, GRADIENT]}, "missing 'gamma'"),
        ({"players": [5, GRADIENT, GRADIENT]}, "malformed player spec"),
        ({"player": [GRADIENT] * 3}, "spec document needs a 'players' list"),
        ([GRADIENT] * 3, "spec document needs a 'players' list"),
    ],
    ids=["missing-key", "player-not-object", "no-players", "not-an-object"],
)
def test_malformed_specs_document_rejected(doc, message):
    with pytest.raises(ValueError, match=message):
        specs_from_json(doc, make_jordan())


def test_spec_to_json_rejects_unknown_spec():
    with pytest.raises(TypeError, match="unknown spec object"):
        spec_to_json(object())


def test_matrix_csv_round_trips_17_digits(tmp_path):
    rng = np.random.default_rng(4)
    M = rng.normal(size=(3, 4)) * np.array([1e-8, 1.0, 1e7, np.pi])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    back = np.array(
        [[float(v) for v in line.split(",")] for line in path.read_text().strip().splitlines()]
    )
    assert_array_equal(back, M)


# --- CSV emitters against one format operation per value ---------------------

EDGE_VALUES = [-0.0, 5e-324, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0]


def _per_value(v) -> str:
    return "%.17g" % v


def per_value_matrix_csv(M) -> str:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return "\n".join(",".join(_per_value(v) for v in row) for row in M) + "\n"


def per_value_trajectory_csv(traj) -> str:
    layout = traj.layout
    header = ["t"]
    for i in range(layout.n):
        header += [f"x{i}_{a}" for a in range(layout.dims[i])]
    for i in range(layout.n):
        header += [f"xi{i}_{a}" for a in range(layout.aux_dims[i])]
    for i in range(layout.n):
        header += [f"v{i}_{a}" for a in range(layout.washout_dims[i])]
    lines = [",".join(header)]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([_per_value(t)] + [_per_value(v) for v in row]))
    return "\n".join(lines) + "\n"


def per_value_sweep_csv(sweep) -> str:
    lines = ["mu,re,im,stable"]
    for g, ev, ok in zip(sweep.grid, sweep.eigenvalues, sweep.stable):
        for z in ev:
            lines.append(f"{_per_value(g)},{_per_value(z.real)},{_per_value(z.imag)},{int(ok)}")
    return "\n".join(lines) + "\n"


def _edge_block(rows, cols, shift=0):
    return np.resize(np.roll(EDGE_VALUES, shift), rows * cols).reshape(rows, cols)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (4, 7)])
def test_matrix_csv_matches_per_value_format(tmp_path, shape):
    M = _edge_block(*shape)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, M)
    assert path.read_bytes() == per_value_matrix_csv(M).encode()


@pytest.mark.parametrize(
    "layout,rows",
    [
        (StateLayout((1,), (0,), (0,)), 1),  # one row, one state column
        (StateLayout((1,), (0,), (0,)), 12),
        (StateLayout((2, 3), (1, 0), (1, 0)), 1),
        (StateLayout((2, 3), (1, 0), (1, 0)), 12),
    ],
)
def test_trajectory_csv_matches_per_value_format(tmp_path, layout, rows):
    times = np.concatenate([[-0.0, 5e-324], np.arange(rows) * 0.1])[:rows]
    traj = Trajectory(times, _edge_block(rows, layout.dim, shift=3), layout, False)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    assert path.read_bytes() == per_value_trajectory_csv(traj).encode()


def test_sweep_csv_matches_per_value_format(tmp_path):
    eigenvalues = (
        np.array([-1.0, -0.0, 5e-324]),  # real spectrum
        np.array([-0.5 + 2.0j, -0.5 - 2.0j, 1.7e308 + 0.0j]),
        np.array([np.nan + np.inf * 1j, -np.inf - 0.0j, 0.25 + 1e-300j]),
        np.array([3.0]),
    )
    sweep = SweepResult(
        np.array([0.01, 0.1, 1.0, 1.7e308]), eigenvalues, np.array([True, False, True, False]), ()
    )
    path = tmp_path / "s.csv"
    write_sweep_csv(path, sweep)
    assert path.read_bytes() == per_value_sweep_csv(sweep).encode()


def test_shipped_data_files_match_builders():
    jordan = load_game_file(data_path("jordan.game.json"))
    assert jordan.dims == make_jordan().dims
    for key in make_jordan().pair_matrices:
        assert_array_equal(jordan.pair(*key), make_jordan().pair(*key))
    coord = load_game_file(data_path("coordination.game.json"))
    for key in make_coordination().pair_matrices:
        assert_array_equal(coord.pair(*key), make_coordination().pair(*key))
    specs = load_specs_file(data_path("jordan_single.specs.json"), jordan)
    assert_allclose(specs[0].H, [[250.0]])
    assert isinstance(specs[1], GradientPlay)
    specs73 = load_specs_file(data_path("jordan_rescaled.specs.json"), jordan)
    for s in specs73:
        assert_allclose(s.E, [[-5.0]])
        assert_allclose(s.F, [[5.0]])
        assert_allclose(s.G, [[-4.0]])
        assert_allclose(s.H, [[5.0]])
    coord_specs = load_specs_file(data_path("coordination_stabilize.specs.json"), coord)
    assert_allclose(coord_specs[0].E, [[0.5]])
    assert_allclose(coord_specs[1].E, [[-50.0]])


# --- verify ---------------------------------------------------------------------


def test_verify_uniform_is_ne(capsys, jordan_file):
    code, out, _ = run(capsys, ["verify", jordan_file, "--profile", "uniform"])
    doc = json.loads(out)
    assert code == 0
    assert doc["is_ne"] and doc["completely_mixed"]
    assert_allclose(doc["payoff_levels"], [0.5, 0.5, 0.5])


def test_verify_pure_coordination(capsys, tmp_path):
    path = tmp_path / "coord.json"
    path.write_text(json.dumps(game_to_json(make_coordination())))
    code, out, _ = run(
        capsys, ["verify", str(path), "--profile", "[[1.0, 0.0], [1.0, 0.0]]"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["is_ne"] and not doc["completely_mixed"]


def test_verify_profile_from_file(capsys, jordan_file, tmp_path):
    prof = tmp_path / "profile.json"
    prof.write_text("[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]")
    code, out, _ = run(capsys, ["verify", jordan_file, "--profile", str(prof)])
    assert code == 0
    assert json.loads(out)["is_ne"]


def test_verify_non_equilibrium_exits_1(capsys, jordan_file):
    code, out, _ = run(
        capsys,
        ["verify", jordan_file, "--profile", "[[0.9, 0.1], [0.5, 0.5], [0.5, 0.5]]"],
    )
    assert code == 1
    assert not json.loads(out)["is_ne"]


def test_verify_parse_failure_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["verify", str(bad)])
    assert code == 2
    assert "error" in err


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "/no/such/file.json"])
    assert code == 2


def test_verify_nonfinite_profile_exits_2(capsys, tmp_path):
    game = tmp_path / "coordination.game.json"
    game.write_text(json.dumps(game_to_json(make_coordination())))
    code, _, err = run(capsys, ["verify", str(game), "--profile", "[[NaN,0.5],[0.5,0.5]]"])
    assert code == 2
    assert "probability vector" in err


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_overflowing_payoff_exits_2(capsys, tmp_path, command):
    # finite pair entries of +-1.7e308 whose sum overflows player 0's payoff
    big = [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]]
    doc = game_to_json(PolymatrixGame((2, 2, 2), {(0, 1): big, (0, 2): big}))
    game = tmp_path / "big.json"
    game.write_text(json.dumps(doc))
    argv = [command, str(game)]
    if command == "analyze":
        argv.append(data_path("jordan_single.specs.json"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: payoff of player 0 is not finite\n"


def test_analyze_overflowing_reduced_coupling_exits_2(capsys, tmp_path):
    # every payoff at the uniform profile is 0, but N_i^T M N_j overflows
    M = [[1.5e308, -1.5e308], [-1.5e308, 1.5e308]]
    game = tmp_path / "big.json"
    game.write_text(json.dumps(game_to_json(PolymatrixGame((2, 2), {(0, 1): M, (1, 0): M}))))
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps(specs_to_json([make_anticipatory(1.0, 1.0, 2), GradientPlay()])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["analyze", str(game), str(specs)])
    assert (code, out) == (2, "")
    assert err == "error: reduced coupling block (0, 1) is not finite\n"


@pytest.mark.parametrize("other", [Replicator(), GradientPlay()], ids=["replicator", "gradient"])
def test_simulate_overflowing_compensated_rows_exit_2(capsys, tmp_path, other):
    # N_0^T M overflows: an input error before the first step, with no warning
    M = [[1.5e308, -1.5e308], [-1.5e308, 1.5e308]]
    game = tmp_path / "big.json"
    game.write_text(json.dumps(game_to_json(PolymatrixGame((2, 2), {(0, 1): M, (1, 0): M}))))
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps(specs_to_json([make_anticipatory(1.0, 1.0, 2), other])))
    out_csv = tmp_path / "trajectory.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["simulate", str(game), str(specs), "--out", str(out_csv)])
    assert (code, out) == (2, "")
    assert err == "error: flow operators of player 0 are not finite\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("text", ["5", '[{"a": 1}, [0.5, 0.5], [0.5, 0.5]]'])
def test_verify_malformed_profile_file_exits_2(capsys, jordan_file, tmp_path, text):
    profile = tmp_path / "profile.json"
    profile.write_text(text)
    code, _, err = run(capsys, ["verify", jordan_file, "--profile", str(profile)])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "field, value", [("dims", [2.7, 2]), ("dims", "22"), ("i", 0.9), ("i", True)]
)
def test_verify_non_integer_game_field_exits_2(capsys, tmp_path, field, value):
    # truncated or split, each value would name the coordination game's own entry
    doc = game_to_json(make_coordination())
    if field == "dims":
        doc["dims"] = value
    else:
        doc["matrices"][int(value)]["i"] = value  # entries are sorted: (0, 1), then (1, 0)
    game = tmp_path / "game.json"
    game.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["verify", str(game)])
    assert code == 2 and err.startswith("error:")


@pytest.fixture()
def nan_game_file(tmp_path):
    doc = game_to_json(make_jordan())
    doc["matrices"][0]["rows"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["verify", "analyze", "simulate"])
def test_nonfinite_game_file_exits_2(capsys, tmp_path, nan_game_file, command):
    argv = [command, nan_game_file]
    if command != "verify":
        argv.append(data_path("jordan_single.specs.json"))
    if command == "simulate":
        argv += ["--horizon", "1", "--out", str(tmp_path / "t.csv")]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_game_file_without_players_exits_2(capsys, tmp_path, command):
    game = tmp_path / "empty.game.json"
    game.write_text(json.dumps({"dims": [], "matrices": []}))
    specs = tmp_path / "empty.specs.json"
    specs.write_text(json.dumps({"players": []}))
    argv = [command, str(game)] + ([str(specs)] if command == "analyze" else [])
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: a game needs at least one player\n"


# --- analyze --------------------------------------------------------------------


def test_analyze_stable_configuration(capsys, jordan_file):
    code, out, _ = run(
        capsys, ["analyze", jordan_file, data_path("jordan_single.specs.json")]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["stable"]
    # the simulator's state: 3 tangent rows, player 0's aux state and its washout
    assert len(doc["eigenvalues"]) == 5
    assert doc["spectral_abscissa"] == pytest.approx(-0.0908575205, abs=1e-9)
    assert doc["pbh"] == {"stabilizable": True, "detectable": True}
    assert all(p["stabilizable"] and p["detectable"] for p in doc["per_player_pbh"])
    assert doc["mode_support"]["satisfied"]
    assert doc["decentralized"]["ok"]
    assert doc["parity"] is None


def test_analyze_all_fixed_order_unstable(capsys, jordan_file, gp_specs_file):
    code, out, _ = run(capsys, ["analyze", jordan_file, gp_specs_file])
    doc = json.loads(out)
    assert code == 1
    assert not doc["stable"]
    assert doc["spectral_abscissa"] > 0.4
    assert len(doc["eigenvalues"]) == 3  # the loop is M: no aux state, no washout


def test_analyze_warns_once_on_a_singular_coupling(capsys, tmp_path):
    # player 2 has no payoffs, so its block row of M is zero
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    game = tmp_path / "singular.json"
    game.write_text(json.dumps(game_to_json(PolymatrixGame((2, 2, 2), {(0, 1): swap, (1, 0): swap}))))
    specs = tmp_path / "gp.json"
    specs.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 3}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, ["analyze", str(game), str(specs)])
    doc = json.loads(out)
    assert code == 1 and not doc["pbh"]["detectable"]  # w_2 sits at 0 unseen
    assert [str(w.message) for w in caught if "singular" in str(w.message)] == [
        "local game matrix is singular to working precision; the equilibrium is not isolated"
    ]


def test_analyze_finds_the_fixed_mode_of_a_rounded_defective_zero(capsys, tmp_path):
    # each row player's lowest-j pair is shifted by -outer(p_i - mean(p_i), 1),
    # p_i its payoffs at the uniform profile, which so becomes a completely
    # mixed equilibrium; M has a defective triple zero that eigvals spreads
    # over a radius of 1.8e-6
    pairs = {
        (0, 2): [[1, 0], [0, -1]],
        (0, 3): [[-1, -1], [0, 0]],
        (1, 0): [[1.25, -0.75], [-0.25, -1.25]],
        (1, 3): [[0, -1], [1, 0]],
        (2, 0): [[-0.25, 1.75], [-0.75, -0.75]],
        (2, 3): [[-1, -1], [0, 1]],
        (3, 2): [[1, 0], [0, -2]],
        (3, 4): [[0, -1], [1, 1]],
        (4, 1): [[-0.25, -0.25], [0.25, -0.75]],
    }
    game = tmp_path / "defective_zero.json"
    mats = {p: np.array(m, dtype=float) for p, m in pairs.items()}
    game.write_text(json.dumps(game_to_json(PolymatrixGame((2,) * 5, mats))))
    specs = tmp_path / "gp.json"
    specs.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 5}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singular coupling
        code, out, _ = run(capsys, ["analyze", str(game), str(specs)])
    doc = json.loads(out)
    assert code == 1
    assert doc["certificate"]["is_ne"] and doc["certificate"]["completely_mixed"]
    assert not doc["decentralized"]["ok"]
    assert not doc["pbh"]["detectable"]
    assert doc["mode_support"]["indeterminate"]


def test_analyze_counts_the_fixed_modes_at_a_rounded_zero(capsys, tmp_path):
    # draw 13 of rng 2024: eigvals splits the defective zero of M to +-2.6e-9
    # and 9e-11 +-i; at 0 itself two more partitions lose rank
    rng = np.random.default_rng(2024)
    for trial in range(14):
        g, profile = random_mixed_ne_game(rng, singular=trial % 3 == 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singular coupling
        plant = assemble_plant(assemble_local_game(g, profile))
    reference = exhaustive_fixed_modes(plant)
    assert len({(q, r) for _, q, r in reference}) == 4
    game = tmp_path / "draw13.json"
    game.write_text(json.dumps(game_to_json(g)))
    specs = tmp_path / "gp.json"
    specs.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 3}))
    init = json.dumps([x.tolist() for x in profile])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        code, out, _ = run(capsys, ["analyze", str(game), str(specs), "--profile", init])
    assert code == 1
    assert json.loads(out)["decentralized"] == {"ok": False, "failures": len(reference)}


@pytest.mark.parametrize(
    "player", [{"variant": "replicator"}, {"variant": "smooth_fp", "temperature": 0.1}]
)
def test_analyze_rules_outside_the_projection_family_exit_2(capsys, jordan_file, tmp_path, player):
    specs = tmp_path / "fixed.json"
    specs.write_text(json.dumps({"players": [player] * 3}))
    code, out, err = run(capsys, ["analyze", jordan_file, str(specs)])
    assert (code, out) == (2, "")
    assert err.startswith("error: player 0: ")
    assert err.endswith(" has no closed-loop linearization\n")


def test_analyze_coordination_reports_parity(capsys, tmp_path):
    path = tmp_path / "coord.json"
    path.write_text(json.dumps(game_to_json(make_coordination())))
    code, out, _ = run(
        capsys, ["analyze", str(path), data_path("coordination_stabilize.specs.json")]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["isolated"] is True
    assert doc["parity"]["not_strongly_stabilizable"]
    assert doc["parity"]["verdict"] == "not_strongly_stabilizable"


def test_analyze_tiny_payoff_scale_keeps_the_parity_verdict(capsys, tmp_path):
    # payoffs x 1e-7 keep the equilibria: m12 m21 = 1e-14 is no reason to drop the screen
    tiny = PolymatrixGame((2, 2), {(0, 1): 1e-7 * np.eye(2), (1, 0): 1e-7 * np.eye(2)})
    path = tmp_path / "coord.json"
    path.write_text(json.dumps(game_to_json(tiny)))
    specs = tmp_path / "gp.json"
    specs.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 2}))
    code, out, err = run(capsys, ["analyze", str(path), str(specs)])
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["isolated"] is True
    assert doc["parity"]["verdict"] == "not_strongly_stabilizable"
    assert doc["parity"]["m12"] == pytest.approx(1e-7, rel=1e-12)


def test_analyze_reports_no_parity_when_the_2x2_equilibrium_is_not_isolated(capsys, tmp_path):
    # m21 = 0, so m12 * m21 vanishes: the uniform profile is a mixed equilibrium
    # but not an isolated one, and the parity screen does not apply
    game = tmp_path / "one_pair.json"
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    game.write_text(json.dumps(game_to_json(PolymatrixGame((2, 2), {(0, 1): swap}))))
    specs = tmp_path / "gp.json"
    specs.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 2}))
    assert run(capsys, ["verify", str(game)])[0] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the singular coupling
        code, out, err = run(capsys, ["analyze", str(game), str(specs)])
    doc = json.loads(out)
    assert (code, err) == (1, "")
    assert doc["isolated"] is False
    assert doc["parity"] is None
    assert set(doc["decentralized"]) == {"ok", "failures"}


def test_analyze_boundary_profile_exits_3(capsys, tmp_path):
    path = tmp_path / "coord.json"
    path.write_text(json.dumps(game_to_json(make_coordination())))
    code, _, err = run(
        capsys,
        [
            "analyze",
            str(path),
            data_path("coordination_stabilize.specs.json"),
            "--profile",
            "[[1.0, 0.0], [1.0, 0.0]]",
        ],
    )
    assert code == 3
    assert "undefined" in err


def _thin_equilibrium(tmp_path):
    # an equilibrium whose smallest entry, 5e-10, passes a tol of 1e-12 but
    # not MIXED_TOL, the floor of local coordinates
    eps = 5e-10
    c = eps / (1.0 - eps)
    game = tmp_path / "thin.json"
    pairs = {(0, 1): np.eye(2), (1, 0): np.diag([1.0, c])}
    game.write_text(json.dumps(game_to_json(PolymatrixGame((2, 2), pairs))))
    return str(game), json.dumps([[eps, 1.0 - eps], [0.5, 0.5]])


@pytest.mark.parametrize("tol", ["1e-12", "1e-9"])
def test_analyze_profile_below_the_mixed_floor_exits_3_at_any_tol(capsys, tmp_path, tol):
    # a failed precondition either way, not an input error
    game, profile = _thin_equilibrium(tmp_path)
    specs = tmp_path / "gp.json"
    specs.write_text(json.dumps({"players": [{"variant": "gradient_play"}] * 2}))
    code, out, err = run(capsys, ["analyze", game, str(specs), "--profile", profile, "--tol", tol])
    assert (code, out) == (3, "")
    assert err == "local analysis undefined: profile is not a completely mixed equilibrium\n"


@pytest.mark.parametrize("tol", ["1e-12", "1e-9"])
def test_verify_judges_completely_mixed_by_the_rule_analyze_uses(capsys, tmp_path, tol):
    # the certificate is an equilibrium that is not completely mixed, so
    # analyze, which reads that certificate, exits 3
    game, profile = _thin_equilibrium(tmp_path)
    code, out, _ = run(capsys, ["verify", game, "--profile", profile, "--tol", tol])
    doc = json.loads(out)
    assert code == 0
    assert doc["is_ne"] and not doc["completely_mixed"]


def test_analyze_non_equilibrium_profile_exits_3(capsys, jordan_file):
    code, _, err = run(
        capsys,
        [
            "analyze",
            jordan_file,
            data_path("jordan_single.specs.json"),
            "--profile",
            "[[0.9, 0.1], [0.5, 0.5], [0.5, 0.5]]",
        ],
    )
    assert code == 3


# --- sweep ----------------------------------------------------------------------


def test_sweep_writes_csv_and_crossings(capsys, tmp_path):
    out_csv = tmp_path / "locus.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep",
            "jordan",
            data_path("jordan_rescaled.specs.json"),
            "--mu-min",
            "0.01",
            "--mu-max",
            "100",
            "--points",
            "50",
            "--out",
            str(out_csv),
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert len(doc["crossings"]) == 2
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "mu,re,im,stable"
    assert len(lines) == 1 + 50 * 9  # 9 eigenvalues per grid point


def test_sweep_single_point_stable(capsys, tmp_path):
    out_csv = tmp_path / "one.csv"
    code, out, _ = run(
        capsys,
        [
            "sweep",
            "jordan",
            data_path("jordan_rescaled.specs.json"),
            "--mu-min",
            "1.0",
            "--mu-max",
            "1.0",
            "--points",
            "1",
            "--out",
            str(out_csv),
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["stable_points"] == 1
    assert doc["crossings"] == []


def test_sweep_bad_range_exits_2(capsys, tmp_path):
    code, _, err = run(
        capsys,
        [
            "sweep",
            "jordan",
            data_path("jordan_rescaled.specs.json"),
            "--mu-min",
            "-1",
            "--out",
            str(tmp_path / "x.csv"),
        ],
    )
    assert code == 2


def _per_point_sweep(specs, grid, calls):
    # the sweep as every point's own game: make_jordan(g), reduced in full
    def build(g):
        calls.append(g)
        return assemble_closed_loop(GameLocalMatrix.from_game(make_jordan(g)), specs).matrix

    return gain_sweep(build, grid)


def assert_sweeps_bit_equal(got, want):
    assert got.grid.tobytes() == want.grid.tobytes()
    assert len(got.eigenvalues) == len(want.eigenvalues)
    for a, b in zip(got.eigenvalues, want.eigenvalues):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (got.stable.dtype, got.stable.tobytes()) == (want.stable.dtype, want.stable.tobytes())
    assert got.crossings == want.crossings
    assert all(type(v) is float for c in got.crossings for v in c)


@pytest.mark.parametrize("specs_name", ["jordan_rescaled", "jordan_single"])
@pytest.mark.parametrize(
    "bounds",
    [[], ["--points", "2000"], ["--mu-min", "0.3", "--mu-max", "4", "--points", "9"], ["--points", "1"]],
    ids=["default", "2000", "9-over-0.3-4", "1"],
)
def test_sweep_equals_the_per_point_game_sweep(capsys, tmp_path, monkeypatch, specs_name, bounds):
    # each point re-reduces only pair (0, 1) of make_jordan(1.0), and still
    # assembles its loop once: spectra, flags, crossings, CSV and stdout
    # equal those of the sweep that builds and reduces make_jordan(g)
    swept, assembled = [], []
    real_sweep, real_assemble = cli.gain_sweep, cli.assemble_closed_loop
    monkeypatch.setattr(cli, "gain_sweep", lambda *a: swept.append(real_sweep(*a)) or swept[-1])
    monkeypatch.setattr(
        cli, "assemble_closed_loop", lambda *a: assembled.append(1) or real_assemble(*a)
    )
    specs_file = data_path(f"{specs_name}.specs.json")
    out_csv = tmp_path / "got.csv"
    code, out, err = run(capsys, ["sweep", "jordan", specs_file, *bounds, "--out", str(out_csv)])
    assert (code, err) == (0, "")
    args = dict(zip(bounds[::2], bounds[1::2]))
    grid = default_gain_grid(
        float(args.get("--mu-min", 1e-2)), float(args.get("--mu-max", 1e2)), int(args.get("--points", 200))
    )
    calls = []
    want = _per_point_sweep(load_specs_file(specs_file, make_jordan()), grid, calls)
    (got,) = swept
    assert_sweeps_bit_equal(got, want)
    assert len(assembled) == len(calls) >= grid.size
    if not bounds and specs_name == "jordan_rescaled":
        assert len(assembled) == 217  # 200 grid points and 17 bisection steps
    write_sweep_csv(tmp_path / "want.csv", want)
    assert out_csv.read_bytes() == (tmp_path / "want.csv").read_bytes()
    doc = json.loads(out)
    assert doc["points"] == grid.size
    assert doc["stable_points"] == int(want.stable.sum())
    assert doc["crossings"] == [list(c) for c in want.crossings]


def test_rescaled_scenario_sweep_equals_the_per_point_game_sweep():
    result = run_scenario("jordan-rescaled", {"horizon": 1.0})
    specs = load_specs_file(data_path("jordan_rescaled.specs.json"), make_jordan())
    assert_sweeps_bit_equal(result.sweep, _per_point_sweep(specs, default_gain_grid(), []))


def test_overflowing_sweep_names_the_gain_as_the_per_point_sweep_does(capsys, tmp_path):
    argv = ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-min", "1e300"]
    argv += ["--mu-max", "1e308", "--points", "3", "--out", str(tmp_path / "x.csv")]
    code, _, err = run(capsys, argv)
    assert (code, err) == (2, "error: the loop at gain 1e+308 is not finite\n")
    specs = load_specs_file(data_path("jordan_rescaled.specs.json"), make_jordan())
    with pytest.raises(NonFiniteInputError, match=r"^the loop at gain 1e\+308 is not finite$"):
        _per_point_sweep(specs, default_gain_grid(1e300, 1e308, 3), [])


# --- simulate -------------------------------------------------------------------


def test_simulate_from_equilibrium_converges(capsys, jordan_file, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys,
        [
            "simulate",
            jordan_file,
            data_path("jordan_single.specs.json"),
            "--h",
            "0.002",
            "--horizon",
            "2.0",
            "--init",
            "uniform",
            "--out",
            str(out_csv),
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["converged"] and doc["settled"] and doc["limit_is_ne"]
    lines = out_csv.read_text().strip().splitlines()
    # t + 6 strategies + 1 aux + 1 washout (only the higher-order player has v)
    assert lines[0].split(",") == [
        "t",
        "x0_0",
        "x0_1",
        "x1_0",
        "x1_1",
        "x2_0",
        "x2_1",
        "xi0_0",
        "v0_0",
    ]
    assert all(len(l.split(",")) == 9 for l in lines[1:])


def test_simulate_blowup_exits_4(capsys, tmp_path, jordan_file):
    # a runaway compensator overflows the aux state partway through the run
    specs = tmp_path / "runaway.json"
    specs.write_text(
        json.dumps(
            {
                "players": [
                    {"variant": "higher_order", "E": [[100.0]], "F": [[1.0]], "G": [[1.0]], "H": [[0.0]]},
                    {"variant": "gradient_play"},
                    {"variant": "gradient_play"},
                ]
            }
        )
    )
    code, _, err = run(
        capsys,
        [
            "simulate",
            jordan_file,
            str(specs),
            "--h",
            "0.01",
            "--horizon",
            "20",
            "--init",
            "[[0.6, 0.4], [0.5, 0.5], [0.5, 0.5]]",
            "--out",
            str(tmp_path / "t.csv"),
        ],
    )
    assert code == 4
    assert "numeric failure" in err


def test_scenario_blowup_exits_4(capsys):
    # a step of 5 makes RK4 itself unstable on the jordan-single loop
    code, _, err = run(capsys, ["scenario", "jordan-single", "--h", "5"])
    assert code == 4
    assert "numeric failure" in err


def test_scenario_blowup_prints_only_the_numeric_failure(tmp_path):
    # numpy's overflow warnings stay inside the simulator: a fresh interpreter
    # with the default warning filters prints the typed failure and nothing else
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONWARNINGS", None)
    argv = ["scenario", "jordan-single", "--h", "5"]
    code = f"import sys, gradplay.cli; sys.exit(gradplay.cli.main({argv!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert out.returncode == 4
    assert out.stderr == "numeric failure: nonfinite state encountered at t = 190\n"


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["verify", data_path("jordan.game.json")], 0, ""),
        (
            ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-min", "1e300"]
            + ["--mu-max", "1e308", "--points", "3"],
            2,
            "error: the loop at gain 1e+308 is not finite\n",
        ),
        (
            ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-max", "inf"],
            2,
            "error: --mu-max must be finite, got inf\n",
        ),
        (
            ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-min", "nan"],
            2,
            "error: --mu-min must be finite, got nan\n",
        ),
        (
            ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-min=-inf"],
            2,
            "error: --mu-min must be finite, got -inf\n",
        ),
        (
            ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-min", "2"]
            + ["--mu-max", "2", "--points", "5"],
            2,
            "error: --mu-min equals --mu-max: --points > 1 needs --mu-min < --mu-max\n",
        ),
        (
            ["sweep", "jordan", data_path("jordan_rescaled.specs.json"), "--mu-min", "1"]
            + ["--mu-max", "1.0000000000000002", "--points", "5"],
            2,
            "error: --mu-min 1.0 and --mu-max 1.0000000000000002 are too close for --points 5:"
            " the log-spaced grid repeats a value\n",
        ),
    ],
    ids=[
        "verify",
        "overflowing-sweep",
        "infinite-mu-max",
        "nan-mu-min",
        "infinite-mu-min",
        "equal-bounds",
        "close-bounds",
    ],
)
def test_module_run_prints_only_its_own_errors(tmp_path, argv, code, stderr):
    # `python -m gradplay` in a fresh interpreter with the default warning
    # filters: no runpy warning, and no numpy warning from an overflowing loop
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONWARNINGS", None)
    out = subprocess.run(
        [sys.executable, "-m", "gradplay", *argv],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert out.returncode == code
    assert out.stderr == stderr


def test_simulate_divergent_run_exits_1(capsys, tmp_path, gp_specs_file, jordan_file):
    out_csv = tmp_path / "t.csv"
    code, out, _ = run(
        capsys,
        [
            "simulate",
            jordan_file,
            gp_specs_file,
            "--h",
            "0.01",
            "--horizon",
            "20",
            "--init",
            "[[0.55, 0.45], [0.5, 0.5], [0.5, 0.5]]",
            "--out",
            str(out_csv),
        ],
    )
    assert code == 1
    assert not json.loads(out)["converged"]


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_nonfinite_horizon_exits_2(capsys, tmp_path, jordan_file, horizon):
    code, _, err = run(
        capsys,
        [
            "simulate",
            jordan_file,
            data_path("jordan_single.specs.json"),
            "--horizon",
            horizon,
            "--out",
            str(tmp_path / "t.csv"),
        ],
    )
    assert code == 2
    assert "finite" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", data_path("jordan.game.json"), data_path("jordan_single.specs.json")],
        ["scenario", "jordan-single"],
    ],
    ids=["simulate", "scenario"],
)
def test_overflowing_step_count_exits_2_before_integrating(capsys, monkeypatch, tmp_path, argv):
    for name in ("simulate_coupled", "simulate_open_loop"):
        monkeypatch.setattr(f"gradplay.cli.{name}", lambda *a, **k: pytest.fail("integrated"))
    out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "simulate" else []
    code, stdout, err = run(capsys, argv + ["--h", "1e-300", "--horizon", "1e300", *out])
    assert (code, stdout) == (2, "")
    assert err == "error: the step count horizon / step must be finite\n"
    assert list(tmp_path.iterdir()) == []


# --- scenario -------------------------------------------------------------------


def test_scenario_unknown_name_exits_2(capsys):
    code, _, err = run(capsys, ["scenario", "nope"])
    assert code == 2
    assert "valid names" in err
    for name in ("jordan-single", "coordination-openloop"):
        assert name in err


def test_scenario_openloop_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "art"
    code, out, _ = run(
        capsys, ["scenario", "coordination-openloop", "--out", str(out_dir), "--horizon", "25"]
    )
    doc = json.loads(out)
    assert code == 0
    assert not doc["stable"] and doc["converged"] and doc["consistent"]
    assert (out_dir / "trajectory.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["scenario"] == "coordination-openloop"
    assert report["spectral_abscissa"] == pytest.approx(0.5)


def test_scenario_rescaled_writes_root_locus(capsys, tmp_path):
    out_dir = tmp_path / "locus"
    code, out, _ = run(
        capsys,
        ["scenario", "jordan-rescaled", "--out", str(out_dir), "--horizon", "30"],
    )
    assert code == 0
    assert (out_dir / "rootlocus.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["crossings"]) == 2


def test_scenario_sigma_seed_passthrough(capsys):
    argv = ["scenario", "jordan-random", "--sigma", "0.3", "--seed", "1", "--horizon", "4"]
    code_a, out_a, _ = run(capsys, argv)
    code_b, out_b, _ = run(capsys, argv)
    assert code_a == code_b
    assert json.loads(out_a) == json.loads(out_b)


def test_scenario_deltas_override(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        [
            "scenario",
            "jordan-diagonal",
            "--deltas",
            "0.8831,0.4259,0.7546",
            "--horizon",
            "20",
        ],
    )
    doc = json.loads(out)
    assert code == 0  # consistent: unstable and not converged
    assert not doc["stable"] and not doc["converged"] and doc["consistent"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "jordan-rescaled", "--mu", "nan"],
        ["scenario", "jordan-rescaled", "--mu", "inf"],
        ["scenario", "jordan-random", "--sigma", "nan"],
        ["scenario", "jordan-diagonal", "--deltas", "nan,0,0"],
        ["simulate", {"variant": "anticipatory", "lambda": np.nan, "gamma": 1.0}],
        ["simulate", {"variant": "higher_order", "E": [[np.inf]], "F": [[1]], "G": [[1]], "H": [[1]]}],
        ["analyze", {"variant": "smooth_fp", "temperature": [1]}],
        ["analyze", {"variant": "smooth_fp", "temperature": None}],
        ["simulate", {"variant": "smooth_fp", "temperature": [1]}],
        ["simulate", {"variant": "smooth_fp", "temperature": None}],
        ["analyze", {"variant": "anticipatory", "lambda": {"a": 1}, "gamma": 1}],
        ["simulate", {"variant": "anticipatory", "lambda": {"a": 1}, "gamma": 1}],
    ],
)
def test_nonfinite_parameter_exits_2(capsys, tmp_path, jordan_file, argv):
    if argv[0] in ("analyze", "simulate"):
        # the first player of the specs file carries the non-finite or malformed parameter
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"players": [argv[1]] + [{"variant": "gradient_play"}] * 2}))
        out = ["--out", str(tmp_path / "t.csv")] if argv[0] == "simulate" else []
        argv = [argv[0], jordan_file, str(specs)] + out
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("deltas", ["0.1,0.2", "0.1,0.2,0.3,0.4"])
def test_scenario_deltas_need_three_values(capsys, deltas):
    code, out, err = run(capsys, ["scenario", "jordan-diagonal", "--deltas", deltas])
    assert (code, out) == (2, "")
    assert err == "error: --deltas needs three comma-separated values\n"


@pytest.mark.parametrize("converged", [True, False])
def test_diverged_without_target_is_not_converged(converged):
    # with no fixed target only a run that never settles counts as diverged
    result = ScenarioResult("probe", None, None, converged, None, True, None)
    assert result.diverged is not converged


@pytest.mark.parametrize(
    "command, option",
    [("verify", "--tol"), ("analyze", "--tol"), ("simulate", "--ne-tol")],
)
def test_nonfinite_tolerance_exits_2(capsys, tmp_path, jordan_file, command, option):
    # a tolerance must be positive and finite; none is raised to a floor
    for value in ("nan", "0", "-1"):
        argv = [command, jordan_file, option, value]
        if command != "verify":
            argv.insert(2, data_path("jordan_single.specs.json"))
        if command == "simulate":
            argv += ["--horizon", "1", "--out", str(tmp_path / "t.csv")]
        code, _, err = run(capsys, argv)
        assert code == 2, value
        assert "tol must be positive and finite" in err
        assert not (tmp_path / "t.csv").exists()


def test_scenario_nonfinite_horizon_exits_2(capsys):
    code, _, err = run(capsys, ["scenario", "jordan-single", "--horizon", "inf"])
    assert code == 2
    assert "finite" in err


def _anticipatory(**fields):
    return {"variant": "anticipatory", "lambda": 50.0, "gamma": 5.0, **fields}


def _higher_order(**fields):
    return {"variant": "higher_order", "E": [[-1.0]], "F": [[1.0]], "G": [[1.0]], "H": [[1.0]], **fields}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("analyze", _anticipatory(**{"lambda": "50", "gamma": True})),
        ("analyze", _anticipatory(gamma2="0.8")),
        ("analyze", _higher_order(E=[["-1"]], F=[[True]])),
        ("analyze", _higher_order(E=[[-1.0, 0.0], [True, -1.0]], F=[[1.0], [0.0]], G=[[1.0, 0.0]])),
        ("simulate", {"variant": "smooth_fp", "temperature": "0.5"}),
        ("simulate", {"variant": "smooth_fp", "temperature": True}),
        ("verify", {"rows": [["0", "1"], [True, False]]}),
        ("verify", {"rows": [[0.0, 1.0], [1.0, False]]}),
        ("verify", {"profile": [["0.5", "0.5"], ["0.5", "0.5"]]}),
        ("verify", {"profile": [[0.5, 0.5], [True, False]]}),
    ],
)
def test_json_strings_and_bools_are_not_numbers(capsys, tmp_path, jordan_file, command, bad):
    # each would be read as the number it spells: lambda 50, gamma 1, row [0, 1]
    if command == "verify":
        doc = game_to_json(make_coordination())
        doc["matrices"][0]["rows"] = bad.get("rows", doc["matrices"][0]["rows"])
        game = tmp_path / "game.json"
        game.write_text(json.dumps(doc))
        argv = ["verify", str(game)]
        if "profile" in bad:
            argv += ["--profile", json.dumps(bad["profile"])]
    else:
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"players": [bad] + [{"variant": "gradient_play"}] * 2}))
        argv = [command, jordan_file, str(specs)]
        if command == "simulate":
            argv += ["--horizon", "1", "--out", str(tmp_path / "t.csv")]
    code, _, err = run(capsys, argv)
    assert code == 2 and err.startswith("error:")
