"""Command-line surface: file schemas, CSV emitters, scenario presets, and the gradplay tool.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 input
error, 3 precondition failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics as dyn
from .analysis import (
    StabilityVerdict,
    SweepResult,
    check_mode_support,
    decentralized_stabilizable,
    default_gain_grid,
    gain_sweep,
    pbh_detectable,
    pbh_stabilizable,
    spectral_abscissa,
    strong_stabilizability_2x2,
)
from .games import (
    NeCertificate,
    PolymatrixGame,
    make_coordination,
    make_jordan,
    perturb_jordan_diagonal,
    perturb_random,
    uniform_profile,
    verify_ne,
)
from .linearize import GameLocalMatrix, assemble_closed_loop, assemble_local_game, assemble_plant, singular
from .simplex import tangent_basis
from .simulate import (
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    detect_convergence,
    simulate_coupled,
    simulate_open_loop,
)

__all__ = [
    "main",
    "game_to_json",
    "game_from_json",
    "specs_to_json",
    "specs_from_json",
    "load_game_file",
    "load_specs_file",
    "write_matrix_csv",
    "write_trajectory_csv",
    "write_sweep_csv",
    "ScenarioResult",
    "run_scenario",
    "scenario_names",
]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# JSON schemas


def game_to_json(game: PolymatrixGame) -> dict:
    """Schema: {n, dims: [k_i], matrices: [{i, j, rows}]} with 0-based players."""
    return {
        "n": game.n,
        "dims": list(game.dims),
        "matrices": [
            {"i": i, "j": j, "rows": [list(row) for row in game.pair_matrices[(i, j)]]}
            for (i, j) in sorted(game.pair_matrices)
        ],
    }


def _integer(value) -> int:
    """A JSON integer field: a float, bool or string is not truncated or split into one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number field: a bool or string is not read as a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _floats(value) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array."""
    pending = [value]
    while pending:
        entry = pending.pop()
        if isinstance(entry, list):
            pending.extend(entry)
        else:
            _number(entry)
    return np.asarray(value, dtype=float)


def game_from_json(doc: dict) -> PolymatrixGame:
    try:
        dims = tuple(_integer(k) for k in doc["dims"])
        if "n" in doc and _integer(doc["n"]) != len(dims):
            raise ValueError("n does not match the number of dims")
        mats = {}
        for entry in doc.get("matrices", []):
            key = (_integer(entry["i"]), _integer(entry["j"]))
            if key in mats:
                raise ValueError(f"duplicate pair matrix {key}")
            mats[key] = _floats(entry["rows"])
            if not np.isfinite(mats[key]).all():
                raise ValueError(f"pair matrix {key} has non-finite entries")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed game document: {exc}") from exc
    return PolymatrixGame(dims, mats)


def spec_to_json(spec) -> dict:
    if isinstance(spec, dyn.GradientPlay):
        return {"variant": "gradient_play"}
    if isinstance(spec, dyn.Replicator):
        return {"variant": "replicator"}
    if isinstance(spec, dyn.SmoothFictitiousPlay):
        return {"variant": "smooth_fp", "temperature": spec.temperature}
    if isinstance(spec, dyn.HigherOrderGradientPlay):
        return {
            "variant": "higher_order",
            "E": spec.E.tolist(),
            "F": spec.F.tolist(),
            "G": spec.G.tolist(),
            "H": spec.H.tolist(),
        }
    raise TypeError(f"unknown spec {type(spec).__name__}")


def spec_from_json(doc: dict, k: int):
    try:
        variant = doc["variant"]
        if variant == "gradient_play":
            return dyn.GradientPlay()
        if variant == "replicator":
            return dyn.Replicator()
        if variant == "smooth_fp":
            return dyn.SmoothFictitiousPlay(_number(doc.get("temperature", 0.1)))
        if variant == "higher_order":
            spec = dyn.HigherOrderGradientPlay(
                E=_floats(doc["E"]),
                F=_floats(doc["F"]),
                G=_floats(doc["G"]),
                H=_floats(doc["H"]),
            )
            if spec.signal_dim != k - 1:
                raise ValueError(
                    f"higher_order spec has signal dimension {spec.signal_dim}, expected {k - 1}"
                )
            return spec
        if variant == "anticipatory":
            gamma2 = doc.get("gamma2")
            gamma2 = None if gamma2 is None else _number(gamma2)
            return dyn.make_anticipatory(_number(doc["lambda"]), _number(doc["gamma"]), k, gamma2)
    except KeyError as exc:
        raise ValueError(f"player spec missing {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed player spec: {exc}") from exc
    raise ValueError(f"unknown dynamics variant {variant!r}")


def specs_to_json(specs) -> dict:
    return {"players": [spec_to_json(s) for s in specs]}


def specs_from_json(doc: dict, game: PolymatrixGame) -> list:
    try:
        players = doc["players"]
    except (KeyError, TypeError) as exc:
        raise ValueError("spec document needs a 'players' list") from exc
    if len(players) != game.n:
        raise ValueError(f"spec file has {len(players)} players, game has {game.n}")
    return [spec_from_json(p, k) for p, k in zip(players, game.dims)]


def load_game_file(path) -> PolymatrixGame:
    return game_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def load_specs_file(path, game: PolymatrixGame) -> list:
    return specs_from_json(json.loads(Path(path).read_text(encoding="utf-8")), game)


def parse_profile(game: PolymatrixGame, text: str):
    """Profile argument: 'uniform', inline JSON, or a path to a JSON file."""
    if text == "uniform":
        return uniform_profile(game)
    stripped = text.strip()
    if stripped.startswith("["):
        doc = json.loads(stripped)
    else:
        doc = json.loads(Path(text).read_text(encoding="utf-8"))
    if not isinstance(doc, list):
        raise ValueError(f"a profile is a list of strategy vectors, got {doc!r}")
    return [_floats(x) for x in doc]


def certificate_to_json(cert: NeCertificate) -> dict:
    return {
        "is_ne": cert.is_ne,
        "completely_mixed": cert.completely_mixed,
        "payoff_levels": list(cert.payoff_levels),
        "max_violation": cert.max_violation,
        "tol": cert.tol,
        "profile": [[float(v) for v in x] for x in cert.profile],
    }


# ---------------------------------------------------------------------------
# CSV emitters (RFC-4180-ish: comma separated, header row, \n line ends)


def _write_rows(path, head: str, fields: str, data: np.ndarray):
    """Write head, then one line of the fields format per row of data, in one % operation."""
    body = ((fields + "\n") * len(data)) % tuple(data.ravel().tolist())
    Path(path).write_text(head + body, encoding="utf-8")


def write_matrix_csv(path, M: np.ndarray):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _write_rows(path, "", ",".join([FLOAT_FMT] * M.shape[1]), M)


def write_trajectory_csv(path, traj: Trajectory):
    layout = traj.layout
    header = ["t"]
    for i in range(layout.n):
        header += [f"x{i}_{a}" for a in range(layout.dims[i])]
    for i in range(layout.n):
        header += [f"xi{i}_{a}" for a in range(layout.aux_dims[i])]
    for i in range(layout.n):
        header += [f"v{i}_{a}" for a in range(layout.washout_dims[i])]
    data = np.column_stack([traj.times, traj.states])
    _write_rows(path, ",".join(header) + "\n", ",".join([FLOAT_FMT] * len(header)), data)


def write_sweep_csv(path, sweep):
    sizes = [ev.size for ev in sweep.eigenvalues]
    z = np.concatenate([np.zeros(0), *sweep.eigenvalues])
    data = np.column_stack(
        [np.repeat(sweep.grid, sizes), z.real, z.imag, np.repeat(sweep.stable, sizes)]
    )
    _write_rows(path, "mu,re,im,stable\n", f"{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT},%d", data)


# ---------------------------------------------------------------------------
# Scenario presets


DIVERGENCE_DISTANCE = 0.45


@dataclass
class ScenarioResult:
    name: str
    trajectory: Trajectory
    verdict: StabilityVerdict
    converged: bool
    hitting_time: float | None
    consistent: bool
    target: list | None
    sweep: SweepResult | None = None
    artifacts: dict = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        """Left the target's neighbourhood (max-norm distance beyond 0.45,
        which sits near the simplex boundary) or ran out the horizon without
        converging."""
        if not self.converged:
            return True
        if self.target is None:
            return False
        excursion = 0.0
        for i in range(self.trajectory.layout.n):
            ti = np.asarray(self.target[i], dtype=float)
            excursion = max(
                excursion, float(np.max(np.abs(self.trajectory.strategy(i) - ti)))
            )
        return excursion > DIVERGENCE_DISTANCE


def _data_specs(filename: str, game: PolymatrixGame):
    text = (resources.files("gradplay") / "data" / filename).read_text(encoding="utf-8")
    return specs_from_json(json.loads(text), game)


START_OFFSET = 0.05  # coupled presets start this far along each player's first tangent


def _offset_profile(game: PolymatrixGame) -> list:
    return [np.full(k, 1.0 / k) + START_OFFSET * tangent_basis(k).N[:, 0] for k in game.dims]


def _jordan_sweep(specs, grid) -> SweepResult:
    """Sweep the Jordan game's payoff scale over grid, assembling its loop at every point."""
    return gain_sweep(
        lambda g: assemble_closed_loop(GameLocalMatrix.from_game(make_jordan(g)), specs).matrix, grid
    )


def _take(overrides: dict, allowed: dict) -> dict:
    unknown = set(overrides) - set(allowed)
    if unknown:
        raise ValueError(f"unknown overrides: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update(overrides)
    return merged


class _Preset(NamedTuple):
    """A coupled preset: its game is built from the merged overridable defaults."""

    specs_file: str
    defaults: dict
    game: Callable[[dict], PolymatrixGame]
    uniform_target: bool  # else the settled profile must certify as an equilibrium
    stride: int
    sweep: bool = False  # sweep the payoff scale of the Jordan game


_PRESETS = {
    "jordan-single": _Preset(
        "jordan_single.specs.json", {"h": 0.002, "horizon": 200.0},
        lambda o: make_jordan(1.0), True, 50,
    ),
    "jordan-random": _Preset(
        "jordan_single.specs.json", {"h": 0.002, "horizon": 150.0, "sigma": 0.3, "seed": 1},
        lambda o: perturb_random(make_jordan(1.0), o["sigma"], o["seed"]), False, 50,
    ),
    "jordan-diagonal": _Preset(
        "jordan_single.specs.json",
        {"h": 0.002, "horizon": 80.0, "deltas": (0.3877, 0.1446, 0.1352)},
        lambda o: perturb_jordan_diagonal(*o["deltas"]), True, 20,
    ),
    "jordan-rescaled": _Preset(
        "jordan_rescaled.specs.json", {"h": 0.01, "horizon": 100.0, "mu": 1.0},
        lambda o: make_jordan(o["mu"]), True, 10, sweep=True,
    ),
    "coordination-stabilize": _Preset(
        "coordination_stabilize.specs.json", {"h": 0.002, "horizon": 80.0},
        lambda o: make_coordination(), True, 20,
    ),
}


def scenario_names() -> tuple:
    return (*_PRESETS, "coordination-openloop")


def _run_openloop(overrides, out_dir) -> ScenarioResult:
    o = _take(overrides, {"h": 0.002, "horizon": 40.0})
    game = make_coordination()
    specs = _data_specs("coordination_stabilize.specs.json", game)
    spec = specs[0]
    cfg = SimConfig(step=o["h"], horizon=o["horizon"], record_stride=10)
    payoff = np.array([0.0, 1.0])
    traj = simulate_open_loop(spec, payoff, np.array([0.5, 0.5]), cfg)
    verdict = spectral_abscissa(spec.E)
    corner = np.array([1.0, 0.0])
    converged = bool(np.max(np.abs(traj.strategy(0)[-1] - corner)) <= 1e-2)
    xi_grew = bool(np.max(np.abs(traj.aux(0)[-1])) > 1e3)
    consistent = (not verdict.stable) == xi_grew
    result = ScenarioResult(
        "coordination-openloop", traj, verdict, converged, None, consistent, [corner]
    )
    if out_dir is not None:
        _write_artifacts(result, out_dir)
    return result


def run_scenario(name: str, overrides: dict | None = None, out_dir=None) -> ScenarioResult:
    """Run a named experiment preset and cross-check simulation against spectrum.

    Coupled scenarios report convergence to the known equilibrium (or, for the
    randomly perturbed game, settling to a profile that certifies as a Nash
    equilibrium) and flag consistency with the closed-loop stability verdict.
    The open-loop scenario instead drives one player with a constant payoff
    and checks that the unstable compensator misses the best response.
    """
    overrides = dict(overrides or {})
    if name == "coordination-openloop":
        return _run_openloop(overrides, out_dir)
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; valid names: {', '.join(scenario_names())}")
    preset = _PRESETS[name]
    o = _take(overrides, preset.defaults)
    game = preset.game(o)
    specs = _data_specs(preset.specs_file, game)
    cfg = SimConfig(step=o["h"], horizon=o["horizon"], record_stride=preset.stride)
    target = uniform_profile(game) if preset.uniform_target else None
    traj = simulate_coupled(game, specs, _offset_profile(game), cfg)
    verdict = spectral_abscissa(assemble_closed_loop(GameLocalMatrix.from_game(game), specs).matrix)
    if target is not None:
        converged, hit = detect_convergence(traj, target)
    else:  # the rule of gradplay simulate: settled, at a certified equilibrium
        converged = traj.converged and verify_ne(game, traj.final_profile(), tol=1e-3).is_ne
        hit = None
    consistent = verdict.stable == converged
    sweep = None
    if preset.sweep:
        sweep = _jordan_sweep(specs, default_gain_grid())
    result = ScenarioResult(name, traj, verdict, converged, hit, consistent, target, sweep)
    if out_dir is not None:
        _write_artifacts(result, out_dir)
    return result


def _write_artifacts(result: ScenarioResult, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj_path = out / "trajectory.csv"
    write_trajectory_csv(traj_path, result.trajectory)
    result.artifacts["trajectory"] = traj_path
    report = {
        "scenario": result.name,
        "spectral_abscissa": result.verdict.spectral_abscissa,
        "stable": result.verdict.stable,
        "eigenvalues": [[z.real, z.imag] for z in result.verdict.eigenvalues],
        "converged": result.converged,
        "hitting_time": result.hitting_time,
        "consistent": result.consistent,
    }
    if result.sweep is not None:
        report["crossings"] = [list(c) for c in result.sweep.crossings]
        locus_path = out / "rootlocus.csv"
        write_sweep_csv(locus_path, result.sweep)
        result.artifacts["rootlocus"] = locus_path
    report_path = out / "report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    result.artifacts["report"] = report_path


# ---------------------------------------------------------------------------
# Commands


def _emit(doc: dict):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    game = load_game_file(args.game)
    profile = parse_profile(game, args.profile)
    cert = verify_ne(game, profile, tol=args.tol)
    _emit(certificate_to_json(cert))
    return EXIT_OK if cert.is_ne else EXIT_NEGATIVE


def _cmd_analyze(args) -> int:
    game = load_game_file(args.game)
    specs = load_specs_file(args.specs, game)
    profile = parse_profile(game, args.profile)
    cert = verify_ne(game, profile, tol=args.tol)
    if not (cert.is_ne and cert.completely_mixed):
        print(
            "local analysis undefined: profile is not a completely mixed equilibrium",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    local = assemble_local_game(game, profile)
    verdict = spectral_abscissa(assemble_closed_loop(local, specs).matrix)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # assemble_local_game has warned
        plant = assemble_plant(local)
    support = check_mode_support(local)
    dec = decentralized_stabilizable(plant)
    report = {
        "certificate": certificate_to_json(cert),
        "eigenvalues": [[z.real, z.imag] for z in verdict.eigenvalues],
        "spectral_abscissa": verdict.spectral_abscissa,
        "stable": verdict.stable,
        "pbh": {
            "stabilizable": pbh_stabilizable(plant.A, plant.B).ok,
            "detectable": pbh_detectable(plant.A, plant.C).ok,
        },
        "per_player_pbh": [
            {
                "player": i,
                "stabilizable": pbh_stabilizable(plant.A, plant.B_blocks[i]).ok,
                "detectable": pbh_detectable(plant.A, plant.C_blocks[i]).ok,
            }
            for i in range(game.n)
        ],
        "mode_support": {
            "satisfied": support.satisfied,
            "indeterminate": support.indeterminate,
        },
        "decentralized": {"ok": dec.ok, "failures": len(dec.failures)},
        "isolated": not singular(local.matrix, local.scale),
    }
    report["parity"] = None  # the screen applies to an isolated 2 x 2 equilibrium only
    if game.dims == (2, 2) and report["isolated"]:
        parity = strong_stabilizability_2x2(game)
        report["parity"] = {
            "verdict": parity.verdict,
            "not_strongly_stabilizable": parity.strongly_stabilizable_obstructed,
            "m12": parity.m12,
            "m21": parity.m21,
        }
    _emit(report)
    return EXIT_OK if verdict.stable else EXIT_NEGATIVE


def _cmd_sweep(args) -> int:
    if args.mu_min <= 0 or args.mu_max < args.mu_min or args.points < 1:
        raise ValueError("need 0 < mu-min <= mu-max and points >= 1")
    specs = load_specs_file(args.specs, make_jordan(1.0))  # checked against the template's dims
    grid = default_gain_grid(args.mu_min, args.mu_max, args.points)
    sweep = _jordan_sweep(specs, grid)
    write_sweep_csv(args.out, sweep)
    _emit(
        {
            "csv": str(args.out),
            "points": int(grid.size),
            "stable_points": int(np.sum(sweep.stable)),
            "crossings": [list(c) for c in sweep.crossings],
        }
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    game = load_game_file(args.game)
    specs = load_specs_file(args.specs, game)
    init = parse_profile(game, args.init)
    cfg = SimConfig(step=args.h, horizon=args.horizon, record_stride=args.stride)
    traj = simulate_coupled(game, specs, init, cfg)
    cert = verify_ne(game, traj.final_profile(), tol=args.ne_tol)
    write_trajectory_csv(args.out, traj)
    converged = traj.converged and cert.is_ne
    _emit(
        {
            "csv": str(args.out),
            "settled": traj.converged,
            "limit_is_ne": cert.is_ne,
            "converged": converged,
            "limit": [[float(v) for v in x] for x in traj.final_profile()],
        }
    )
    return EXIT_OK if converged else EXIT_NEGATIVE


def _cmd_scenario(args) -> int:
    keys = ("h", "horizon", "mu", "sigma", "seed")
    overrides = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    if args.deltas is not None:
        parts = [float(v) for v in args.deltas.split(",")]
        if len(parts) != 3:
            raise ValueError("--deltas needs three comma-separated values")
        overrides["deltas"] = tuple(parts)
    result = run_scenario(args.name, overrides, out_dir=args.out)
    _emit(
        {
            "scenario": result.name,
            "stable": result.verdict.stable,
            "spectral_abscissa": result.verdict.spectral_abscissa,
            "converged": result.converged,
            "consistent": result.consistent,
            "artifacts": {k: str(v) for k, v in result.artifacts.items()},
        }
    )
    return EXIT_OK if result.consistent else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gradplay",
        description="Learning dynamics in polymatrix games: verification, "
        "stability analysis, gain sweeps, and simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check a profile for Nash equilibrium")
    v.add_argument("game", help="game JSON file")
    v.add_argument("--profile", default="uniform", help="'uniform', inline JSON, or a file")
    v.add_argument("--tol", type=float, default=1e-9, help="equilibrium tolerance")
    v.set_defaults(func=_cmd_verify)

    a = sub.add_parser("analyze", help="stability report around a completely mixed equilibrium")
    a.add_argument("game", help="game JSON file")
    a.add_argument("specs", help="per-player dynamics JSON file")
    a.add_argument("--profile", default="uniform", help="'uniform', inline JSON, or a file")
    a.add_argument("--tol", type=float, default=1e-9, help="equilibrium tolerance")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sweep", help="eigenvalue sweep over the payoff scale")
    s.add_argument("template", choices=["jordan"], help="game template to rescale")
    s.add_argument("specs", help="per-player dynamics JSON file")
    s.add_argument("--mu-min", type=float, default=1e-2)
    s.add_argument("--mu-max", type=float, default=1e2)
    s.add_argument("--points", type=int, default=200)
    s.add_argument("--out", default="sweep.csv", help="output CSV path")
    s.set_defaults(func=_cmd_sweep)

    m = sub.add_parser("simulate", help="integrate coupled learning dynamics")
    m.add_argument("game", help="game JSON file")
    m.add_argument("specs", help="per-player dynamics JSON file")
    m.add_argument("--h", type=float, default=0.01, help="integration step")
    m.add_argument("--horizon", type=float, default=200.0)
    m.add_argument("--stride", type=int, default=10, help="record every Nth step")
    m.add_argument("--init", default="uniform", help="initial profile")
    m.add_argument("--ne-tol", type=float, default=1e-3, help="tolerance for the limit check")
    m.add_argument("--out", default="trajectory.csv", help="output CSV path")
    m.set_defaults(func=_cmd_simulate)

    c = sub.add_parser("scenario", help="run a named experiment preset")
    c.add_argument("name", help=f"one of: {', '.join(scenario_names())}")
    c.add_argument("--out", default=None, help="artifact directory")
    c.add_argument("--h", type=float, default=None)
    c.add_argument("--horizon", type=float, default=None)
    c.add_argument("--mu", type=float, default=None)
    c.add_argument("--sigma", type=float, default=None)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--deltas", default=None, help="three comma-separated diagonal values")
    c.set_defaults(func=_cmd_scenario)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonFiniteStateError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
