"""The four benchmark workloads: their items, and a correctness gate per item.

An item is one unit of user-visible work: one preset run, one game analysed,
one sweep, one probe or one simulation.  Its `run` is what gets timed; its
`check` runs after the pass, untimed and untraced, and returns a list of
problems (empty when the output is correct).  `flip` corrupts an output the
way a wrong verdict would, so the gate can be shown to trip.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gradplay as gp
import inputs

TOL = gp.analysis.STABILITY_TOL

# Stability crossings of the rescaled anti-coordination loop in the payoff
# scale mu (paper values); every sweep bracket must contain them.
CROSSINGS = (0.1311041, 2.5544428)

# (label, scenario, overrides, expected (stable, converged, consistent,
# diverged)).  The last three are the saturating runs: without them an
# integrator that skipped the projection's support changes would still pass.
PRESETS = (
    ("jordan-single", "jordan-single", {}, (True, True, True, False)),
    ("jordan-random", "jordan-random", {}, (True, True, True, False)),
    ("jordan-diagonal", "jordan-diagonal", {}, (True, True, True, False)),
    ("jordan-rescaled", "jordan-rescaled", {}, (True, True, True, False)),
    ("coordination-stabilize", "coordination-stabilize", {}, (True, True, True, False)),
    # the unstable compensator settles on the wrong corner: "converged" to it,
    # far from the best response, and consistent with the unstable verdict
    ("coordination-openloop", "coordination-openloop", {}, (False, True, True, True)),
    (
        "jordan-diagonal-large",
        "jordan-diagonal",
        {"deltas": (0.8831, 0.4259, 0.7546), "horizon": 60.0},
        (False, False, True, True),
    ),
    ("jordan-rescaled-mu5", "jordan-rescaled", {"mu": 5.0, "horizon": 30.0}, (False, False, True, True)),
    ("jordan-rescaled-mu0.1", "jordan-rescaled", {"mu": 0.1, "horizon": 60.0}, (False, False, True, True)),
)
TINY_PRESETS = (PRESETS[3], PRESETS[7])

GENERIC_CFG = gp.SimConfig(step=0.01, horizon=2.0, record_stride=10)
SIMPLEX_TOL = 1e-9


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    flip: Callable[[Any], Any]


@dataclass
class Workload:
    items: list
    # passes every run makes even past --seconds; sets the tail percentile
    min_passes: int
    # extra values read off one pass's outputs (label -> output)
    summarize: Callable[[dict], dict] = lambda outputs: {}


def count_rows(path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def run_cli(argv):
    """gradplay's CLI in-process; returns (exit code, parsed JSON stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gp.cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def own_abscissa(matrix) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(matrix)).real))


def same_abscissa(reported: float, own: float, matrix) -> bool:
    scale = max(1.0, float(np.max(np.abs(matrix))))
    return abs(reported - own) <= 1e-9 * scale


def bracket_problems(crossings, refs) -> list:
    if len(crossings) != len(CROSSINGS):
        return [f"{len(crossings)} crossings, expected {len(CROSSINGS)}"]
    problems = []
    for (lo, hi), paper, own in zip(crossings, CROSSINGS, refs):
        if not (lo <= paper <= hi and lo <= own <= hi):
            problems.append(f"bracket ({lo}, {hi}) misses crossing {paper}")
    return problems


def crossing_error(crossings, refs) -> float:
    return max(abs(0.5 * (lo + hi) - ref) for (lo, hi), ref in zip(crossings, refs))


# ---------------------------------------------------------------------------
# presets


def _preset_item(label, name, overrides, expect, workdir) -> Item:
    out_dir = Path(workdir) / label

    def check(res):
        problems = []
        got = (res.verdict.stable, res.converged, res.consistent, res.diverged)
        if got != expect:
            problems.append(f"(stable, converged, consistent, diverged) = {got}, expected {expect}")
        rows = count_rows(out_dir / "trajectory.csv")
        if rows != res.trajectory.times.size:
            problems.append(f"trajectory.csv has {rows} rows for {res.trajectory.times.size} states")
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        if (report["stable"], report["converged"]) != (res.verdict.stable, res.converged):
            problems.append("report.json disagrees with the result")
        if res.sweep is not None:
            rows = count_rows(out_dir / "rootlocus.csv")
            if rows != sum(ev.size for ev in res.sweep.eigenvalues):
                problems.append(f"rootlocus.csv has {rows} rows")
            problems += bracket_problems(res.sweep.crossings, CROSSINGS)
        return problems

    return Item(
        label=label,
        run=lambda: gp.run_scenario(name, overrides, out_dir=out_dir),
        check=check,
        flip=lambda res: dataclasses.replace(res, converged=not res.converged),
    )


def build_presets(rng, root, workdir, tiny) -> Workload:
    table = TINY_PRESETS if tiny else PRESETS
    items = [_preset_item(*row, workdir) for row in table]
    return Workload(items, min_passes=2)


# ---------------------------------------------------------------------------
# analyze-scaling


def analyze_pipeline(game, profile, specs) -> dict:
    """The `gradplay analyze` report, through the public API."""
    cert = gp.verify_ne(game, profile)
    local = gp.assemble_local_game(game, profile)
    loop = gp.assemble_closed_loop(local, specs)
    verdict = gp.spectral_abscissa(loop.matrix)
    plant = gp.assemble_plant(local)
    out = {
        "cert": cert,
        "loop": loop.matrix,
        "verdict": verdict,
        "pbh": (gp.pbh_stabilizable(plant.A, plant.B), gp.pbh_detectable(plant.A, plant.C)),
        "per_player": [
            (gp.pbh_stabilizable(plant.A, plant.B_blocks[i]), gp.pbh_detectable(plant.A, plant.C_blocks[i]))
            for i in range(game.n)
        ],
        "support": gp.check_mode_support(local),
        "decentralized": gp.decentralized_stabilizable(plant),
        "parity": None,
    }
    if game.n == 2 and game.dims == (2, 2):
        out["parity"] = gp.strong_stabilizability_2x2(game)
    return out


def check_analysis(out) -> list:
    problems = []
    cert = out["cert"]
    if not (cert.is_ne and cert.completely_mixed):
        problems.append("certificate is not a completely mixed equilibrium")
    own = own_abscissa(out["loop"])
    verdict = out["verdict"]
    if not same_abscissa(verdict.spectral_abscissa, own, out["loop"]):
        problems.append(f"spectral_abscissa {verdict.spectral_abscissa} != {own}")
    if verdict.stable != (own < -TOL):
        problems.append("stability verdict disagrees with the spectrum")
    n = len(out["per_player"])
    dec = out["decentralized"]
    stab, det = out["pbh"]
    q_all = sum(1 for f in dec.failures if len(f.input_players) == n)
    r_all = sum(1 for f in dec.failures if len(f.output_players) == n)
    if q_all != len(stab.witnesses) or r_all != len(det.witnesses):
        problems.append("Q=all / R=all partitions disagree with the PBH tests")
    return problems


def _flip_verdict(out):
    out = dict(out)
    out["verdict"] = dataclasses.replace(out["verdict"], stable=not out["verdict"].stable)
    return out


def _cli_analyze_item(root, game_file, specs_file, expect) -> Item:
    data = root / "src" / "gradplay" / "data"
    game_path, specs_path = str(data / game_file), str(data / specs_file)
    game = gp.cli.load_game_file(game_path)
    matrix = inputs.closed_loop_matrix(game, gp.cli.load_specs_file(specs_path, game))
    own = own_abscissa(matrix)

    def check(result):
        code, doc = result
        if doc is None:
            return [f"exit {code} with no report"]
        problems = []
        if code != (0 if own < -TOL else 1):
            problems.append(f"exit code {code}")
        if not same_abscissa(doc["spectral_abscissa"], own, matrix) or doc["stable"] != (own < -TOL):
            problems.append("reported spectrum disagrees with the loop matrix")
        got = (doc["decentralized"]["ok"], None if doc["parity"] is None else doc["parity"]["verdict"])
        if got != expect:
            problems.append(f"(decentralized ok, parity) = {got}, expected {expect}")
        return problems

    def flip(result):
        code, doc = result
        return code, dict(doc, stable=not doc["stable"])

    return Item(
        label=f"cli-analyze-{specs_file.split('.')[0]}",
        run=lambda: run_cli(["analyze", game_path, specs_path]),
        check=check,
        flip=flip,
    )


def build_analyze(rng, root, workdir, tiny) -> Workload:
    cells = inputs.TINY_ANALYZE_CELLS if tiny else inputs.ANALYZE_CELLS
    items = [
        Item(
            label=label,
            run=lambda g=game, p=profile, s=specs: analyze_pipeline(g, p, s),
            check=check_analysis,
            flip=_flip_verdict,
        )
        for label, game, profile, specs in inputs.analyze_games(rng, cells)
    ]
    # every shipped specs file; three CLI items also make the item count odd,
    # so the pooled median falls inside one game's samples, not between two
    items.append(_cli_analyze_item(root, "jordan.game.json", "jordan_single.specs.json", (True, None)))
    items.append(_cli_analyze_item(root, "jordan.game.json", "jordan_rescaled.specs.json", (True, None)))
    items.append(
        _cli_analyze_item(
            root,
            "coordination.game.json",
            "coordination_stabilize.specs.json",
            (True, "not_strongly_stabilizable"),
        )
    )
    return Workload(items, min_passes=4)


# ---------------------------------------------------------------------------
# sweep-probe


def tight_crossings(build_matrix, width=1e-12) -> tuple:
    """The loop's stability crossings by bisection on the benchmark's own spectra."""
    out = []
    for guess in CROSSINGS:
        lo, hi = guess - 1e-3, guess + 1e-3
        f_lo = own_abscissa(build_matrix(lo)) < 0
        if f_lo == (own_abscissa(build_matrix(hi)) < 0):
            raise RuntimeError(f"no stability change around mu = {guess}")
        while hi - lo > width * guess:
            mid = 0.5 * (lo + hi)
            if (own_abscissa(build_matrix(mid)) < 0) == f_lo:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return tuple(out)


def _sweep_item(points, build_matrix, refs) -> Item:
    grid = gp.default_gain_grid(points=points)

    def check(sweep):
        problems = bracket_problems(sweep.crossings, refs)
        for g, ev, ok in zip(sweep.grid, sweep.eigenvalues, sweep.stable):
            if ev.size != 9 or bool(ok) != (float(np.max(ev.real)) < -TOL):
                problems.append(f"spectrum at mu = {g} disagrees with its stability flag")
                break
        return problems

    def flip(sweep):
        stable = sweep.stable.copy()
        stable[0] = not stable[0]
        return dataclasses.replace(sweep, stable=stable)

    return Item(f"sweep-{points}", lambda: gp.gain_sweep(build_matrix, grid), check, flip)


def _cli_sweep_item(specs_path, workdir, refs) -> Item:
    csv_path = str(Path(workdir) / "sweep.csv")
    argv = ["sweep", "jordan", specs_path, "--points", "200", "--out", csv_path]

    def check(result):
        code, doc = result
        if code != 0 or doc is None:
            return [f"exit code {code}"]
        problems = bracket_problems(doc["crossings"], refs)
        rows = count_rows(csv_path)
        if doc["points"] != 200 or rows != 200 * 9:
            problems.append(f"sweep CSV has {rows} rows for {doc['points']} points")
        return problems

    def flip(result):
        code, doc = result
        return code, dict(doc, crossings=[[hi, hi + 1e-4] for lo, hi in doc["crossings"]])

    return Item("cli-sweep-200", lambda: run_cli(argv), check, flip)


def _probe_item(label, game, specs, direction) -> Item:
    def loop_abscissa(delta):
        mats = dict(game.pair_matrices)
        for key, d in direction.items():
            mats[key] = game.pair(*key) + delta * d
        return inputs.closed_loop_abscissa(gp.PolymatrixGame(game.dims, mats), specs)

    def check(res):
        problems = []
        if not loop_abscissa(res.certified_delta) < -TOL:
            problems.append(f"loop unstable at certified delta {res.certified_delta}")
        if res.first_unstable_delta is None:
            if res.certified_delta != res.max_delta:
                problems.append("no unstable scale found, yet certified < max_delta")
        elif not (0 < res.first_unstable_delta - res.certified_delta <= 1e-3):
            problems.append(f"bracket ({res.certified_delta}, {res.first_unstable_delta})")
        elif loop_abscissa(res.first_unstable_delta) < -TOL:
            problems.append(f"loop stable at first unstable delta {res.first_unstable_delta}")
        return problems

    def flip(res):
        if res.first_unstable_delta is None:
            return dataclasses.replace(res, certified_delta=2 * res.max_delta)
        return dataclasses.replace(
            res, certified_delta=res.first_unstable_delta, first_unstable_delta=res.certified_delta
        )

    return Item(label, lambda: gp.robustness_probe(game, specs, direction), check, flip)


def build_sweep_probe(rng, root, workdir, tiny) -> Workload:
    data = root / "src" / "gradplay" / "data"
    jordan = gp.make_jordan(1.0)
    rescaled = gp.cli.load_specs_file(data / "jordan_rescaled.specs.json", jordan)
    uniform = gp.uniform_profile(jordan)

    def build_matrix(mu):
        return gp.assemble_closed_loop(gp.assemble_local_game(gp.make_jordan(mu), uniform), rescaled).matrix

    refs = tight_crossings(build_matrix)
    items = [_sweep_item(points, build_matrix, refs) for points in ((200,) if tiny else (200, 2000))]
    items.append(_cli_sweep_item(str(data / "jordan_rescaled.specs.json"), workdir, refs))
    single = gp.cli.load_specs_file(data / "jordan_single.specs.json", jordan)
    n_jordan, n_random = (2, 1) if tiny else (48, 24)
    for idx in range(n_jordan):
        items.append(_probe_item(f"probe-jordan-{idx}", jordan, single, inputs.probe_direction(rng, jordan)))
    for idx, (label, game, profile, specs) in enumerate(inputs.probe_games(rng, n_random)):
        items.append(_probe_item(f"probe-{label}-{idx}", game, specs, inputs.probe_direction(rng, game)))

    def summarize(outputs):
        errs = []
        for label, out in outputs.items():
            if label.startswith("sweep-"):
                errs.append(crossing_error(out.crossings, refs))
            elif label.startswith("cli-sweep"):
                errs.append(crossing_error(out[1]["crossings"], refs))
        return {"crossing_err": max(errs)}

    return Workload(items, min_passes=8, summarize=summarize)


# ---------------------------------------------------------------------------
# generic-rules


def check_on_simplex(traj) -> list:
    expected = int(round(GENERIC_CFG.horizon / GENERIC_CFG.step)) // GENERIC_CFG.record_stride + 1
    if traj.times.size != expected:
        return [f"{traj.times.size} recorded states, expected {expected}"]
    if not np.all(np.isfinite(traj.states)):
        return ["nonfinite state"]
    worst = 0.0
    for i in range(traj.layout.n):
        x = traj.strategy(i)
        worst = max(worst, float(-np.min(x)), float(np.max(np.abs(np.sum(x, axis=1) - 1.0))))
    return [] if worst <= SIMPLEX_TOL else [f"state leaves the simplex by {worst:.3g}"]


def _off_simplex(traj):
    states = traj.states.copy()
    states[-1, 0] += 1e-6
    return dataclasses.replace(traj, states=states)


def build_generic(rng, root, workdir, tiny) -> Workload:
    cells = inputs.TINY_GENERIC_CELLS if tiny else inputs.GENERIC_CELLS
    items = [
        Item(
            label=label,
            run=lambda g=game, s=specs, x=init: gp.simulate_coupled(g, s, x, GENERIC_CFG),
            check=check_on_simplex,
            flip=_off_simplex,
        )
        for label, game, specs, init in inputs.generic_runs(rng, cells)
    ]
    return Workload(items, min_passes=8)


FACTORIES = {
    "presets": build_presets,
    "analyze-scaling": build_analyze,
    "sweep-probe": build_sweep_probe,
    "generic-rules": build_generic,
}


def build(name, seed, root, workdir, tiny=False) -> Workload:
    """Generate the workload's inputs from the seed and wrap them as items."""
    rng = np.random.default_rng(seed)
    return FACTORIES[name](rng, Path(root), Path(workdir), tiny)
