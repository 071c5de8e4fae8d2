"""Span tracing of gradplay's public functions, installed from outside the package.

Every public function (a plain function named in a module's __all__) of the
traced modules is replaced by a wrapper at every module that binds it, so a
call through cli.gain_sweep, simulate.spectral_abscissa or
dynamics.project_to_simplex is recorded the same way as a direct call.
Spans (function, parent span, start, end, ok) are kept in memory; the
per-layer numbers are folded from them after each pass, and the spans of the
first traced pass are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("games", "simplex", "dynamics", "linearize", "analysis", "simulate", "cli")


def _arg(sig, args, kwargs, name):
    return sig.bind_partial(*args, **kwargs).arguments.get(name)


def _steps_hook(sig, default_cfg):
    def hook(args, kwargs, result):
        cfg = _arg(sig, args, kwargs, "cfg") or default_cfg
        return max(1, int(round(cfg.horizon / cfg.step)))

    return hook


def _bytes_hook(sig):
    def hook(args, kwargs, result):
        return os.path.getsize(_arg(sig, args, kwargs, "path"))

    return hook


def _grid_hook(sig):
    def hook(args, kwargs, result):
        return int(np.asarray(_arg(sig, args, kwargs, "grid")).size)

    return hook


def _failures_hook(args, kwargs, result):
    return len(result.failures)


class Tracer:
    """Wraps gradplay's public functions and folds spans into layer totals."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.names = []  # function id -> "module.function"
        self.hooks = {}  # function id -> hook(args, kwargs, result) -> number
        self.originals = {}  # original function -> function id
        self.patched = []  # (module, attribute, original)
        self.spans = []
        self.extras = {}
        self.recording = False
        self.stack = [-1]
        self.saved = None
        self.totals = defaultdict(float)
        self.walls = []
        for module in self.modules:
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    fid = len(self.names)
                    self.names.append(f"{module.__name__.rsplit('.', 1)[-1]}.{fn.__name__}")
                    self.originals[fn] = fid
                    hook = self._hook_for(fn)
                    if hook is not None:
                        self.hooks[fid] = hook

    def _hook_for(self, fn):
        sig = inspect.signature(fn)
        name = fn.__name__
        if name in ("simulate_coupled", "simulate_open_loop"):
            return _steps_hook(sig, self.package.SimConfig())
        if name.startswith("write_") and name.endswith("_csv"):
            return _bytes_hook(sig)
        if name == "gain_sweep":
            return _grid_hook(sig)
        if name == "decentralized_stabilizable":
            return _failures_hook
        return None

    def _wrap(self, fn, fid):
        spans = self.spans
        hook = self.hooks.get(fid)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = tracer.stack[-1]
            tracer.stack.append(idx)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                tracer.stack.pop()
                spans[idx] = (fid, parent, t0, t1, ok)
            if hook is not None:
                tracer.extras[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every binding of a public function, in every traced module."""
        wrappers = {fn: self._wrap(fn, fid) for fn, fid in self.originals.items()}
        for module in [self.package] + self.modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self.patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self.patched):
            setattr(module, attr, value)
        self.patched.clear()

    def start_pass(self):
        self.spans.clear()
        self.extras.clear()
        self.stack = [-1]
        self.recording = True

    def end_pass(self, wall_s: float):
        """Stop recording and fold this pass's spans into the running totals."""
        self.recording = False
        self.walls.append(wall_s)
        if self.saved is None:
            self.saved = list(self.spans)
        _fold(self.names, self.spans, self.extras, self.totals)

    def write_spans(self, path):
        """Spans of the first traced pass as gzipped CSV (times in ns from its start)."""
        spans = self.saved or []
        base = min((s[2] for s in spans), default=0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,ok\n")
            for idx, (fid, parent, t0, t1, ok) in enumerate(spans):
                fh.write(f"{idx},{parent},{self.names[fid]},{t0 - base},{t1 - base},{int(ok)}\n")

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer metrics, per traced pass: name -> (value, unit).

        Totals are divided by the number of traced passes, so layer self
        times plus unattributed time add up to the mean traced pass wall.
        """
        return layer_metrics(self.totals, self.walls, overhead_frac)


# Spans whose descendants are counted as that call's evaluations or rank tests.
_UNDER = {
    "analysis.gain_sweep": ("linearize.assemble_closed_loop", "sweep_evals"),
    "analysis.robustness_probe": ("linearize.assemble_closed_loop", "probe_evals"),
    "analysis.decentralized_stabilizable": ("analysis.robust_rank", "rank_tests"),
}


def _fold(names, spans, extras, totals):
    n = len(spans)
    cover = [0] * n
    for fid, parent, t0, t1, ok in spans:
        if parent >= 0:
            cover[parent] += t1 - t0
    top = 0
    for idx, (fid, parent, t0, t1, ok) in enumerate(spans):
        name = names[fid]
        layer = name.split(".", 1)[0]
        dur = t1 - t0
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_ns"] += dur - cover[idx]
        totals[f"{layer}.errors"] += not ok
        totals[f"{name}#calls"] += 1
        totals[f"{name}#ns"] += dur
        if idx in extras:
            totals[f"{name}#extra"] += extras[idx]
        if parent < 0:
            top += dur
        else:
            anc = parent
            while anc >= 0:
                rule = _UNDER.get(names[spans[anc][0]])
                if rule is not None and rule[0] == name:
                    totals[rule[1]] += 1
                anc = spans[anc][1]
    totals["top_ns"] += top
    totals["spans"] += n


def layer_metrics(totals, walls, overhead_frac) -> dict:
    per = max(len(walls), 1)
    wall_s = sum(walls)

    def calls(*fns):
        return sum(totals[f"{f}#calls"] for f in fns) / per

    def mean_us(*fns):
        c = sum(totals[f"{f}#calls"] for f in fns)
        return sum(totals[f"{f}#ns"] for f in fns) / c / 1e3 if c else 0.0

    def total_s(*fns):
        return sum(totals[f"{f}#ns"] for f in fns) / 1e9 / per

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (totals[f"{layer}.calls"] / per, "count")
        out[f"{layer}.self_s"] = (totals[f"{layer}.self_ns"] / 1e9 / per, "s")
        out[f"{layer}.errors"] = (totals[f"{layer}.errors"] / per, "count")
    sim = ("simulate.simulate_coupled", "simulate.simulate_open_loop")
    steps = sum(totals[f"{f}#extra"] for f in sim) / per
    grid_points = totals["analysis.gain_sweep#extra"]
    sweep_evals = totals["sweep_evals"]
    pbh = ("analysis.pbh_stabilizable", "analysis.pbh_detectable")
    writers = ("cli.write_matrix_csv", "cli.write_trajectory_csv", "cli.write_sweep_csv")
    out.update(
        {
            "simulate.steps": (steps, "count"),
            "simulate.step_us": (ratio(out["simulate.self_s"][0], steps) * 1e6, "us"),
            "dynamics.derivative_calls": (calls("dynamics.derivative"), "count"),
            "dynamics.derivative_us": (mean_us("dynamics.derivative"), "us"),
            "simplex.project_calls": (calls("simplex.project_to_simplex"), "count"),
            "simplex.project_us": (mean_us("simplex.project_to_simplex"), "us"),
            "linearize.local_calls": (calls("linearize.assemble_local_game"), "count"),
            "linearize.local_us": (mean_us("linearize.assemble_local_game"), "us"),
            "linearize.closed_loop_calls": (calls("linearize.assemble_closed_loop"), "count"),
            "linearize.closed_loop_us": (mean_us("linearize.assemble_closed_loop"), "us"),
            "linearize.plant_calls": (calls("linearize.assemble_plant"), "count"),
            "linearize.plant_us": (mean_us("linearize.assemble_plant"), "us"),
            "analysis.spectrum_calls": (calls("analysis.spectral_abscissa"), "count"),
            "analysis.spectrum_us": (mean_us("analysis.spectral_abscissa"), "us"),
            "analysis.pbh_calls": (calls(*pbh), "count"),
            "analysis.pbh_us": (mean_us(*pbh), "us"),
            "analysis.mode_support_us": (mean_us("analysis.check_mode_support"), "us"),
            "analysis.decentralized_s": (total_s("analysis.decentralized_stabilizable"), "s"),
            "analysis.rank_calls": (calls("analysis.robust_rank"), "count"),
            "analysis.fixed_mode_frac": (
                ratio(totals["analysis.decentralized_stabilizable#extra"], totals["rank_tests"]),
                "ratio",
            ),
            "analysis.sweep_s": (total_s("analysis.gain_sweep"), "s"),
            "analysis.sweep_evals": (sweep_evals / per, "count"),
            "analysis.sweep_refine_frac": (
                ratio(max(sweep_evals - grid_points, 0), sweep_evals),
                "ratio",
            ),
            "analysis.probe_s": (total_s("analysis.robustness_probe"), "s"),
            "analysis.probe_evals": (totals["probe_evals"] / per, "count"),
            "games.verify_ne_calls": (calls("games.verify_ne"), "count"),
            "games.verify_ne_us": (mean_us("games.verify_ne"), "us"),
            "cli.emit_s": (total_s(*writers), "s"),
            "cli.bytes_written": (sum(totals[f"{f}#extra"] for f in writers) / per, "bytes"),
            "trace.wall_s": (wall_s / per, "s"),
            "trace.unattributed_s": ((wall_s - totals["top_ns"] / 1e9) / per, "s"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
            "trace.spans": (totals["spans"] / per, "count"),
        }
    )
    return out
