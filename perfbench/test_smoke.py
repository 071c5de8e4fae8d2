"""Smoke tests of the benchmark itself at tiny sizes.

Run with `python3 -m pytest perfbench -q` from the repository root.  They sit
outside the package's test paths, so the regular suite does not collect them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import gradplay  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_gate_passes_and_trips(name, tmp_path):
    wl = workloads.build(name, seed=3, root=ROOT, workdir=tmp_path, tiny=True)
    log = run.PassLog([item.label for item in wl.items])
    run.run_passes(wl, log, budget_s=0.0, min_passes=1)
    assert log.problems == [] and log.failed == 0 and log.attempted == len(wl.items)
    assert run.gate_self_check(wl, log.outputs) == []


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("sweep-probe", seed=5, root=ROOT, workdir=tmp_path, tiny=True)
    b = workloads.build("sweep-probe", seed=5, root=ROOT, workdir=tmp_path, tiny=True)
    ra, rb = (
        [item.run() for item in wl.items if item.label.startswith("probe-")] for wl in (a, b)
    )
    assert [r.certified_delta for r in ra] == [r.certified_delta for r in rb]


def test_end_to_end_metric_names(tmp_path):
    wl = workloads.build("generic-rules", seed=1, root=ROOT, workdir=tmp_path, tiny=True)
    log = run.PassLog([item.label for item in wl.items])
    with speed.Sampler() as sampler:
        run.run_passes(wl, log, budget_s=0.0, min_passes=2)
    times = log.times(sampler)
    assert sampler.durations
    # interrupted items lose the kernel's time; scaling keeps every sample positive
    for label in log.labels:
        assert all(0 < s for s in times["item_s"][label] + times["item_n"][label])
    metrics, _ = run.e2e_metrics(wl, times, [0.5, 0.4, 0.6])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (k, metrics[k][1]) for k in (m["name"] for m in SPEC["end_to_end"])
    ]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_pass_metric_names_and_accounting(tmp_path):
    wl = workloads.build("sweep-probe", seed=1, root=ROOT, workdir=tmp_path, tiny=True)
    log = run.PassLog([item.label for item in wl.items])
    tr = tracer.Tracer(gradplay)
    tr.install()
    try:
        run.run_passes(wl, log, budget_s=0.0, min_passes=1, tracer=tr)
    finally:
        tr.uninstall()
    assert not hasattr(gradplay.analysis.gain_sweep, "__wrapped__")
    assert not hasattr(gradplay.cli.gain_sweep, "__wrapped__")
    metrics = run.layer_results(tr, log, overhead_frac=0.1)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (k, metrics[k][1]) for k in (m["name"] for m in SPEC["per_layer"])
    ]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert layers + metrics["trace.unattributed_s"][0] == pytest.approx(metrics["trace.wall_s"][0])
    # the CLI sweep and both public sweeps are counted, each through its own binding
    assert metrics["analysis.sweep_evals"][0] > 400 and 0 < metrics["analysis.sweep_refine_frac"][0] < 0.2
    assert metrics["cli.bytes_written"][0] > 0 and metrics["analysis.probe_evals"][0] > 0
    assert 0 < metrics["analysis.crossing_err"][0] < 1e-4
    assert metrics["analysis.errors"][0] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
