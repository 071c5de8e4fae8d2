"""gradplay benchmark: end-to-end and per-layer timings of four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload presets --seed 1 --seconds 15 --trace 0

Workloads: presets, analyze-scaling, sweep-probe, generic-rules (README.md in
this directory says what each stresses).  The program is imported from ./src
in one single-threaded process, with BLAS pinned to one thread.  Passes over
the workload's items repeat until --seconds is used up (and at least the
workload's minimum number of passes has run); every item's output goes
through its correctness gate after the pass.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the first half of the time runs untraced, the second half with
every public gradplay function wrapped, and the last line carries the
per-layer metrics.  Either way it is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: OpenBLAS would otherwise start one
# thread per core for every 7x7 eigenvalue problem.
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("presets", "analyze-scaling", "sweep-probe", "generic-rules")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, then print the wall-clock time at which the first call would start",
    )
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def locate_source() -> Path:
    """The checkout's gradplay sources; the benchmark builds nothing else."""
    src = ROOT / "src"
    if not (src / "gradplay" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradplay sources under {src}; run from a full checkout")
    return src


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tail_percentile(n_guaranteed: int):
    """Highest whole percentile with at least 10 of n samples beyond it.

    None below p90 (fewer than 100 samples), where such a percentile says
    little about the tail; the slowest item's median stands in for it then.
    """
    pct = math.floor(100.0 * (1.0 - 10.0 / n_guaranteed))
    return pct if pct >= 90 else None


class PassLog:
    """Item intervals and gate results of a sequence of passes."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.passes = []  # per pass: [(label, start, end)]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = {}
        self.summary = {}

    def times(self, sampler, passes=slice(None)) -> dict:
        """Measured and scaled item times and pass walls.

        A measured time excludes the kernel runs that interrupted the item;
        a pass's wall is the sum of its item times, so gating stays outside.
        """
        out = {
            "item_s": {label: [] for label in self.labels},
            "item_n": {label: [] for label in self.labels},
            "walls": [],
            "walls_n": [],
        }
        for intervals in self.passes[passes]:
            wall = wall_n = 0.0
            for label, t0, t1 in intervals:
                inside, scale = sampler.scale(t0, t1)
                measured = t1 - t0 - inside
                out["item_s"][label].append(measured)
                out["item_n"][label].append(measured * scale)
                wall += measured
                wall_n += measured * scale
            out["walls"].append(wall)
            out["walls_n"].append(wall_n)
        return out


def run_passes(wl, log, budget_s, min_passes, tracer=None):
    """Timed passes until the budget is spent; each pass is gated untimed."""
    start = time.perf_counter()
    passes = 0
    clock = time.perf_counter
    while True:
        if tracer is not None:
            tracer.start_pass()
        outputs, errors, intervals = {}, {}, []
        for item in wl.items:
            t0 = clock()
            try:
                outputs[item.label] = item.run()
            except Exception:  # an item that raises is counted as failed
                errors[item.label] = traceback.format_exc(limit=3)
            intervals.append((item.label, t0, clock()))
        if tracer is not None:
            # spans include the kernel runs that interrupted them, so the
            # traced wall does too
            tracer.end_pass(sum(t1 - t0 for _, t0, t1 in intervals))
        log.passes.append(intervals)
        passes += 1
        for item in wl.items:
            log.attempted += 1
            if item.label in errors:
                problems = [errors[item.label]]
            else:
                problems = item.check(outputs[item.label])
            if problems:
                log.failed += 1
                log.problems.append((item.label, problems))
        if not errors:
            log.summary = wl.summarize(outputs)
        log.outputs = outputs
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed + elapsed / passes > budget_s:
            return


def gate_self_check(wl, outputs):
    """Feed every gate a corrupted output; returns the labels whose gate let it pass."""
    return [
        item.label
        for item in wl.items
        if item.label in outputs and not item.check(item.flip(outputs[item.label]))
    ]


def setup_samples(args) -> list:
    """Set-up time of fresh processes, scaled by the kernel runs meanwhile.

    Each sample runs from spawn through imports, data loading and input
    generation up to where the first timed call would start.  The kernel
    runs in this process while the child works, on the other core.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    spans = []
    with speed.Sampler() as sampler:
        for _ in range(SETUP_SAMPLES):
            t0, c0 = time.time(), time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
            )
            ready = float(proc.stdout.strip().splitlines()[-1])
            spans.append((ready - t0, c0, c0 + (ready - t0)))
    return [measured * sampler.scale(c0, c1)[1] for measured, c0, c1 in spans]


def timing_stats(wl, item_times, walls) -> dict:
    samples = sorted(s for vals in item_times.values() for s in vals)
    pct = tail_percentile(len(wl.items) * wl.min_passes)
    if pct is None:
        tail = max(statistics.median(vals) for vals in item_times.values())
    else:
        tail = float(np.percentile(samples, pct))
    return {
        "wall_s": statistics.median(walls),
        "item_p50_ms": statistics.median(samples) * 1e3,
        "item_tail_ms": tail * 1e3,
        "tail_label": "slowest item's median" if pct is None else f"p{pct}",
        "samples": len(samples),
        "beyond": sum(1 for s in samples if s > tail),
    }


def e2e_metrics(wl, times, setup) -> tuple:
    """End-to-end metrics from the scaled times, and a note on the tail percentile."""
    t = timing_stats(wl, times["item_n"], times["walls_n"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (t["wall_s"], "s"),
        "item_p50_ms": (t["item_p50_ms"], "ms"),
        "item_tail_ms": (t["item_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = f"{t['tail_label']} of {t['samples']} item samples, {t['beyond']} beyond"
    return metrics, note


def print_unscaled(wl, times, sampler):
    t = timing_stats(wl, times["item_s"], times["walls"])
    print(
        f"measured, unscaled: wall_s {t['wall_s']:.6g} s, item_p50_ms {t['item_p50_ms']:.6g} ms, "
        f"item_tail_ms {t['item_tail_ms']:.6g} ms; reference kernel median "
        f"{statistics.median(sampler.durations) * 1e3:.4g} ms over {len(sampler.durations)} runs "
        f"(REF {speed.REF_S * 1e3:.4g} ms)"
    )


def layer_results(tracer, log, overhead_frac) -> dict:
    """The tracer's per-layer metrics plus the sweeps' crossing error."""
    metrics = tracer.metrics(overhead_frac)
    metrics["analysis.crossing_err"] = (log.summary.get("crossing_err", 0.0), "mu")
    return metrics


def print_items(times):
    print("item medians in ms (scaled, measured, samples):")
    for label, vals in times["item_n"].items():
        measured = statistics.median(times["item_s"][label])
        print(f"  {label:28s} {statistics.median(vals) * 1e3:11.3f} {measured * 1e3:11.3f}  n={len(vals)}")


def measure_traced(args, wl, log, sampler, gradplay):
    """Untraced passes, then traced ones; returns the per-layer metrics."""
    from tracer import LAYERS, Tracer

    run_passes(wl, log, args.seconds / 2.0, 1)
    untraced = len(log.passes)
    tracer = Tracer(gradplay)
    tracer.install()
    try:
        run_passes(wl, log, args.seconds / 2.0, 1, tracer)
    finally:
        tracer.uninstall()
    before = statistics.median(log.times(sampler, slice(None, untraced))["walls_n"])
    after = statistics.median(log.times(sampler, slice(untraced, None))["walls_n"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path)
    metrics = layer_results(tracer, log, after / before - 1.0)
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    unattributed = metrics["trace.unattributed_s"][0]
    print(
        f"traced passes: {len(tracer.walls)}; layer self times {layer_sum:.6f} s + "
        f"unattributed {unattributed:.6f} s = {layer_sum + unattributed:.6f} s "
        f"(traced pass wall {metrics['trace.wall_s'][0]:.6f} s, per pass); spans in {spans_path.name}"
    )
    print(
        "per-layer times are measured, not scaled; simulate.step_us is computed: "
        "simulate self time / configured RK4 steps"
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(locate_source()))
    import scipy

    import gradplay
    import gradplay.cli  # noqa: F401  (bound as gradplay.cli for the items)
    import workloads

    workdir = HERE / "_work" / f"run-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        if args.setup_probe:
            print(repr(time.time()))
            return 0
        workdir.mkdir(parents=True)
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "gradplay": gradplay.__version__,
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_pin": THREAD_PIN,
            "items": len(wl.items),
            "min_passes": wl.min_passes,
        }
        print("provenance: " + json.dumps(provenance), flush=True)
        log = PassLog([item.label for item in wl.items])
        with speed.Sampler() as sampler:
            if args.trace:
                metrics = measure_traced(args, wl, log, sampler, gradplay)
            else:
                run_passes(wl, log, float(args.seconds), wl.min_passes)
        times = log.times(sampler)
        if not args.trace:
            metrics, note = e2e_metrics(wl, times, setup_samples(args))
            print(f"item_tail_ms is the {note}")
            print_unscaled(wl, times, sampler)
            if "crossing_err" in log.summary:
                print(
                    f"crossing_err {log.summary['crossing_err']:.6g} mu "
                    "(max |bracket midpoint - reference crossing|)"
                )
        print_items(times)
        leaked = gate_self_check(wl, log.outputs)
        print(
            f"gate self-check: {len(log.outputs) - len(leaked)}/{len(log.outputs)} corrupted outputs rejected"
            + (f"; accepted: {leaked}" if leaked else "")
        )
        for label, problems in log.problems[:20]:
            print(f"FAILED {label}: {problems}")
        print(f"fail_frac {log.failed / log.attempted:.6g} ratio ({log.failed}/{log.attempted} items)")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        result = {
            "correct": log.failed == 0 and not leaked and bool(log.outputs),
            "attempted": log.attempted,
            "failed": log.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
