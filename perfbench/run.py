"""Repository benchmark: end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_grid --seed 42 \\
        --seconds 30 --trace 0

One process generates all load (no pool, no threads, ``jobs=1``). The
run repeats whole *passes* of the workload (see
``perfbench/workloads.py``) until ``--seconds`` have elapsed and reports
medians over passes. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends the first half of the time untraced and the second
half with every layer wrapped in spans (``perfbench/tracing.py``), and
reports the per-layer split. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Set-up time is measured in fresh interpreters (``--setup-sample``),
several per run, because a user pays imports and warm-ups on every CLI
run. ``--record-reference`` re-records the per-cell digests in
``perfbench/reference.json`` at each grid's own seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

FUSED_NOTE = ("paper_grid runs on the fused batched engine: only calls "
              "that leave it (scheme hooks, strict's persist_branch "
              "chain, MAC-cache misses) appear as spans; mem.access, "
              "crypto.* and most sim.* calls are inlined and invisible")


def _fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def _environment() -> Dict[str, str]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def _setup_sample(workload: str, seed: Optional[int]) -> float:
    """Set-up time of ``workload`` in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--setup-sample"]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError("set-up sample failed: %s"
                           % done.stderr.strip()[-500:])
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _measure(bench, seconds: float, trace: bool) -> Dict:
    """Run passes for ``seconds``; return timings, passes and spans."""
    from perfbench import tracing

    walls: List[float] = []
    passes = []
    refs: List[int] = []
    splits = []
    kept_spans = None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        recorder = tracing.SpanRecorder() if trace else None
        with tracing.instrument(recorder):
            started = time.perf_counter()
            if recorder is not None:
                root = recorder.open(recorder.name_id(tracing.ROOT_SPAN))
            raw = bench.run_pass()
            if recorder is not None:
                recorder.close(root)
            wall = time.perf_counter() - started
        walls.append(wall)
        refs.append(bench.count_refs(raw))
        passes.append(bench.collect(raw))
        if recorder is not None:
            splits.append((wall, recorder.split(), dict(recorder.counts),
                           len(recorder)))
            if kept_spans is None:
                kept_spans = recorder
    return {"walls": walls, "passes": passes, "refs": refs,
            "splits": splits, "spans": kept_spans}


def _check(bench, passes) -> Dict:
    """Count failed cells over every pass of the run."""
    from perfbench.workloads import check_cells

    expected = bench.reference()
    seen: Dict[str, str] = {}
    attempted = failed = 0
    bad_labels = set()
    for current in passes:
        bad = check_cells(current, expected, seen)
        attempted += len(current.cells)
        failed += len(bad)
        bad_labels |= bad
    return {"attempted": attempted, "failed": failed,
            "bad": sorted(bad_labels)[:20],
            "reference": expected is not None}


def end_to_end(run: Dict, setup_samples: List[float],
               checked: Dict) -> Dict[str, Dict]:
    cells = len(run["passes"][0].cells)
    rates = [cells / wall for wall in run["walls"]]
    refs = [n / wall for n, wall in zip(run["refs"], run["walls"])]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "cells_per_s": {"value": _median(rates), "unit": "cells/s"},
        "refs_per_s": {"value": _median(refs), "unit": "refs/s"},
        "setup_s": {"value": _median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "pass_frac": {
            "value": 1.0 - checked["failed"] / checked["attempted"],
            "unit": "frac"},
    }


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, Dict]:
    """Per-layer metrics: calls and self seconds per pass (medians)."""
    from perfbench import tracing
    from perfbench.workloads import MEM_COUNTERS, MODELLED

    metrics: Dict[str, Dict] = {}
    splits = traced["splits"]
    for name in tracing.SPAN_NAMES:
        calls = [split.get(name, (0, 0.0))[0] for _, split, _, _ in splits]
        self_s = [split.get(name, (0, 0.0))[1] for _, split, _, _ in splits]
        metrics[name + ".calls"] = {"value": calls[0], "unit": "count"}
        metrics[name + ".self_s"] = {"value": _median(self_s), "unit": "s"}
    for layer in tracing.LAYERS:
        shares = [
            sum(s for name, (_, s) in split.items()
                if name.startswith(layer + ".")) / wall
            for wall, split, _, _ in splits
        ]
        metrics[layer + ".share"] = {"value": _median(shares),
                                     "unit": "frac"}
    remainder = [split[tracing.ROOT_SPAN][1] / wall
                 for wall, split, _, _ in splits]
    closure = [abs(wall - sum(s for _, s in split.values())) / wall
               for wall, split, _, _ in splits]
    metrics["trace.untraced_share"] = {"value": _median(remainder),
                                       "unit": "frac"}
    metrics["trace.closure_err"] = {"value": max(closure), "unit": "frac"}
    metrics["trace.spans"] = {"value": splits[0][3], "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": _median([w for w, _, _, _ in splits])
        / _median(untraced["walls"]) - 1.0,
        "unit": "frac"}
    for name in tracing.COUNTERS:
        metrics[name] = {"value": splits[0][2][name], "unit": "count"}
    first = untraced["passes"][0]
    for name in MEM_COUNTERS:
        metrics[name] = {"value": first.counters.get(name, 0),
                         "unit": "frac" if name.endswith("ratio")
                         else "count"}
    for name in MODELLED:
        metrics[name] = {"value": first.modelled.get(name, 0.0),
                         "unit": "ratio"}
    return metrics


def manifest_names(trace: bool) -> Optional[List[str]]:
    """Metric names ``BENCHMARK.json`` declares for this mode, if any."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    manifest = json.loads(path.read_text())
    return [entry["name"]
            for entry in manifest["per_layer" if trace else "end_to_end"]]


def _report(bench, metrics: Dict, checked: Dict, run: Dict,
            env: Dict, trace: bool) -> None:
    """Human-readable lines before the final JSON line."""
    print("perfbench %s seed=%d passes=%d python=%s numpy=%s" % (
        bench.name, bench.seed, len(run["walls"]), env["python"],
        env["numpy"]))
    failed_frac = checked["failed"] / checked["attempted"]
    print("  %-28s %14.6g %s" % ("failed_frac", failed_frac, "frac"))
    for name, entry in metrics.items():
        if trace and name.endswith(".calls") and not entry["value"]:
            continue
        print("  %-28s %14.6g %s" % (name, entry["value"], entry["unit"]))
    if not trace:
        for name, value in run["passes"][0].modelled.items():
            print("  %-28s %14.6g %s" % (name, value, "ratio"))
    if bench.name == "paper_grid" and trace:
        print("note: " + FUSED_NOTE)
    if checked["bad"]:
        print("failed cells: " + ", ".join(checked["bad"]))
    if not checked["reference"]:
        print("note: seed %d has no recorded digests; checked orderings "
              "and pass-to-pass agreement only" % bench.seed)


def record_reference() -> int:
    """Re-record per-cell digests for every workload's grid seed."""
    from perfbench.workloads import REFERENCE_FILE, WORKLOADS

    reference = {}
    for name, cls in WORKLOADS.items():
        bench = cls(ROOT, None, OUT_DIR)
        bench.setup()
        cells: Dict[str, str] = {}
        for _ in range(bench.distinct_passes):
            current = bench.collect(bench.run_pass())
            if current.failed:
                return _fail("%s: cells failed their checks: %s"
                             % (name, sorted(current.failed)))
            cells.update(current.digests())
        reference[name] = {"seed": bench.seed, "cells": cells}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1,
                                         sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper_grid")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the grid's seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "grids").is_dir():
        return _fail("no src/repro or grids/ next to %s; run from a "
                     "checkout of the repository" % Path(__file__).parent)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()

    started = time.perf_counter()
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _fail("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    bench = WORKLOADS[args.workload](ROOT, args.seed, OUT_DIR)
    bench.setup()
    if args.setup_sample:
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0

    setup_samples = [] if args.trace else [
        _setup_sample(bench.name, args.seed) for _ in range(SETUP_SAMPLES)]
    env = _environment()
    if args.trace:
        untraced = _measure(bench, args.seconds / 2, trace=False)
        traced = _measure(bench, args.seconds / 2, trace=True)
        checked = _check(bench, untraced["passes"] + traced["passes"])
        metrics = per_layer(untraced, traced)
        correct = (checked["failed"] == 0
                   and metrics["trace.closure_err"]["value"] < 1e-4)
        run = traced
        traced["spans"].write(
            OUT_DIR / ("spans-%s-%d.bin" % (bench.name, bench.seed)))
    else:
        run = _measure(bench, args.seconds, trace=False)
        checked = _check(bench, run["passes"])
        metrics = end_to_end(run, setup_samples, checked)
        correct = checked["failed"] == 0
    declared = manifest_names(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        return _fail("reported metrics differ from BENCHMARK.json: %s"
                     % sorted(set(declared) ^ set(metrics)))
    _report(bench, metrics, checked, run, env, bool(args.trace))
    record = {"workload": bench.name, "seed": bench.seed,
              "trace": args.trace, "env": env, "walls": run["walls"],
              "setup_samples": setup_samples, "checks": checked,
              "modelled": run["passes"][0].modelled, "metrics": metrics}
    if bench.name == "paper_grid" and args.trace:
        record["note"] = FUSED_NOTE
    (OUT_DIR / ("run-%s-%d-trace%d.json" % (
        bench.name, bench.seed, args.trace))).write_text(
            json.dumps(record, indent=1))
    print(json.dumps({"correct": correct,
                      "attempted": checked["attempted"],
                      "failed": checked["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
