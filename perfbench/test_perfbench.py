"""Tests of the benchmark harness itself.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import tracing
from perfbench.workloads import PaperGrid, batch_guard, check_cells

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small_paper(tmp_path):
    """``paper_grid`` cut to the three cells of one workload's ordering
    check, at the grid's seed (so the recorded digests apply)."""
    bench = PaperGrid(ROOT, None, tmp_path)
    bench.grid["workloads"] = ["array"]
    bench.setup()
    bench.cells = [cell for cell in bench.cells
                   if cell[0] in ("wb", "anubis", "star")]
    return bench


def test_reference_digests_match(small_paper):
    current = small_paper.collect(small_paper.run_pass())
    assert [label for label, _ in current.cells] == [
        "wb/array", "anubis/array", "star/array"]
    assert check_cells(current, small_paper.reference(), {}) == set()


def test_perturbed_counter_is_caught(small_paper):
    current = small_paper.collect(small_paper.run_pass())
    seen = {}
    assert check_cells(current, None, seen) == set()
    label, payload = current.cells[2]
    payload["stats"]["nvm.meta_writes"] += 1
    # caught against the recorded reference and against an earlier pass
    assert check_cells(current, small_paper.reference(), {}) == {label}
    assert check_cells(current, None, seen) == {label}


def test_ordering_violation_fails_the_cell(small_paper):
    results, batched = small_paper.run_pass()
    star, anubis = results[2], results[1]
    star.stats["nvm.data_writes"] = anubis.nvm_writes + 1
    assert "star/array" in small_paper.collect((results, batched)).failed


def test_batch_guard_sees_scalar_fallback():
    from repro.bench.runner import config_for_scale, run_one

    with batch_guard() as batched:
        run_one(config_for_scale("smoke"), "wb", "array", 20, batch=True)
        run_one(config_for_scale("smoke"), "wb", "array", 20, batch=None)
    assert batched == [True, False]


def _nested_calls():
    from repro.bench.runner import config_for_scale, run_one

    run_one(config_for_scale("smoke"), "strict", "hash", 40, batch=True)


def test_self_times_close_on_wall_time():
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        started = time.perf_counter()
        root = recorder.open(recorder.name_id(tracing.ROOT_SPAN))
        _nested_calls()
        recorder.close(root)
        wall = time.perf_counter() - started
    split = recorder.split()
    assert split["tree.node_mac"][0] > 0
    assert split["sim.persist_branch"][0] > 0
    total = sum(self_s for _, self_s in split.values())
    assert abs(wall - total) < 1e-3
    assert all(self_s >= 0 for _, self_s in split.values())


def test_self_time_subtracts_children_only():
    recorder = tracing.SpanRecorder()
    outer, inner = recorder.name_id("a.outer"), recorder.name_id("b.inner")
    o = recorder.open(outer)
    for _ in range(2):
        i = recorder.open(inner)
        tracing.busy_wait(0.002)
        recorder.close(i)
    tracing.busy_wait(0.003)
    recorder.close(o)
    split = recorder.split()
    assert split["b.inner"][0] == 2
    inner_s = split["b.inner"][1]
    outer_s = split["a.outer"][1]
    assert inner_s >= 0.004 and outer_s >= 0.003
    duration = recorder.end[o] - recorder.start[o]
    assert outer_s == pytest.approx(duration - inner_s, abs=1e-12)


def test_instrument_restores_originals():
    from repro.schemes import AnubisScheme, PhoenixScheme
    from repro.tree.sit import SITAuthenticator
    from repro.fuzz import executor

    before = (SITAuthenticator.node_mac, executor.judge,
              AnubisScheme.on_cache_install)
    with tracing.instrument(tracing.SpanRecorder()):
        assert SITAuthenticator.node_mac is not before[0]
        assert "on_cache_install" in vars(PhoenixScheme)
    assert (SITAuthenticator.node_mac, executor.judge,
            AnubisScheme.on_cache_install) == before
    assert "on_cache_install" not in vars(PhoenixScheme)


def test_injected_delay_lands_in_its_span():
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder, {"tree.node_mac": 2e-4}):
        _nested_calls()
    calls, self_s = recorder.split()["tree.node_mac"]
    assert self_s >= calls * 2e-4


def test_spans_round_trip(tmp_path):
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        _nested_calls()
    recorder.counts["recovery.stale_lines"] = 7
    recorder.write(tmp_path / "spans.bin")
    loaded = tracing.read_spans(tmp_path / "spans.bin")
    assert loaded.split() == recorder.split()
    assert list(loaded.parent) == list(recorder.parent)
    assert loaded.counts["recovery.stale_lines"] == 7


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_manifest_names_every_reported_metric():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {entry["name"] for entry in manifest["per_layer"]}
    for name in tracing.SPAN_NAMES:
        assert {name + ".calls", name + ".self_s"} <= per_layer
    for layer in tracing.LAYERS:
        assert layer + ".share" in per_layer
    assert {w["name"] for w in manifest["workloads"]} == {
        "paper_grid", "lab_table2", "fuzz_campaign"}
