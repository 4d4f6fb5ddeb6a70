"""Slowdown self-test: does the ``cells_per_s`` bound catch a slowdown
of its own size, and does the traced run name the layer that grew?

Usage, from the repository root::

    python3 perfbench/slowdown.py

The test injects a busy-wait into every ``tree.node_mac`` call on
``paper_grid`` (default seed), sized so the expected ``cells_per_s``
drop is ``MARGIN`` times the bound in ``BENCHMARK.json``. Each trial
runs, interleaved, a clean group, a slowed group and a second clean
group of passes and applies the bound's rule (median worse by more
than the bound):

* the slowed group must be flagged against the first clean group;
* the second clean group must not be flagged (the clean tree passes);
* one traced clean pass and one traced slowed pass must show
  ``tree.node_mac`` as the span whose self time grew the most.

Prints one JSON summary line and exits 0 only if every trial holds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN = "tree.node_mac"
MARGIN = 1.2
"""Injected drop over the bound: a drop of exactly the bound is a coin
toss under any noise, so the test asks for a little more."""
TRIALS = 3
GROUP = 2
"""Passes per group; each group's median is compared."""


def _passes(bench, count: int, delays=None, recorder=None):
    from perfbench import tracing

    walls = []
    for _ in range(count):
        with tracing.instrument(recorder, delays):
            started = time.perf_counter()
            bench.run_pass()
            walls.append(time.perf_counter() - started)
    return walls


def _drop(clean, other) -> float:
    """Fractional ``cells_per_s`` loss of ``other`` against ``clean``."""
    return 1.0 - statistics.median(clean) / statistics.median(other)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing
    from perfbench.workloads import PaperGrid

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(entry["bound"] for entry in manifest["end_to_end"]
                 if entry["name"] == "cells_per_s")
    bench = PaperGrid(ROOT, None, ROOT / ".perfbench_out")
    bench.setup()

    # size the delay: a drop of d needs extra time T * d / (1 - d)
    clean_wall = statistics.median(_passes(bench, 2))
    counting = tracing.SpanRecorder()
    _passes(bench, 1, recorder=counting)
    calls = counting.split()[SPAN][0]
    target = MARGIN * bound
    delay = clean_wall * target / (1.0 - target) / calls
    delays = {SPAN: delay}

    trials = []
    for _ in range(TRIALS):
        clean = _passes(bench, GROUP)
        slowed = _passes(bench, GROUP, delays)
        again = _passes(bench, GROUP)
        trials.append({
            "slowed_drop": _drop(clean, slowed),
            "clean_drop": _drop(clean, again),
            "slowed_flagged": _drop(clean, slowed) > bound,
            "clean_flagged": _drop(clean, again) > bound,
        })

    splits = {}
    for label, extra in (("clean", None), ("slowed", delays)):
        recorder = tracing.SpanRecorder()
        _passes(bench, 1, extra, recorder)
        splits[label] = recorder.split()
    growth = {name: splits["slowed"][name][1]
              - splits["clean"].get(name, (0, 0.0))[1]
              for name in splits["slowed"]}
    grew_most = max(growth, key=growth.get)

    ok = (all(t["slowed_flagged"] and not t["clean_flagged"]
              for t in trials) and grew_most == SPAN)
    print(json.dumps({
        "ok": ok, "bound": bound, "target_drop": target,
        "delay_per_call_s": delay, "calls_per_pass": calls,
        "clean_pass_s": clean_wall, "trials": trials,
        "grew_most": grew_most,
        "growth_s": {name: round(value, 4) for name, value in sorted(
            growth.items(), key=lambda item: -item[1])[:4]},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
