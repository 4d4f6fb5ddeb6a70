"""``star-stats``: run one workload and pretty-print its telemetry.

The observability companion of ``star-run``: where that tool reports
the headline figures (IPC, write traffic, recovery cost), this one
dumps the full telemetry of a run — every counter (filterable by
subsystem prefix), the gauges and log-scale histograms, the recovery
span tree with per-phase timings, and the tail of the structured event
log — and exports them as JSON, Prometheus text, or JSONL events.

Examples::

    star-stats                                  # star + hash, crash+recover
    star-stats --scheme anubis --prefix nvm.    # one subsystem's counters
    star-stats --no-crash --workload btree      # runtime telemetry only
    star-stats --json t.json --prom t.prom --events t.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config import sim_config
from repro.obs.export import (
    telemetry_snapshot,
    to_prometheus_text,
)
from repro.obs.render import render_snapshot
from repro.schemes import SIT_SCHEMES
from repro.sim.machine import Machine
from repro.tools import positive_int
from repro.workloads.registry import ALL_WORKLOADS, make_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-stats",
        description="Run one workload and pretty-print the telemetry "
                    "(metrics, histograms, span tree, event log).",
    )
    parser.add_argument("--workload", choices=ALL_WORKLOADS,
                        default="hash")
    parser.add_argument("--scheme", choices=sorted(SIT_SCHEMES),
                        default="star")
    parser.add_argument("--operations", type=positive_int, default=500)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--memory-mb", type=int, default=64)
    parser.add_argument("--cache-kb", type=int, default=64,
                        help="metadata cache size")
    parser.add_argument("--crash", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="crash at the end and run recovery "
                             "(default: on; the span tree comes from "
                             "the recovery phases)")
    parser.add_argument("--prefix", default=None, metavar="SUBSYSTEM.",
                        help="only counters/histograms with this name "
                             "prefix (e.g. 'nvm.' or 'ctrl.')")
    parser.add_argument("--events-tail", type=int, default=20,
                        metavar="N", help="show the last N events "
                        "(default 20; 0 = all retained)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full telemetry snapshot as JSON")
    parser.add_argument("--prom", metavar="PATH", default=None,
                        help="write the metrics in Prometheus text "
                             "exposition format")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="stream the event log to PATH as JSONL "
                             "while the run executes")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="profile the run's simulator phases and "
                             "write Chrome trace-event JSON (load in "
                             "Perfetto / chrome://tracing); also "
                             "prints the per-phase aggregate table")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = sim_config(
        memory_bytes=args.memory_mb * 1024 ** 2,
        metadata_cache_bytes=args.cache_kb * 1024,
    )
    machine = Machine(config, scheme=args.scheme,
                      profile=bool(args.trace))
    if args.events:
        machine.stats.registry.events.open_sink(args.events)
    workload = make_workload(
        args.workload, config.num_data_lines,
        operations=args.operations, seed=args.seed,
    )
    machine.run(workload.ops())
    if args.crash:
        machine.crash()
        machine.recover()
    machine.stats.registry.events.close_sink()

    snapshot = telemetry_snapshot(machine.stats.registry)
    if args.prefix:
        # Stats.prefixed gives one subsystem's counters, name-sorted
        snapshot["counters"] = machine.stats.prefixed(args.prefix)
    print("telemetry: %s under %s (%d ops%s)" % (
        args.workload, args.scheme, args.operations,
        ", crash+recover" if args.crash else "",
    ))
    print()
    print(render_snapshot(snapshot, prefix=args.prefix,
                          events_limit=args.events_tail))
    if machine.recovery_stats is not None:
        recovery_snapshot = telemetry_snapshot(
            machine.recovery_stats.registry
        )
        print("== recovery " + "=" * 52)
        print(render_snapshot(recovery_snapshot,
                              prefix=args.prefix,
                              events_limit=args.events_tail))

    if args.json:
        payload = {"run": snapshot}
        if machine.recovery_stats is not None:
            payload["recovery"] = telemetry_snapshot(
                machine.recovery_stats.registry
            )
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        print("wrote %s" % args.json)
    if args.prom:
        text = to_prometheus_text(machine.stats.registry)
        if machine.recovery_stats is not None:
            text += to_prometheus_text(
                machine.recovery_stats.registry,
                namespace="star_recovery",
            )
        with open(args.prom, "w") as handle:
            handle.write(text)
        print("wrote %s" % args.prom)
    if args.events:
        print("wrote %s" % args.events)
    if args.trace:
        from repro.obs.profile import render_phase_table

        machine.profiler.write_chrome_trace(args.trace)
        print()
        print(render_phase_table(machine.profiler.aggregate()))
        print("wrote %s" % args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
