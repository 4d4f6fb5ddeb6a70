"""``star-lab``: persistent experiment campaigns over a result store.

Examples::

    # run the Table II sweep into a store, 4 worker shards
    star-lab run --grid table2 --store .starlab --jobs 4

    # a campaign killed mid-run (Ctrl-C, timeout, crash) resumes
    # exactly where it stopped — stored cells are never recomputed
    star-lab resume --grid table2 --store .starlab

    # inspect campaigns / export the deterministic result set
    star-lab status --store .starlab
    star-lab export --store .starlab -o results.json

    # drop cells no longer referenced by the given grids
    star-lab gc --store .starlab --grid table2 --grid fig14b

    # farm: a coordinator seeds the lease board and merges worker
    # stores; any number of work-stealing worker pools, started or
    # stopped at any time, chew through it
    star-lab serve --grid table2 --store .starlab --farm .starlab/farm
    star-lab work --farm .starlab/farm --jobs 4      # repeat per pool
    star-lab merge --store .starlab --farm .starlab/farm

Exit codes: 0 campaign complete, 1 cells failed permanently,
3 campaign interrupted (resume / re-serve to continue).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.tables import ExperimentTable, render_table
from repro.errors import ReproError
from repro.lab import gridfile
from repro.lab.clock import BACKOFF_POLICIES, BackoffPolicy, Clock
from repro.lab.farm import Coordinator, Worker
from repro.lab.scheduler import (
    CampaignReport,
    Scheduler,
    checkpoint_rates,
    find_journal,
    journal_specs,
    read_journals,
)
from repro.lab.spec import RunSpec
from repro.lab.store import ResultStore
from repro.tools import positive_float, positive_int
from repro.util.stats import Stats

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_INTERRUPTED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-lab",
        description="Persistent, resumable experiment campaigns over "
                    "a content-addressed result store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_store(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--store", default=".starlab",
                         help="store root (default: .starlab)")

    run = commands.add_parser(
        "run", help="run a grid campaign (cached cells are skipped)"
    )
    add_store(run)
    run.add_argument("--grid", action="append", required=True,
                     metavar="NAME|PATH",
                     help="built-in grid name (%s) or grid JSON path; "
                          "repeatable"
                          % ", ".join(sorted(gridfile.BUILTIN_GRIDS)))
    run.add_argument("--jobs", type=positive_int, default=1,
                     help="worker shards (spawn processes when > 1)")
    run.add_argument("--timeout", type=positive_float, default=None,
                     metavar="SECONDS",
                     help="per-cell timeout (needs --jobs > 1)")
    run.add_argument("--retries", type=int, default=2,
                     help="retry budget per cell (default 2)")
    _add_backoff(run)
    run.add_argument("--max-cells", type=int, default=None,
                     help="compute at most N cells this invocation "
                          "(controlled interruption; resume later)")
    _add_telemetry(run)
    run.add_argument("--quiet", action="store_true")

    status = commands.add_parser(
        "status", help="show campaign checkpoints against the store"
    )
    add_store(status)
    status.add_argument("--stale-after", type=float, default=30.0,
                        metavar="SECONDS",
                        help="flag running campaigns whose last "
                             "checkpoint is older than this "
                             "(default 30)")

    resume = commands.add_parser(
        "resume", help="continue an interrupted campaign"
    )
    add_store(resume)
    resume.add_argument("--grid", action="append", default=None,
                        metavar="NAME|PATH",
                        help="re-expand these grids instead of reading "
                             "a campaign journal")
    resume.add_argument("--campaign", default=None, metavar="IDPREFIX",
                        help="journal to resume (unique id prefix); "
                             "default: the only unfinished campaign")
    resume.add_argument("--jobs", type=positive_int, default=1)
    resume.add_argument("--timeout", type=positive_float, default=None)
    resume.add_argument("--retries", type=int, default=2)
    _add_backoff(resume)
    resume.add_argument("--max-cells", type=int, default=None)
    _add_telemetry(resume)
    resume.add_argument("--quiet", action="store_true")

    export = commands.add_parser(
        "export", help="deterministic JSON dump of stored results"
    )
    add_store(export)
    export.add_argument("--grid", action="append", default=None,
                        help="restrict to these grids' cells")
    export.add_argument("--hash-prefix", default="",
                        help="restrict to spec hashes with this prefix")
    export.add_argument("-o", "--output", default=None,
                        help="output path (default: stdout)")

    gc = commands.add_parser(
        "gc", help="drop unreferenced cells, orphan blobs, temp files"
    )
    add_store(gc)
    gc.add_argument("--grid", action="append", default=None,
                    help="grids whose cells to KEEP; everything else "
                         "is dropped (omit to only clean orphans)")
    gc.add_argument("--purge-quarantine", action="store_true",
                    help="also delete quarantined corrupt files")

    serve = commands.add_parser(
        "serve", help="coordinate a farm campaign: seed the lease "
                      "board, watch workers, merge their stores"
    )
    add_store(serve)
    serve.add_argument("--grid", action="append", required=True,
                       metavar="NAME|PATH",
                       help="grids to expand onto the lease board; "
                            "repeatable")
    serve.add_argument("--farm", default=None, metavar="DIR",
                       help="shared farm directory "
                            "(default: <store>/farm)")
    serve.add_argument("--lease", type=float, default=60.0,
                       metavar="SECONDS",
                       help="lease duration workers must renew within "
                            "(default 60)")
    serve.add_argument("--poll", type=float, default=0.5,
                       metavar="SECONDS",
                       help="board poll interval (default 0.5)")
    serve.add_argument("--max-wall", type=float, default=None,
                       metavar="SECONDS",
                       help="stop serving after this long (campaign "
                            "stays resumable; re-serve to continue)")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       metavar="SECONDS")
    serve.add_argument("--quiet", action="store_true")

    work = commands.add_parser(
        "work", help="run one work-stealing worker pool against a "
                     "farm directory"
    )
    work.add_argument("--farm", required=True, metavar="DIR",
                      help="the coordinator's farm directory")
    work.add_argument("--id", default=None, metavar="NAME",
                      help="worker id (default: w<pid>; must be "
                           "unique per farm)")
    work.add_argument("--jobs", type=positive_int, default=1,
                      help="execution shards within this pool")
    work.add_argument("--batch", type=int, default=None,
                      help="leases claimed per round (default: --jobs)")
    work.add_argument("--timeout", type=positive_float, default=None,
                      metavar="SECONDS",
                      help="per-cell timeout (needs --jobs > 1)")
    work.add_argument("--retries", type=int, default=2,
                      help="in-pool retry budget per cell (default 2)")
    _add_backoff(work)
    work.add_argument("--lease", type=float, default=60.0,
                      metavar="SECONDS",
                      help="lease duration to claim for (default 60; "
                           "must cover a cell + renewal slack)")
    work.add_argument("--max-attempts", type=int, default=3,
                      help="cross-worker attempts before a cell is "
                           "failed terminally (default 3)")
    work.add_argument("--poll", type=float, default=0.2,
                      metavar="SECONDS",
                      help="idle claim poll floor (default 0.2)")
    work.add_argument("--wait", type=float, default=30.0,
                      metavar="SECONDS",
                      help="how long to wait for the lease board to "
                           "appear (default 30)")
    work.add_argument("--heartbeat-interval", type=float, default=1.0,
                      metavar="SECONDS")
    work.add_argument("--quiet", action="store_true")

    merge = commands.add_parser(
        "merge", help="import a farm's worker stores into the "
                      "authoritative store (no serving)"
    )
    add_store(merge)
    merge.add_argument("--farm", default=None, metavar="DIR",
                       help="farm directory (default: <store>/farm)")
    return parser


def _add_backoff(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backoff", type=float, default=0.5,
                     metavar="SECONDS",
                     help="retry backoff base (default 0.5)")
    sub.add_argument("--backoff-policy", choices=BACKOFF_POLICIES,
                     default="linear",
                     help="retry delay schedule: linear waits "
                          "base*attempt, exponential doubles from "
                          "base (default linear)")
    sub.add_argument("--backoff-cap", type=float, default=30.0,
                     metavar="SECONDS",
                     help="ceiling on any single retry delay "
                          "(default 30)")


def _backoff_policy(args: argparse.Namespace) -> BackoffPolicy:
    return BackoffPolicy(
        getattr(args, "backoff_policy", "linear"),
        base_s=getattr(args, "backoff", 0.5),
        cap_s=getattr(args, "backoff_cap", 30.0),
    )


def _add_telemetry(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--telemetry", nargs="?", metavar="DIR",
                     const="auto", default=None,
                     help="publish live heartbeat/metric snapshots for "
                          "star-top; DIR defaults to <store>/telemetry")
    sub.add_argument("--heartbeat-interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="min seconds between scheduler heartbeats "
                          "(default 1.0)")


# ----------------------------------------------------------------------
# run / resume
# ----------------------------------------------------------------------
def _report_table(report: CampaignReport,
                  stats: Stats) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="star-lab",
        title="campaign %s (%s)" % (report.campaign_id, report.name),
        columns=["cells", "resumed", "computed", "failed",
                 "remaining", "store_hits", "store_misses"],
    )
    table.add_row(
        cells=report.total,
        resumed=report.resumed,
        computed=report.completed,
        failed=report.failed,
        remaining=report.remaining,
        store_hits=stats.get("lab.store.hits"),
        store_misses=stats.get("lab.store.misses"),
    )
    if report.interrupted:
        table.notes.append(
            "campaign interrupted: %d cells remain; run star-lab "
            "resume to continue" % report.remaining
        )
    for failure in report.failures:
        table.notes.append(
            "FAILED %s (%s, %d attempts): %s"
            % (failure["spec_hash"][:12], failure["label"],
               failure["attempts"], failure["error"])
        )
    return table


def _run_specs(args: argparse.Namespace, specs: List[RunSpec],
               name: str) -> int:
    stats = Stats(enabled=True)
    store = ResultStore(args.store, stats=stats)
    telemetry_dir = None
    if getattr(args, "telemetry", None) is not None:
        telemetry_dir = (Path(args.store) / "telemetry"
                         if args.telemetry == "auto"
                         else Path(args.telemetry))
    scheduler = Scheduler(
        store, jobs=args.jobs, timeout_s=args.timeout,
        retries=args.retries, backoff=_backoff_policy(args),
        stats=stats, telemetry_dir=telemetry_dir,
        heartbeat_interval_s=getattr(args, "heartbeat_interval", 1.0),
    )
    report = scheduler.run(specs, name=name,
                           max_cells=args.max_cells)
    if not args.quiet:
        print(render_table(_report_table(report, stats)))
    if report.failed:
        return EXIT_FAILURES
    if report.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    specs = gridfile.resolve_specs(args.grid)
    name = "+".join(
        gridfile.load_grid(grid).get("name", str(grid))
        for grid in args.grid
    )
    return _run_specs(args, specs, name)


def _cmd_resume(args: argparse.Namespace) -> int:
    if args.grid:
        return _cmd_run(args)
    store = ResultStore(args.store)
    if args.campaign:
        journal = find_journal(store, args.campaign)
        if journal is None:
            print("no unique campaign matches %r" % args.campaign,
                  file=sys.stderr)
            return 2
    else:
        unfinished = [
            journal for journal in read_journals(store)
            if journal.get("status") != "complete"
        ]
        if len(unfinished) != 1:
            print("found %d unfinished campaigns; pass --campaign or "
                  "--grid" % len(unfinished), file=sys.stderr)
            return 2
        journal = unfinished[0]
    store.close()
    specs = journal_specs(journal)
    return _run_specs(args, specs, journal.get("name", "campaign"))


# ----------------------------------------------------------------------
# status / export / gc
# ----------------------------------------------------------------------
def _cmd_status(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    table = ExperimentTable(
        experiment_id="star-lab",
        title="campaigns in %s (%d stored cells)"
              % (args.store, len(store)),
        columns=["campaign", "name", "status", "cells", "stored",
                 "failed", "rate", "eta"],
    )
    now_wall = Clock().wall()
    stale_seen = False
    for journal in read_journals(store):
        specs = journal_specs(journal)
        stored = sum(1 for spec in specs if spec in store)
        counts = journal.get("counts", {})
        throughput, eta, stale = checkpoint_rates(
            journal, now_wall=now_wall,
            stale_after_s=getattr(args, "stale_after", 30.0),
        )
        stale_seen = stale_seen or stale
        status = journal.get("status", "?")
        table.add_row(
            campaign=journal["campaign_id"],
            name=journal.get("name", "?"),
            status=status + " (stale)" if stale else status,
            cells=len(specs),
            stored=stored,
            failed=counts.get("failed", 0),
            rate=("%.2f/s" % throughput) if throughput else "-",
            eta=("%.0fs" % eta) if eta is not None else "-",
        )
    if stale_seen:
        table.notes.append(
            "(stale): running campaign with no checkpoint for more "
            "than %.0fs — scheduler likely dead; star-lab resume "
            "continues it" % getattr(args, "stale_after", 30.0)
        )
    print(render_table(table))
    return EXIT_OK


def _export_payload(store: ResultStore,
                    grids: Optional[List[str]],
                    hash_prefix: str) -> List[Dict]:
    spec_hashes = None
    if grids:
        spec_hashes = [
            spec.spec_hash for spec in gridfile.resolve_specs(grids)
        ]
    return store.export(spec_hashes=spec_hashes, prefix=hash_prefix)


def _cmd_export(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    entries = _export_payload(store, args.grid, args.hash_prefix)
    text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %d records to %s" % (len(entries), args.output))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    keep = None
    if args.grid:
        keep = [
            spec.spec_hash for spec in gridfile.resolve_specs(args.grid)
        ]
    removed = store.gc(keep_hashes=keep,
                       purge_quarantine=args.purge_quarantine)
    print("gc: dropped %(records)d records, %(orphan_blobs)d orphan "
          "blobs, %(quarantined)d quarantined files" % removed)
    return EXIT_OK


# ----------------------------------------------------------------------
# farm: serve / work / merge
# ----------------------------------------------------------------------
def _farm_dir(args: argparse.Namespace) -> Path:
    if getattr(args, "farm", None):
        return Path(args.farm)
    return Path(args.store) / "farm"


def _cmd_serve(args: argparse.Namespace) -> int:
    specs = gridfile.resolve_specs(args.grid)
    name = "+".join(
        gridfile.load_grid(grid).get("name", str(grid))
        for grid in args.grid
    )
    stats = Stats(enabled=True)
    store = ResultStore(args.store, stats=stats)
    coordinator = Coordinator(
        store, _farm_dir(args), stats=stats, lease_s=args.lease,
        poll_interval_s=args.poll,
        heartbeat_interval_s=args.heartbeat_interval,
    )
    try:
        report = coordinator.run(specs, name=name,
                                 max_wall_s=args.max_wall)
    finally:
        coordinator.close()
    if not args.quiet:
        print(render_table(_report_table(report, stats)))
    if report.failed:
        return EXIT_FAILURES
    if report.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_OK


def _cmd_work(args: argparse.Namespace) -> int:
    worker_id = args.id if args.id else "w%d" % os.getpid()
    worker = Worker(
        args.farm, worker_id, jobs=args.jobs, batch=args.batch,
        lease_s=args.lease, timeout_s=args.timeout,
        retries=args.retries, backoff=_backoff_policy(args),
        max_attempts=args.max_attempts, poll_interval_s=args.poll,
        heartbeat_interval_s=args.heartbeat_interval,
        wait_s=args.wait,
    )
    summary = worker.run()
    if not args.quiet:
        print("star-lab work %(worker)s: %(done)d done, "
              "%(failed)d failed, %(stolen)d stolen over "
              "%(batches)d batches" % summary)
    return EXIT_FAILURES if summary["failed"] else EXIT_OK


def _cmd_merge(args: argparse.Namespace) -> int:
    stats = Stats(enabled=True)
    store = ResultStore(args.store, stats=stats)
    coordinator = Coordinator(store, _farm_dir(args), stats=stats)
    try:
        merged = coordinator.merge()
    finally:
        coordinator.close()
    print("merged %d new records into %s" % (merged, args.store))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_resume,
        "status": _cmd_status,
        "export": _cmd_export,
        "gc": _cmd_gc,
        "serve": _cmd_serve,
        "work": _cmd_work,
        "merge": _cmd_merge,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print("star-lab: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
