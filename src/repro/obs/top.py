"""``star-top``: the live campaign dashboard.

Point it at a running campaign's telemetry directory (or the store that
holds one) and it renders a refreshing terminal view of the merged
worker registries: cells done / total, per-worker throughput and
liveness, retry and store hit/miss counters, and an ETA extrapolated
from the campaign journal's checkpoint history.

Examples::

    # watch a lab campaign published with star-lab run --telemetry
    star-top --store .starlab

    # watch a fuzzing campaign
    star-top --telemetry /tmp/fuzz-telemetry

    # watch a farm: coordinator + every worker pool's heartbeats
    star-top --farm .starlab/farm --store .starlab

    # one-shot snapshot (scripts, CI)
    star-top --store .starlab --once

    # expose /metrics (Prometheus text) and /status (JSON) read-only
    star-top --store .starlab --serve 9099

Everything here is read-only: star-top never writes into the store or
the telemetry directory, so it can watch a campaign owned by another
process without perturbing it.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, ClassVar, Dict, List, Optional, Tuple, Union

from repro.lab.clock import Clock
from repro.obs.export import to_prometheus_text
from repro.obs.live import LiveAggregate, aggregate_heartbeats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-top",
        description="Live dashboard over a campaign's telemetry "
                    "directory (see star-lab run --telemetry and "
                    "star-fuzz run --telemetry).",
    )
    parser.add_argument("--store", default=None,
                        help="star-lab store root; telemetry defaults "
                             "to <store>/telemetry and campaign "
                             "journals are read for totals/ETA")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="telemetry directory (overrides --store)")
    parser.add_argument("--farm", default=None, metavar="DIR",
                        help="star-lab farm directory; watches "
                             "<farm>/telemetry (coordinator plus "
                             "every worker pool)")
    parser.add_argument("--campaign", default=None, metavar="IDPREFIX",
                        help="journal to track (default: the running "
                             "one, else the newest)")
    parser.add_argument("--interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="refresh interval (default 1.0)")
    parser.add_argument("--stale-after", type=float, default=10.0,
                        metavar="SECONDS",
                        help="mark workers stale after this many "
                             "seconds without a heartbeat (default 10)")
    parser.add_argument("--once", action="store_true",
                        help="render one snapshot and exit")
    parser.add_argument("--iterations", type=int, default=None,
                        help="render N refreshes then exit "
                             "(default: until interrupted)")
    parser.add_argument("--serve", type=int, default=None,
                        metavar="PORT",
                        help="also expose read-only /metrics "
                             "(Prometheus text) and /status (JSON) on "
                             "this port (0 = ephemeral)")
    return parser


# ----------------------------------------------------------------------
# status assembly (pure, testable)
# ----------------------------------------------------------------------
def _pick_journal(journals: List[Dict],
                  id_prefix: Optional[str]) -> Optional[Dict]:
    """The journal star-top tracks: an explicit prefix match, else the
    single running campaign, else the last one in id order."""
    if id_prefix is not None:
        matches = [journal for journal in journals
                   if journal.get("campaign_id", "").startswith(id_prefix)]
        return matches[0] if len(matches) == 1 else None
    running = [journal for journal in journals
               if journal.get("status") == "running"]
    if len(running) == 1:
        return running[0]
    return journals[-1] if journals else None


def _read_farm_manifest(farm_path: Path) -> Optional[Dict]:
    """The farm's ``farm.json``, or ``None`` (absent, corrupt, racy
    mid-replace read — star-top never fails over a manifest)."""
    try:
        with open(farm_path / "farm.json") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def build_status(telemetry_dir: Union[str, Path],
                 store_path: Optional[Union[str, Path]] = None,
                 campaign: Optional[str] = None,
                 now_wall: Optional[float] = None,
                 stale_after_s: float = 10.0,
                 farm_path: Optional[Union[str, Path]] = None) -> Dict:
    """Assemble the full dashboard state as one JSON-ready dict.

    This is what ``/status`` serves and what the renderer consumes, so
    tests can assert on it without a terminal or an HTTP server.
    """
    if now_wall is None:
        now_wall = Clock().wall()
    aggregate = aggregate_heartbeats(
        telemetry_dir, now_wall=now_wall, stale_after_s=stale_after_s
    )
    status: Dict = {
        "now_wall_s": now_wall,
        "telemetry_dir": str(telemetry_dir),
        "campaign": None,
        "farm": None,
        "throughput_cps": None,
        "eta_s": None,
        "stale": False,
        "corrupt_heartbeats": aggregate.corrupt,
        "workers": [
            {
                "worker": view.worker,
                "seq": view.seq,
                "age_s": round(view.age_s, 3),
                "stale": view.stale,
                "progress": view.progress,
            }
            for view in aggregate.workers
        ],
        "metrics": {
            "counters": dict(aggregate.registry.counters()),
            "gauges": {
                name: {"value": gauge.value, "high": gauge.high}
                for name, gauge in aggregate.registry.gauges()
            },
        },
    }
    if farm_path is not None:
        manifest = _read_farm_manifest(Path(farm_path))
        if manifest is not None:
            status["farm"] = {
                "name": manifest.get("name"),
                "cells": manifest.get("cells"),
            }
    if store_path is not None:
        from repro.lab.scheduler import checkpoint_rates
        from repro.lab.store import ResultStore

        store = ResultStore(store_path)
        try:
            from repro.lab.scheduler import read_journals

            journal = _pick_journal(read_journals(store), campaign)
        finally:
            store.close()
        if journal is not None:
            throughput, eta, stale = checkpoint_rates(
                journal, now_wall=now_wall, stale_after_s=stale_after_s
            )
            status["campaign"] = {
                "campaign_id": journal.get("campaign_id"),
                "name": journal.get("name"),
                "status": journal.get("status"),
                "counts": journal.get("counts", {}),
            }
            status["throughput_cps"] = throughput
            status["eta_s"] = eta
            status["stale"] = stale
    return status


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value: object, pattern: str, empty: str = "-") -> str:
    return empty if value is None else pattern % value


def render_dashboard(status: Dict) -> str:
    """The terminal view of one :func:`build_status` snapshot."""
    lines = ["star-top — %s" % status["telemetry_dir"]]
    farm = status.get("farm")
    if farm:
        lines.append("farm %s: %s cells"
                     % (farm.get("name", "?"), farm.get("cells", "?")))
    campaign = status.get("campaign")
    if campaign:
        counts = campaign.get("counts", {})
        done = counts.get("resumed", 0) + counts.get("completed", 0)
        flags = " STALE" if status.get("stale") else ""
        lines.append(
            "campaign %s (%s): %s%s  cells %d/%d  failed %d  "
            "rate %s  eta %s"
            % (str(campaign.get("campaign_id", "?"))[:12],
               campaign.get("name", "?"), campaign.get("status", "?"),
               flags, done, counts.get("total", 0),
               counts.get("failed", 0),
               _fmt(status.get("throughput_cps"), "%.2f/s"),
               _fmt(status.get("eta_s"), "%.0fs"))
        )
    counters = status["metrics"]["counters"]
    interesting = [
        ("stored", "lab.jobs.completed"),
        ("retried", "lab.jobs.retried"),
        ("hits", "lab.store.hits"),
        ("misses", "lab.store.misses"),
        ("cases", "fuzz.cases"),
        ("failures", "fuzz.failures"),
        ("beats", "live.heartbeats_written"),
        ("claimed", "lab.farm.leases_claimed"),
        ("stolen", "lab.farm.leases_stolen"),
        ("farm_done", "lab.farm.cells_done"),
        ("farm_failed", "lab.farm.cells_failed"),
        ("merged", "lab.farm.merged_records"),
    ]
    cells = ["%s %d" % (label, counters[name])
             for label, name in interesting if name in counters]
    if cells:
        lines.append("counters: " + "  ".join(cells))
    corrupt = status.get("corrupt_heartbeats", 0)
    lines.append("workers (%d, %d stale%s):"
                 % (len(status["workers"]),
                    sum(1 for w in status["workers"] if w["stale"]),
                    (", %d corrupt heartbeats" % corrupt)
                    if corrupt else ""))
    for worker in status["workers"]:
        progress = worker.get("progress") or {}
        detail = " ".join(
            "%s=%s" % (key, progress[key]) for key in sorted(progress)
        )
        lines.append(
            "  %-12s seq %-6d age %6.1fs%s  %s"
            % (worker["worker"], worker["seq"], worker["age_s"],
               " STALE" if worker["stale"] else "      ", detail)
        )
    if not status["workers"]:
        lines.append("  (no heartbeats yet)")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the read-only HTTP endpoint
# ----------------------------------------------------------------------
class _Endpoint(BaseHTTPRequestHandler):
    """Serves /metrics (Prometheus text) and /status (JSON)."""

    # set by serve(): a zero-argument callable returning
    # (status dict, LiveAggregate)
    source: ClassVar[Callable[[], Tuple[Dict, LiveAggregate]]]

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        status, aggregate = type(self).source()
        if self.path.split("?")[0] == "/metrics":
            body = to_prometheus_text(aggregate.registry).encode()
            content_type = "text/plain; version=0.0.4"
        elif self.path.split("?")[0] == "/status":
            body = (json.dumps(status, indent=2, sort_keys=True)
                    + "\n").encode()
            content_type = "application/json"
        else:
            self.send_error(404, "try /metrics or /status")
            return
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str,
                    *args: object) -> None:  # noqa: A002
        pass  # a dashboard should not spam the terminal it draws on


def serve(port: int,
          snapshot: Callable[[], Tuple[Dict, LiveAggregate]],
          ) -> ThreadingHTTPServer:
    """Start the endpoint on a daemon thread; returns the server.

    ``snapshot`` is a zero-argument callable producing a fresh
    ``(status, aggregate)`` pair per request — the endpoint never
    caches, so a scrape always sees the latest heartbeat files.
    """
    handler = type("_BoundEndpoint", (_Endpoint,),
                   {"source": staticmethod(snapshot)})
    server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


# ----------------------------------------------------------------------
# main loop
# ----------------------------------------------------------------------
def _resolve_telemetry(args: argparse.Namespace) -> Optional[Path]:
    if args.telemetry is not None:
        return Path(args.telemetry)
    if getattr(args, "farm", None) is not None:
        return Path(args.farm) / "telemetry"
    if args.store is not None:
        return Path(args.store) / "telemetry"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry = _resolve_telemetry(args)
    if telemetry is None:
        print("star-top: pass --telemetry DIR or --store ROOT",
              file=sys.stderr)
        return 2
    clock = Clock()

    def snapshot() -> Tuple[Dict, LiveAggregate]:
        now_wall = clock.wall()
        status = build_status(
            telemetry, store_path=args.store, campaign=args.campaign,
            now_wall=now_wall, stale_after_s=args.stale_after,
            farm_path=args.farm,
        )
        aggregate = aggregate_heartbeats(
            telemetry, now_wall=now_wall,
            stale_after_s=args.stale_after,
        )
        return status, aggregate

    server = None
    if args.serve is not None:
        server = serve(args.serve, snapshot)
        print("star-top: serving /metrics and /status on "
              "http://127.0.0.1:%d" % server.server_address[1])

    iterations = 1 if args.once else args.iterations
    rendered = 0
    try:
        while True:
            status, _ = snapshot()
            output = render_dashboard(status)
            if not args.once and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(output)
            sys.stdout.flush()
            rendered += 1
            if iterations is not None and rendered >= iterations:
                break
            clock.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
