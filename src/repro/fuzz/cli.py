"""``star-fuzz``: the crash-consistency fuzzing campaign CLI.

Examples::

    # a parallel campaign over every scheme and three workloads
    star-fuzz run --cases 60 --jobs 4 --seed 1 \\
        --corpus /tmp/fuzz/corpus.jsonl

    # prove the oracle catches a broken root verification (self-test)
    star-fuzz run --cases 40 --schemes star --attack-rate 1.0 \\
        --inject-defect skip-root-verify --corpus /tmp/fuzz/bad.jsonl

    # re-execute recorded failures / minimized artifacts single-process
    star-fuzz replay /tmp/fuzz/corpus.jsonl
    star-fuzz replay /tmp/fuzz/artifacts/c000007-star-hash.json

    # shrink recorded failures into .trace.gz repro artifacts
    star-fuzz minimize /tmp/fuzz/corpus.jsonl --artifacts /tmp/fuzz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.tables import ExperimentTable, render_table
from repro.fuzz import corpus as corpus_io
from repro.fuzz.attacks import ATTACK_MATRIX
from repro.fuzz.executor import (
    DEFECTS,
    CampaignResult,
    CaseResult,
    run_campaign,
    run_case,
)
from repro.fuzz.minimize import (
    minimize_failure,
    replay_artifact,
    write_artifacts,
)
from repro.fuzz.sampling import CampaignSpec
from repro.schemes import SIT_SCHEMES
from repro.tools import positive_int
from repro.workloads.registry import ALL_WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="star-fuzz",
        description="Crash-consistency fuzzing campaigns over the "
                    "simulated secure-NVM machine.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="sample and execute a fuzzing campaign"
    )
    run.add_argument("--cases", type=positive_int, default=48)
    run.add_argument("--jobs", type=positive_int, default=1,
                     help="parallel worker processes (spawn)")
    run.add_argument("--seed", type=int, default=0,
                     help="campaign seed; every case derives from it")
    run.add_argument("--schemes", default=",".join(sorted(SIT_SCHEMES)),
                     help="comma-separated scheme list")
    run.add_argument("--workloads", default="array,hash,queue",
                     help="comma-separated workload list (%s)"
                          % ",".join(ALL_WORKLOADS))
    run.add_argument("--min-operations", type=int, default=40)
    run.add_argument("--max-operations", type=int, default=160)
    run.add_argument("--attack-rate", type=float, default=0.5,
                     help="probability of injecting an attack when the "
                          "scheme has eligible ones")
    run.add_argument("--corpus", default="fuzz-corpus.jsonl",
                     help="JSONL failure corpus to write")
    run.add_argument("--artifacts", default=None,
                     help="directory for minimized repro artifacts "
                          "(default: next to the corpus)")
    run.add_argument("--no-minimize", action="store_true",
                     help="skip automatic failure minimization")
    run.add_argument("--inject-defect", choices=sorted(DEFECTS),
                     default=None,
                     help="test-only fault injection (oracle self-test)")
    run.add_argument("--sanitize", action="store_true",
                     help="run every case on Machine(sanitize=True): "
                          "runtime write sanitizers on top of the "
                          "oracle stack (repro.sim.sanitize)")
    run.add_argument("--telemetry", metavar="DIR", default=None,
                     help="publish per-worker heartbeat/metric "
                          "snapshots into DIR for star-top "
                          "(repro.obs.live)")
    run.add_argument("--heartbeat-interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="min seconds between heartbeat publications "
                          "per worker (default 1.0; 0 = every case)")
    run.add_argument("--quiet", action="store_true")

    replay = commands.add_parser(
        "replay", help="re-execute corpus failures or a minimized "
                       "artifact single-process"
    )
    replay.add_argument("path", help="corpus .jsonl or artifact .json")

    minimize = commands.add_parser(
        "minimize", help="shrink recorded failures to repro artifacts"
    )
    minimize.add_argument("corpus", help="JSONL failure corpus")
    minimize.add_argument("--artifacts", default=None,
                          help="output directory (default: corpus dir)")
    minimize.add_argument("--max-runs", type=int, default=200,
                          help="re-execution budget per failure")
    return parser


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _summary_table(result: CampaignResult) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id="fuzz",
        title="campaign %d: %d cases" % (result.spec.seed,
                                         len(result.results)),
        columns=["scheme", "cases", "attacks", "recovery", "on-use",
                 "audit", "healed", "failures"],
    )
    for scheme in sorted({r.case.scheme for r in result.results}):
        rows = [r for r in result.results if r.case.scheme == scheme]
        table.add_row(
            scheme=scheme,
            cases=len(rows),
            attacks=sum(1 for r in rows if r.tampered),
            **{by: sum(1 for r in rows if r.detected_by == by)
               for by in ("recovery", "on-use", "audit", "healed")},
            failures=sum(1 for r in rows if r.failed),
        )
    table.notes.append(
        "attack repertoire per scheme: "
        + "; ".join("%s=%d" % (name, len(attacks))
                    for name, attacks in sorted(ATTACK_MATRIX.items()))
    )
    return table


def _cmd_run(args) -> int:
    spec = CampaignSpec(
        cases=args.cases,
        seed=args.seed,
        schemes=[s for s in args.schemes.split(",") if s],
        workloads=[w for w in args.workloads.split(",") if w],
        min_operations=args.min_operations,
        max_operations=args.max_operations,
        attack_rate=args.attack_rate,
        defect=args.inject_defect,
    )
    spec.validate()
    corpus_path = Path(args.corpus)
    artifacts_dir = (
        Path(args.artifacts) if args.artifacts
        else corpus_path.parent / "artifacts"
    )

    def progress(result: CaseResult) -> None:
        if args.quiet or not result.failed:
            return
        print("FAIL %s: %s" % (
            result.case.case_id,
            "; ".join(v["kind"] for v in result.violations),
        ))

    with corpus_io.CorpusWriter(corpus_path) as writer:
        writer.write_header(spec.to_dict())
        campaign = run_campaign(
            spec, jobs=args.jobs, progress=progress,
            sanitize=args.sanitize, telemetry_dir=args.telemetry,
            heartbeat_interval_s=args.heartbeat_interval,
        )
        for failure in campaign.failures:
            writer.write_failure(failure)
        writer.write_summary(campaign.summary())

    if not args.quiet:
        print(render_table(_summary_table(campaign)))
        print("corpus: %s (%d failure records)"
              % (corpus_path, len(campaign.failures)))

    exit_code = 0 if campaign.ok else 1
    if campaign.failures and not args.no_minimize:
        for failure in campaign.failures:
            minimized = minimize_failure(failure.case, defect=spec.defect)
            if minimized is None:
                print("  %s: failure did not reproduce during "
                      "minimization" % failure.case.case_id)
                continue
            trace_path, meta_path = write_artifacts(
                minimized, artifacts_dir
            )
            reproduced, _ = replay_artifact(meta_path)
            print("  minimized %s: %d -> %d ops (%d runs, "
                  "reproduces=%s) -> %s"
                  % (failure.case.case_id, minimized.original_ops,
                     minimized.minimized_ops, minimized.runs,
                     reproduced, trace_path))
    return exit_code


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _corpus_defect(path: Path) -> Optional[str]:
    """The defect the recorded campaign injected, from its header."""
    header = next(
        (record for record in corpus_io.read_corpus(path)
         if record["type"] == "campaign"), None,
    )
    return (header or {}).get("spec", {}).get("defect")


def _cmd_replay(args) -> int:
    path = Path(args.path)
    if path.suffix == ".json":
        reproduced, signature = replay_artifact(path)
        print("%s: reproduces=%s signature=%s"
              % (path.name, reproduced, list(signature)))
        return 0 if reproduced else 1

    failures = corpus_io.load_failures(path)
    if not failures:
        print("no failure records in %s" % path)
        return 0
    defect = _corpus_defect(path)
    bad = 0
    for recorded in failures:
        rerun = run_case(recorded.case, defect=defect)
        match = rerun.signature == recorded.signature
        bad += 0 if match else 1
        print("%s: reproduces=%s recorded=%s observed=%s"
              % (recorded.case.case_id, match,
                 list(recorded.signature), list(rerun.signature)))
    return 0 if bad == 0 else 1


# ----------------------------------------------------------------------
# minimize
# ----------------------------------------------------------------------
def _cmd_minimize(args) -> int:
    corpus_path = Path(args.corpus)
    artifacts_dir = (
        Path(args.artifacts) if args.artifacts else corpus_path.parent
    )
    defect = _corpus_defect(corpus_path)
    failures = corpus_io.load_failures(corpus_path)
    if not failures:
        print("no failure records in %s" % corpus_path)
        return 0
    for failure in failures:
        minimized = minimize_failure(
            failure.case, defect=defect, max_runs=args.max_runs
        )
        if minimized is None:
            print("%s: does not reproduce" % failure.case.case_id)
            continue
        trace_path, meta_path = write_artifacts(minimized, artifacts_dir)
        reproduced, _ = replay_artifact(meta_path)
        print("%s: %d -> %d ops (%d runs, reproduces=%s) -> %s"
              % (failure.case.case_id, minimized.original_ops,
                 minimized.minimized_ops, minimized.runs, reproduced,
                 trace_path))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_minimize(args)


if __name__ == "__main__":
    sys.exit(main())
