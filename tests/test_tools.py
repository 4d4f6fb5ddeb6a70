"""Tests for the star-run / star-stats / star-trace command-line tools
(and the count flags of star-lab and star-fuzz, which share their
argparse types)."""

import pytest

from repro.fuzz.cli import main as fuzz_main
from repro.lab.cli import main as lab_main
from repro.tools.run import main as run_main
from repro.tools.stats import main as stats_main
from repro.tools.trace import main as trace_main


class TestStarTrace:
    def test_generate_then_info(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert trace_main([
            "generate", "--workload", "array", "--operations", "50",
            "--lines", "65536", "-o", str(path),
        ]) == 0
        assert path.exists()
        assert trace_main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unique lines" in out
        assert "persists" in out

    def test_generate_threaded(self, tmp_path, capsys):
        path = tmp_path / "t.trace.gz"
        assert trace_main([
            "generate", "--workload", "hash", "--operations", "30",
            "--lines", "65536", "--threads", "2", "-o", str(path),
        ]) == 0
        assert trace_main(["info", str(path)]) == 0

    def test_info_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing here\n")
        assert trace_main(["info", str(path)]) == 1

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            trace_main([])


class TestStarRun:
    def test_basic_run(self, capsys):
        assert run_main([
            "--workload", "array", "--operations", "100",
            "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "NVM writes" in out
        assert "IPC" in out

    def test_crash_and_audit(self, capsys):
        assert run_main([
            "--workload", "hash", "--operations", "150", "--crash",
            "--audit", "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit: all invariants hold" in out
        assert "verified=True, exact=True" in out

    def test_threads(self, capsys):
        assert run_main([
            "--workload", "queue", "--operations", "40",
            "--threads", "4", "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0
        assert "x4 threads" in capsys.readouterr().out

    def test_wear_leveling(self, capsys):
        assert run_main([
            "--workload", "array", "--operations", "200",
            "--wear-level", "20", "--memory-mb", "8",
            "--cache-kb", "8",
        ]) == 0

    def test_replay_trace(self, tmp_path, capsys):
        path = tmp_path / "r.trace"
        trace_main([
            "generate", "--workload", "btree", "--operations", "40",
            "--lines", "131072", "-o", str(path),
        ])
        capsys.readouterr()
        assert run_main([
            "--trace", str(path), "--scheme", "star",
            "--memory-mb", "8", "--cache-kb", "8", "--crash",
        ]) == 0
        assert "trace" in capsys.readouterr().out

    def test_scheme_choices(self):
        with pytest.raises(SystemExit):
            run_main(["--scheme", "bogus"])


class TestOperationsFlag:
    """``--operations`` below 1 is a usage error in every tool."""

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("tool", [
        lambda ops: run_main(["--operations", ops]),
        lambda ops: stats_main(["--operations", ops]),
        lambda ops: trace_main(["generate", "--workload", "hash",
                                "--operations", ops, "-o", "unused"]),
    ], ids=["star-run", "star-stats", "star-trace"])
    def test_non_positive_operations_exit_2(self, tool, value, capsys):
        with pytest.raises(SystemExit) as exc:
            tool(value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--operations: must be at least 1" in err
        assert "Traceback" not in err


class TestCountFlags:
    """Worker counts, case counts and timeouts outside their range are
    usage errors in star-lab and star-fuzz, not runs that misbehave."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "--grid", "ci_smoke", "--jobs", "0"],
         "--jobs: must be at least 1"),
        (["resume", "--jobs", "-2"], "--jobs: must be at least 1"),
        (["work", "--farm", "unused", "--jobs", "0"],
         "--jobs: must be at least 1"),
        (["run", "--grid", "ci_smoke", "--jobs", "2", "--timeout", "-1"],
         "--timeout: must be above 0"),
        (["resume", "--timeout", "0"], "--timeout: must be above 0"),
        (["work", "--farm", "unused", "--timeout", "0"],
         "--timeout: must be above 0"),
    ], ids=["run-jobs", "resume-jobs", "work-jobs", "run-timeout",
            "resume-timeout", "work-timeout"])
    def test_star_lab_rejects_bad_counts(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            lab_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["run", "--jobs", "-3"], "--jobs: must be at least 1"),
        (["run", "--cases", "0"], "--cases: must be at least 1"),
    ], ids=["jobs", "cases"])
    def test_star_fuzz_rejects_bad_counts(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            fuzz_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
