"""Command-line tools: ``star-run``, ``star-stats`` and ``star-trace``.

(The evaluation-reproduction CLI ``star-bench`` lives in
:mod:`repro.bench.cli`; ``star-stats`` pretty-prints a run's telemetry
— metrics, histograms, span tree, event log — from :mod:`repro.obs`.)
"""

import argparse


def positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1, so a bad
    ``--operations`` is a usage error (exit 2), not a traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 1, got %d" % value)
    return value


def positive_float(text: str) -> float:
    """argparse ``type=`` for durations, which must be above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid float value: %r" % text) from None
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError("must be above 0, got %s" % text)
    return value
