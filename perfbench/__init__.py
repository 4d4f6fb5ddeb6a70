"""Repository benchmark harness; the entry point is ``perfbench/run.py``."""
