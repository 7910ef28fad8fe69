"""Benchmark for geomfree; run it with `python3 perfbench/run.py` (see README.md)."""
