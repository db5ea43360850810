"""Benchmark harness for the tarsim commands (see bench/run.py)."""
