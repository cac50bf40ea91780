"""Benchmark of the Montage cost reproduction; see run.py."""
