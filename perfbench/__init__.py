"""Benchmark of the nutaxis package: three workloads, end to end and per layer.

``perfbench/run.py`` is the entry point; ``perfbench/README.md`` records why
each workload was chosen and what each metric is expected to move.
"""
