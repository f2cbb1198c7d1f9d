"""End-to-end benchmark suite: four workloads, per-layer tracing from outside.

``benchmarks/suite/run.py`` measures one workload in one process and prints
one JSON result line; ``python -m benchmarks.suite run`` repeats runs of
every workload in fresh subprocesses and aggregates them, and
``python -m benchmarks.suite compare`` diffs two aggregated result files.
See ``README.md`` in this directory.
"""
