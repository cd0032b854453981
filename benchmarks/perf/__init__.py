"""Simulator performance-trajectory harness (``BENCH_core.json``).

Not a pytest package: the suite measures CPU cost, so it runs as
``python -m benchmarks.perf.run`` (CI's ``perf-gate`` job), never under
the test runner; ``tests/test_perf_gate.py`` checks the harness on a
stub suite.
"""
