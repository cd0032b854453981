"""Toolchain benchmark: end-to-end cost of four workloads and a
per-layer ledger (see README.md in this directory)."""
