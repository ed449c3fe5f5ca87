"""The benchmark of record: seeded workloads, checked answers, per-layer ledger.

Run it with ``python -m bench`` from the repository root; README.md in this
directory describes the workloads, the metrics and how to compare commits.
"""
