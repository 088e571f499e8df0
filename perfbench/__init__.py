"""Steady end-to-end and per-layer benchmark of the repro package.

Run ``python3 perfbench/run.py --workload NAME`` from the repository root;
``perfbench/NOTES.md`` explains the workloads and metrics.
"""
