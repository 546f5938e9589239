"""Benchmark of the gitgr command line and library, run from a checkout.

``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
imports gitgr from ``src/``, forks one child per request and prints one
JSON result line last.  See ``perfbench/README.md`` for the workloads, the
metrics and how outputs are checked.
"""
