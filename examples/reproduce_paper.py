#!/usr/bin/env python
"""Reproduce every table and figure of the paper in one command.

Prints Table I, Figures 5-9 and 11 (tables + ASCII log-log plots) and
Table II from the analytic models at the paper's full scales, seconds
of laptop time instead of supercomputer allocations. The executed,
data-validating points of the same experiments are written to
``results/`` by ``PYTHONPATH=src python -m pytest benchmarks -q``.

Run:  PYTHONPATH=src python examples/reproduce_paper.py
"""

from repro.bench.figures import EXHIBITS, render

if __name__ == "__main__":
    for ex in EXHIBITS:
        print(render(ex, ex.evaluate()))
