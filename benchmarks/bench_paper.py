"""Regenerate the ``results/`` file of every paper table and figure:
each entry of :data:`repro.bench.figures.EXHIBITS` runs its executed
points, which check themselves, and writes its modeled section and
their lines. ``PYTHONPATH=src python -m pytest benchmarks -q`` from the
repo root must leave ``git diff --exit-code results/`` clean.
"""

import pytest

from repro.bench import write_result
from repro.bench.figures import EXHIBITS, render


@pytest.mark.parametrize("ex", EXHIBITS, ids=[ex.name for ex in EXHIBITS])
def test_regenerate(ex):
    text = render(ex, ex.evaluate())
    if ex.executed is not None:
        text = "\n".join([text, *ex.executed()]) + "\n"
    write_result(ex.name, text)
