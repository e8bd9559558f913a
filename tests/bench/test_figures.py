"""The paper contract, :mod:`repro.bench.figures`, at the paper's scales.

Every shape must hold, and each entry's modeled section must equal the
head of its committed ``results/`` file byte for byte (all of it for a
table without executed points), which pins every printed number.
"""

import os

import pytest

from repro.bench.figures import EXHIBITS, render

RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "results")
SHAPES = [(ex, claim, holds) for ex in EXHIBITS for claim, holds in ex.shapes]


@pytest.fixture(scope="module")
def values():
    """Every entry's series, evaluated once."""
    return {ex.name: ex.evaluate() for ex in EXHIBITS}


@pytest.mark.parametrize("ex,claim,holds", SHAPES, ids=[
    f"{e.name.split('_')[0]}: {c}" for e, c, _ in SHAPES])
def test_shape(ex, claim, holds, values):
    assert holds(values[ex.name]), claim


@pytest.mark.parametrize("ex", EXHIBITS, ids=[ex.name for ex in EXHIBITS])
def test_modeled_section(ex, values):
    section = render(ex, values[ex.name])
    with open(os.path.join(RESULTS, ex.name), encoding="utf-8") as f:
        committed = f.read()
    if ex.executed is None:
        assert committed == section
    else:
        assert committed.startswith(section + "\n")
