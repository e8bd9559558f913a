"""One run of the reference-run gate (``benchmarks/bench_gate.py``),
shared by the tests of its document, invariants and reference."""

import contextlib
import importlib.util
import io
import json
import os
from types import SimpleNamespace

import pytest

_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "benchmarks",
)


@pytest.fixture(scope="session")
def bench_ref():
    """Path of the committed reference, ``benchmarks/BENCH_ref.json``."""
    return os.path.join(_BENCH, "BENCH_ref.json")


@pytest.fixture(scope="session")
def gate():
    """``benchmarks/bench_gate.py`` as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_gate", os.path.join(_BENCH, "bench_gate.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def gate_run(gate, tmp_path_factory):
    """Exit status, document, stdout and file paths of one gate run."""
    out = tmp_path_factory.mktemp("gate")
    path, ledger = str(out / "gate.json"), str(out / "ledger.jsonl")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gate.main(["--output", path, "--ledger", ledger])
    with open(path) as f:
        doc = json.load(f)
    return SimpleNamespace(rc=rc, doc=doc, stdout=buf.getvalue(),
                           path=path, ledger=ledger)
