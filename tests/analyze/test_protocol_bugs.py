"""Protocol bugs caught by running them.

Each ``bad_*`` file under ``protocol_bugs/`` is a real workflow with
one protocol bug, and each test runs it and asserts the dynamic
verdict: a collective divergence trips the ``collective-mismatch``
check, an orphan send the ``message-leak`` check, a recv-first ring
deadlocks with its wait-for cycle named, a retained epoch leaks, and
a tag confusion starves its receiver. The ``ok_*`` files are the
correct shapes and run clean.
"""

import importlib.util
import os

import pytest

from repro.analyze import (
    COLLECTIVE_MISMATCH,
    EPOCH_LEAK,
    MESSAGE_LEAK,
    analyze_obs,
)
from repro.simmpi import DeadlockError

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "protocol_bugs")


def load_corpus(name):
    """Import a corpus file as a throwaway module."""
    path = os.path.join(CORPUS, name + ".py")
    spec = importlib.util.spec_from_file_location(
        f"protocol_bugs_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBadExemplarsMisbehaveForReal:
    def test_pro001_collective_divergence_fires_dynamic_mismatch(self):
        res = load_corpus("bad_pro001").build_workflow().run(
            timeout=30.0)
        kinds = [f.kind for f in analyze_obs(res.obs)]
        assert COLLECTIVE_MISMATCH in kinds

    def test_pro002_unmatched_send_fires_dynamic_leak(self):
        res = load_corpus("bad_pro002").build_workflow().run(
            timeout=30.0)
        leaks = [f for f in analyze_obs(res.obs)
                 if f.kind == MESSAGE_LEAK]
        assert leaks, "orphan send must surface as a message leak"

    def test_pro003_recv_first_ring_deadlock_names_cycle(self):
        with pytest.raises(DeadlockError) as exc:
            load_corpus("bad_pro003").build_workflow().run(timeout=3600)
        assert "wait-for cycle: 0 -> 2 -> 1 -> 0" in str(exc.value)

    def test_pro004_retained_epoch_fires_dynamic_epoch_leak(self):
        res = load_corpus("bad_pro004").build_workflow().run(
            timeout=60.0)
        leaks = [f for f in analyze_obs(res.obs)
                 if f.kind == EPOCH_LEAK]
        assert len(leaks) == 1
        assert leaks[0].detail["epoch"] == 1

    def test_pro005_tag_confusion_starves_the_receiver(self):
        with pytest.raises(DeadlockError) as exc:
            load_corpus("bad_pro005").build_workflow().run(timeout=3600)
        # No cycle here -- the sender exits cleanly and rank 1 waits
        # on a tag that can never match.
        assert "no wait-for cycle" in str(exc.value)


class TestOkExemplarsRunClean:
    def test_ok_ring_completes_without_findings(self):
        res = load_corpus("ok_ring").build_workflow().run(timeout=30.0)
        assert analyze_obs(res.obs) == []

    def test_ok_rank_guards_completes_without_findings(self):
        res = load_corpus("ok_rank_guards").build_workflow().run(
            timeout=30.0)
        assert analyze_obs(res.obs) == []
