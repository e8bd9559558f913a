"""Dynamic cross-validation of the PRO00x corpus.

Each known-bad exemplar under ``proto_corpus/`` is not just a string
the static checker happens to flag -- it is a *real* workflow whose
bug is observable at runtime. These tests execute every exemplar and
assert the dynamic layer reaches the same verdict the static one
predicted: the PRO001 file trips the ``collective-mismatch`` check,
the PRO002 file the ``message-leak`` check, the PRO003 file deadlocks
with the *same* wait-for cycle the static witness printed, the PRO004
file leaks its retained epoch, and the PRO005 file starves its
receiver. That agreement is what makes the static rules trustworthy.
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
from repro.analyze.proto import check_source
from repro.simmpi import DeadlockError

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "proto_corpus")


def load_corpus(name):
    """Import a corpus file as a throwaway module."""
    path = os.path.join(CORPUS, name + ".py")
    spec = importlib.util.spec_from_file_location(
        f"proto_corpus_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def static_findings(name):
    with open(os.path.join(CORPUS, name + ".py"),
              encoding="utf-8") as fh:
        return check_source(fh.read(), name + ".py")


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

    def test_pro003_static_cycle_matches_dynamic_deadlock(self):
        """The strongest agreement: the static witness and the
        runtime :class:`DeadlockError` render the identical cycle,
        because both run ``find_cycle`` over the same wait-for
        shape."""
        cycle = "wait-for cycle: 0 -> 2 -> 1 -> 0"
        [finding] = static_findings("bad_pro003")
        assert finding.rule == "PRO003"
        assert f"static {cycle}" in finding.message
        with pytest.raises(DeadlockError) as exc:
            load_corpus("bad_pro003").build_workflow().run(timeout=3600)
        assert cycle in str(exc.value)

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
