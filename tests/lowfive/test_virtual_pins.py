"""Exact virtual results of the LowFive paths that no reference row or
bench workload covers: producer push, staging, ``mode="both"`` and a
backpressured stream.

A refactor of the VOL stack must leave ``(vtime, messages,
bytes_sent)`` of each bit-identical; a change that moves one states the
move and the new value here.
"""

import hashlib
import json

import pytest

from repro.analyze import analyze_obs
from repro.bench.drivers import lowfive_workflow, stream_workflow
from repro.perfmodel.transports import THETA_KNL
from repro.pfs import PFSStore
from repro.synth import SyntheticWorkload
from tests.analyze.schedfuzz import causal_table
from tests.lowfive.test_extensions import build_workflow as build_direct
from tests.lowfive.test_staged import build as build_staged


def virtual(res):
    return res.vtime, res.messages, res.bytes_sent


class TestPush:
    def test_push_3_to_2(self):
        res = build_direct(3, 2, push=True)
        assert all(ok for ok, _ in res.returns["consumer"])
        assert virtual(res) == (0.4180433114578607, 16, 2278)


class TestStaged:
    @pytest.mark.parametrize("nprod, ncons, nstage, pinned", [
        (3, 2, 1, (0.00010649448399091428, 20, 3939)),
        (4, 2, 2, (0.00011609565594494878, 38, 5272)),
    ])
    def test_staged(self, nprod, ncons, nstage, pinned):
        res = build_staged(nprod, ncons, nstage)
        assert all(res.returns["consumer"])
        assert virtual(res) == pinned


@pytest.fixture(scope="module")
def both():
    """The workload of ``repro.tools run --example fig5 --mode both``."""
    wf = lowfive_workflow(4, 2, SyntheticWorkload(4096, 2048),
                          THETA_KNL, "both", PFSStore())
    res = wf.run(model=THETA_KNL.net)
    assert all(res.returns["consumer"])
    return res


class TestBoth:
    def test_fig5_both_4_to_2(self, both):
        # The producers announce a file on disk only to consumers that
        # read it from disk: with the file also in memory, none do.
        assert virtual(both) == (3.442882785699048, 44, 235542)

    def test_fig5_both_has_no_findings(self, both):
        assert analyze_obs(both.obs) == []


class TestStream:
    def test_backpressured_4_to_4(self):
        # max_lag=1: every producer waits on the slowest consumer's
        # release, so the serve loop answers queries inside the
        # backpressure gate as well as at the final drain.
        res = stream_workflow(4, 4, 6, max_lag=1).run()
        for seen, _ in res.returns["consumer"]:
            assert seen == [(step, True) for step in range(6)]
        assert res.obs.spans.spans(name="stream.backpressure")
        assert virtual(res) == (3.2408251082581807, 332, 51840)
        doc = json.dumps(causal_table(res.obs), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "3fc6493a02a68b0a41dd63839524fac141a0f9d8c456f088a0756ee554313e0a")
