"""Wildcard-race detection: seeded races fire, clean runs are silent,
and candidate sets are rebuilt from the message record in virtual time."""

from repro.analyze import analyze_obs, find_races
from repro.analyze.races import candidate_sets
from repro.faults import FaultPlan, MessageFaultRule
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_world
from tests.analyze.tracestub import StubObs, msg


def busy_receiver(comm):
    """Ranks 1..n-1 send to rank 0 while it computes, so every message
    is queued before the first wildcard match."""
    if comm.rank == 0:
        comm.barrier()
        comm.compute(50e-3)
        return [comm.recv(source=ANY_SOURCE, tag=0)[0]
                for _ in range(comm.size - 1)]
    comm.compute(comm.rank * 1e-3)  # rank 1 posts first
    comm.send(comm.rank, dest=0, tag=0)
    comm.barrier()
    return None


def delay_rank1():
    """Deterministically delay rank 1's message past rank 2's arrival."""
    return FaultPlan(0, messages=[
        MessageFaultRule(src=1, dst=0, p_delay=1.0, max_delay=10e-3)])


def first_wildcard_recv(obs, rank):
    return next(e for e in obs.causal.edges()
                if e.dst == rank and e.spec is not None)


class TestSeededRace:
    def test_fault_delay_fires_with_candidate_set(self):
        res = run_world(3, busy_receiver, faults=delay_rank1(),
                        timeout=30.0)
        findings = analyze_obs(res.obs)
        races = [f for f in findings if f.kind == "wildcard-race"]
        assert len(races) == 1
        f = races[0]
        assert f.rank == 0
        # the full candidate set is named, including the losing rival
        cands = {c["msg_id"] for c in f.detail["candidates"]}
        rivals = f.detail["rivals"]
        assert len(cands) == 2 and len(rivals) == 1
        assert rivals[0]["why"] == "arrival order inverts post order"
        assert rivals[0]["msg_id"] in cands

    def test_rival_is_the_sender_the_clean_run_takes(self):
        """The delay flips the first receive's sender; the rival the
        finding names is the one that receive takes without it."""
        clean = run_world(3, busy_receiver, timeout=30.0)
        seeded = run_world(3, busy_receiver, faults=delay_rank1(),
                           timeout=30.0)
        f, = find_races(seeded.obs)
        assert f.detail["chosen"] == \
            first_wildcard_recv(seeded.obs, 0).msg_id
        rival, = f.detail["rivals"]
        assert rival["src"] == first_wildcard_recv(clean.obs, 0).src == 1

    def test_same_seed_runs_report_identical_findings(self):
        runs = [run_world(3, busy_receiver, faults=delay_rank1(),
                          timeout=30.0) for _ in range(2)]
        a, b = ([f.to_dict() for f in analyze_obs(r.obs)] for r in runs)
        assert a == b

    def test_clean_run_is_silent(self):
        res = run_world(3, busy_receiver, timeout=30.0)
        assert analyze_obs(res.obs) == []


def _two_candidate_match(winner_post, winner_arr, rival_post, rival_arr,
                         rival_matched_same_stream=True):
    """A trace with one 2-candidate wildcard match on rank 0; the rival
    either drains into the same stream later or is never received."""
    w_id, r_id = 10, 20
    rival = (dict(t_recv=1.1, spec=(-1, 0))
             if rival_matched_same_stream else {})
    obs = StubObs(messages=[
        msg(w_id, src=2, dst=0, t_post=winner_post, t_arrival=winner_arr,
            t_recv=1.0, spec=(-1, 0)),
        msg(r_id, src=1, dst=0, t_post=rival_post, t_arrival=rival_arr,
            **rival)])
    assert _ids(obs, w_id) == [w_id, r_id]
    return obs


def _ids(obs, msg_id):
    return [c.msg_id for c in candidate_sets(obs.causal)[msg_id]]


class TestDefinition:
    def test_post_order_preserving_pair_is_not_a_race(self):
        # The rival is posted before the match but arrives after it.
        obs = _two_candidate_match(winner_post=0.1, winner_arr=0.2,
                                   rival_post=0.15, rival_arr=0.4)
        assert find_races(obs) == []

    def test_inversion_is_a_race_even_within_one_stream(self):
        obs = _two_candidate_match(winner_post=0.3, winner_arr=0.35,
                                   rival_post=0.1, rival_arr=0.4)
        races = find_races(obs)
        assert len(races) == 1
        assert races[0].detail["rivals"][0]["why"] == \
            "arrival order inverts post order"

    def test_same_stream_tie_is_not_a_race(self):
        obs = _two_candidate_match(winner_post=0.1, winner_arr=0.2,
                                   rival_post=0.1, rival_arr=0.2)
        assert find_races(obs) == []

    def test_tie_with_unreceived_rival_is_a_race(self):
        obs = _two_candidate_match(winner_post=0.1, winner_arr=0.2,
                                   rival_post=0.1, rival_arr=0.2,
                                   rival_matched_same_stream=False)
        races = find_races(obs)
        assert len(races) == 1
        assert races[0].detail["rivals"][0]["why"] == "arrival tie"

    def test_causally_ordered_candidates_are_not_racy(self):
        """If the rival's send happens-before the winner's send, the
        pair is ordered no matter what the arrival times say."""
        # Rank 1 sends m1 to rank 0, then m3 to rank 2; rank 2 receives
        # m3, then sends m2 to rank 0. A forged arrival makes m1/m2 an
        # inversion on paper: m1 posted earlier, "arrives" later.
        obs = StubObs(messages=[
            msg(3, src=1, dst=2, t_post=0.15, t_arrival=0.16, t_recv=0.2),
            msg(2, src=2, dst=0, t_post=0.3, t_arrival=0.31, t_recv=1.0,
                spec=(-1, 0)),
            msg(1, src=1, dst=0, t_post=0.1, t_arrival=0.5, t_recv=1.1,
                spec=(-1, 0))])
        assert _ids(obs, 2) == [1, 2]
        assert find_races(obs) == []


class TestCandidateRule:
    """The candidates of wildcard receive W are rebuilt from the record:
    same rank and comm, matching W's spec, posted by W's match time, not
    received before W, and only the head of each ``(src, tag)`` group."""

    def test_message_posted_after_the_match_is_not_a_candidate(self):
        obs = StubObs(messages=[
            msg(1, src=1, dst=0, t_post=0.1, t_arrival=0.2, t_recv=0.3,
                spec=(-1, 0)),
            msg(2, src=2, dst=0, t_post=0.2, t_arrival=0.25),
            msg(3, src=3, dst=0, t_post=0.21, t_arrival=0.22)])
        assert _ids(obs, 1) == [1, 2]

    def test_message_received_before_the_winner_is_not_a_candidate(self):
        obs = StubObs(messages=[
            msg(2, src=2, dst=0, t_post=0.1, t_arrival=0.1, t_recv=0.2),
            msg(1, src=1, dst=0, t_post=0.1, t_arrival=0.15, t_recv=0.3,
                spec=(-1, 0)),
            msg(3, src=3, dst=0, t_post=0.1, t_arrival=0.18, t_recv=0.4,
                spec=(-1, 0))])
        assert _ids(obs, 1) == [1, 3]
        assert _ids(obs, 3) == [3]

    def test_only_the_head_of_each_src_tag_group_is_a_candidate(self):
        obs = StubObs(messages=[
            msg(1, src=1, dst=0, t_post=0.0, t_arrival=0.1, t_recv=0.2,
                spec=(-1, -1)),
            msg(5, src=2, dst=0, t_post=0.0, t_arrival=0.15),
            msg(4, src=2, dst=0, t_post=0.0, t_arrival=0.15),
            msg(3, src=2, dst=0, t_post=0.0, t_arrival=0.17),
            msg(6, src=2, dst=0, tag=7, t_post=0.0, t_arrival=0.3)])
        assert _ids(obs, 1) == [1, 4, 6]

    def test_spec_destination_and_comm_filter_candidates(self):
        obs = StubObs(messages=[
            msg(1, src=1, dst=0, tag=4, t_post=0.0, t_arrival=0.1,
                t_recv=0.2, spec=(1, -1)),
            msg(2, src=1, dst=0, tag=5, t_post=0.0, t_arrival=0.1),
            msg(3, src=2, dst=0, tag=4, t_post=0.0, t_arrival=0.1),
            msg(4, src=1, dst=3, tag=4, t_post=0.0, t_arrival=0.1),
            msg(5, src=1, dst=0, tag=6, comm_id=9, t_post=0.0,
                t_arrival=0.1)])
        assert _ids(obs, 1) == [1, 2]
        obs = StubObs(messages=[
            msg(1, src=1, dst=0, tag=4, t_post=0.0, t_arrival=0.1,
                t_recv=0.2, spec=(-1, 4)),
            msg(2, src=2, dst=0, tag=4, t_post=0.0, t_arrival=0.1),
            msg(3, src=3, dst=0, tag=5, t_post=0.0, t_arrival=0.1)])
        assert _ids(obs, 1) == [1, 2]


def _assert_rule(obs):
    """Every rebuilt set is exactly what the rule names, checked by brute
    force over the whole record."""
    edges = obs.causal.edges()
    order = {e.msg_id: i for i, e in enumerate(edges)}
    sets = candidate_sets(obs.causal)
    wild = [e for e in edges if e.spec is not None]
    assert wild and set(sets) == {e.msg_id for e in wild}
    for i, w in ((order[e.msg_id], e) for e in wild):
        source, tag = w.spec
        eligible = [
            m for m in obs.causal.messages()
            if m.dst == w.dst and m.comm_id == w.comm_id
            and (source == ANY_SOURCE or m.src == w.src)
            and (tag == ANY_TAG or m.tag == w.tag)
            and m.t_post <= max(w.t_recv_start, w.t_arrival)
            and order.get(m.msg_id, i) >= i]
        heads = {}
        for m in eligible:
            k = (m.src, m.tag)
            if k not in heads or (m.t_arrival, m.msg_id) < (
                    heads[k].t_arrival, heads[k].msg_id):
                heads[k] = m
        got = [c.msg_id for c in sets[w.msg_id]]
        assert got == sorted(m.msg_id for m in heads.values())
        assert w.msg_id in got


class TestRebuiltSetsOnRealRuns:
    def test_halo_ring(self):
        def ring(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for step in range(4):
                comm.send(step, dest=right, tag=1)
                comm.send(step, dest=left, tag=2)
                comm.recv(source=left, tag=1)
                comm.recv(source=ANY_SOURCE, tag=2)

        _assert_rule(run_world(6, ring, timeout=30.0).obs)

    def test_lowfive_memory_48_16(self):
        """The fig5 shape at P = 64: over a thousand wildcard matches
        through the ``(ANY_SOURCE, tag)`` serve lanes."""
        from repro.tools import run_workload, workload_args

        res = run_workload(workload_args(nprod=48, ncons=16))
        assert sum(e.spec is not None for e in res.obs.causal.edges()) \
            > 1000
        _assert_rule(res.obs)
        assert find_races(res.obs) == []
