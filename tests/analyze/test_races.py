"""Wildcard-race detection: seeded races fire, clean runs are silent."""

from repro.analyze import analyze_obs, find_races
from repro.faults import FaultPlan, MessageFaultRule
from repro.simmpi import ANY_SOURCE, run_world
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
    rival = (dict(t_recv=1.1, spec=(-1, 0), candidates=(r_id,))
             if rival_matched_same_stream else {})
    return StubObs(messages=[
        msg(w_id, src=2, dst=0, t_post=winner_post, t_arrival=winner_arr,
            t_recv=1.0, spec=(-1, 0), candidates=(w_id, r_id)),
        msg(r_id, src=1, dst=0, t_post=rival_post, t_arrival=rival_arr,
            **rival)])


class TestDefinition:
    def test_post_order_preserving_pair_is_not_a_race(self):
        obs = _two_candidate_match(winner_post=0.1, winner_arr=0.2,
                                   rival_post=0.3, rival_arr=0.4)
        assert find_races(obs) == []

    def test_inversion_is_a_race_even_within_one_stream(self):
        obs = _two_candidate_match(winner_post=0.3, winner_arr=0.2,
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
        # rank 1 sends m1 to rank 2; rank 2 receives it, then sends m2
        # to rank 0. A forged candidate set pairs m1 and m2, and a
        # forged arrival makes it an inversion on paper: m2 posted
        # later, "arrives" earlier.
        obs = StubObs(messages=[
            msg(1, src=1, dst=2, t_post=0.1, t_arrival=0.15, t_recv=0.2),
            msg(2, src=2, dst=0, t_post=0.3, t_arrival=0.12, t_recv=1.0,
                spec=(-1, 0), candidates=(1, 2))])
        assert find_races(obs) == []
