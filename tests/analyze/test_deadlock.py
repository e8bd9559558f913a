"""DeadlockError explanations: wait-for cycle and per-rank specs."""

import pytest

from repro.analyze.deadlock import find_cycle
from repro.simmpi import DeadlockError, run_world


class TestExplainer:
    def test_mutual_recv_names_cycle_and_specs(self):
        """Two ranks receiving from each other: the error names the
        wait-for cycle and each rank's (comm, source, tag) spec."""

        def main(comm):
            peer = 1 - comm.rank
            return comm.recv(source=peer, tag=7)

        with pytest.raises(DeadlockError) as exc:
            run_world(2, main, timeout=3600)
        msg = str(exc.value)
        assert "blocked ranks:" in msg
        assert "wait-for cycle: 0 -> 1 -> 0" in msg
        # each blocked rank's receive spec is spelled out
        assert "recv (comm 1, source 1, tag 7)" in msg
        assert "recv (comm 1, source 0, tag 7)" in msg

    def test_starved_rank_without_cycle_is_explained(self):
        """One rank waiting on a peer that exited: blocked, no cycle."""

        def main(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=3)
            return None  # exits without sending

        with pytest.raises(DeadlockError) as exc:
            run_world(2, main, timeout=3600)
        msg = str(exc.value)
        assert "rank 0" in msg
        assert "recv (comm 1, source 1, tag 3)" in msg
        assert "no wait-for cycle" in msg

    def test_hung_collective_reads_the_same_on_every_round(self):
        """Collective wait descriptions are built once per (kind, rank)
        and reused: the second barrier's explanation names each
        waiter's own peers, exactly as a fresh description would."""

        def main(comm):
            comm.barrier()
            if comm.rank == 2:
                return comm.recv(source=0, tag=4)
            comm.compute(1e-3 * (comm.rank + 1))
            comm.barrier()
            return None

        with pytest.raises(DeadlockError) as exc:
            run_world(3, main, timeout=3600)
        assert str(exc.value) == "\n".join([
            "deadlock: every live rank is blocked and no queued message "
            "can wake one",
            "blocked ranks:",
            "  rank 0 @ 0.001010461s: waiting for collective barrier "
            "(comm 1)",
            "  rank 1 @ 0.002010461s: waiting for collective barrier "
            "(comm 1)",
            "  rank 2 @ 0.000010461s: waiting for recv (comm 1, source 0, "
            "tag 4)",
            "wait-for cycle: 0 -> 1 -> 0",
            "  rank 0 blocks on collective barrier (comm 1)",
            "  rank 1 blocks on collective barrier (comm 1)",
        ])


class TestFindCycle:
    def _graph(self, edges):
        """rank -> (desc=None, wakers) adjacency."""
        return {r: (None, tuple(w)) for r, w in edges.items()}

    def test_two_cycle(self):
        g = self._graph({0: [1], 1: [0]})
        assert find_cycle(g) == [0, 1, 0]

    def test_three_cycle_found_deterministically(self):
        g = self._graph({0: [1], 1: [2], 2: [0]})
        assert find_cycle(g) == [0, 1, 2, 0]

    def test_chain_has_no_cycle(self):
        # 0 waits on 1, 1 waits on 2; 2 is not blocked (absent)
        g = self._graph({0: [1], 1: [2]})
        assert find_cycle(g) is None

    def test_self_loop(self):
        g = self._graph({3: [3]})
        assert find_cycle(g) == [3, 3]

    def test_cycle_reachable_only_through_prefix(self):
        # 0 -> 1 -> 2 -> 1: the cycle is [1, 2, 1], entered from 0
        g = self._graph({0: [1], 1: [2], 2: [1]})
        assert find_cycle(g) == [1, 2, 1]
