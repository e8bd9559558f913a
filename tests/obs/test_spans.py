"""Span recorder: nesting, parent links, per-rank stacks."""

from repro.obs import span
from repro.obs.spans import SpanRecorder
from repro.simmpi import run_world


class TestBasics:
    def test_begin_end_records_span(self):
        rec = SpanRecorder()
        h = rec.begin(0, "work", "test", 1.0, {"k": "v"})
        ev = rec.end(h, 3.5)
        assert ev.name == "work" and ev.cat == "test"
        assert ev.rank == 0
        assert ev.duration == 2.5
        assert ev.labels == {"k": "v"}
        assert ev.parent_id is None
        assert rec.spans() == [ev]

    def test_span_ids_unique(self):
        rec = SpanRecorder()
        ids = set()
        for _ in range(10):
            h = rec.begin(0, "s", "", 0.0)
            ids.add(rec.end(h, 1.0).span_id)
        assert len(ids) == 10

    def test_add_and_instant(self):
        rec = SpanRecorder()
        ev = rec.add("direct", "cat", 2, 0.0, 1.0)
        i = rec.instant("tick", "cat", 2, 0.5, {"n": 1})
        assert rec.spans() == [ev]
        assert rec.instants() == [i]
        assert i.t == 0.5 and i.labels == {"n": 1}


class TestNesting:
    def test_child_links_to_parent(self):
        rec = SpanRecorder()
        outer = rec.begin(0, "outer", "", 0.0)
        inner = rec.begin(0, "inner", "", 1.0)
        in_ev = rec.end(inner, 2.0)
        out_ev = rec.end(outer, 3.0)
        assert in_ev.parent_id == out_ev.span_id
        assert out_ev.parent_id is None
        assert rec.children_of(out_ev.span_id) == [in_ev]

    def test_three_levels(self):
        rec = SpanRecorder()
        a = rec.begin(0, "a", "", 0.0)
        b = rec.begin(0, "b", "", 0.0)
        c = rec.begin(0, "c", "", 0.0)
        ce = rec.end(c, 1.0)
        be = rec.end(b, 1.0)
        ae = rec.end(a, 1.0)
        assert ce.parent_id == be.span_id
        assert be.parent_id == ae.span_id

    def test_siblings_share_parent(self):
        rec = SpanRecorder()
        p = rec.begin(0, "p", "", 0.0)
        s1 = rec.end(rec.begin(0, "s1", "", 0.0), 1.0)
        s2 = rec.end(rec.begin(0, "s2", "", 1.0), 2.0)
        pe = rec.end(p, 2.0)
        assert s1.parent_id == pe.span_id == s2.parent_id
        assert {s.name for s in rec.children_of(pe.span_id)} == {"s1", "s2"}

    def test_add_parent_is_explicit(self):
        # add() does not adopt an open span as its parent; the link is
        # opt-in.
        rec = SpanRecorder()
        p = rec.begin(0, "p", "", 0.0)
        orphan = rec.add("measured", "", 0, 0.2, 0.8)
        child = rec.add("measured2", "", 0, 0.2, 0.8,
                        parent_id=p.span_id)
        rec.end(p, 1.0)
        assert orphan.parent_id is None
        assert child.parent_id == p.span_id

    def test_end_pops_unclosed_children(self):
        rec = SpanRecorder()
        outer = rec.begin(0, "outer", "", 0.0)
        rec.begin(0, "leaked", "", 0.5)  # never ended
        rec.end(outer, 1.0)
        after = rec.end(rec.begin(0, "next", "", 2.0), 3.0)
        assert after.parent_id is None  # stack fully unwound


class TestRanks:
    def test_stacks_are_per_rank_across_a_handoff(self):
        def main(comm):
            if comm.rank == 0:
                with span(comm, "outer"):
                    comm.recv(source=1)  # rank 1 runs with this open
                    with span(comm, "inner"):
                        comm.send("done", dest=1)
            else:
                with span(comm, "outer"), span(comm, "inner"):
                    comm.send("go", dest=0)
                    comm.recv(source=0)  # rank 0 runs with these open

        spans = run_world(2, main).obs.spans
        for rank in range(2):
            inner, = spans.spans(name="inner", rank=rank)
            outer, = spans.spans(name="outer", rank=rank)
            # Parent is this rank's outer span, not the other's.
            assert inner.parent_id == outer.span_id
            assert outer.parent_id is None


class TestQueries:
    def _populated(self):
        rec = SpanRecorder()
        rec.add("lowfive.index", "lowfive", 0, 0.0, 1.0, {"file": "a.h5"})
        rec.add("lowfive.query", "lowfive", 1, 0.0, 2.0, {"file": "a.h5"})
        rec.add("pfs.write", "pfs", 0, 0.0, 4.0, {"file": "b.h5"})
        return rec

    def test_filter_by_cat_name_rank(self):
        rec = self._populated()
        assert len(rec.spans(cat="lowfive")) == 2
        assert len(rec.spans(name="pfs.write")) == 1
        assert len(rec.spans(rank=0)) == 2
        assert len(rec.spans(cat="lowfive", rank=1)) == 1

    def test_filter_by_labels(self):
        rec = self._populated()
        assert len(rec.spans(file="a.h5")) == 2
        assert rec.spans(file="nope") == []

    def test_total_sums_durations(self):
        rec = self._populated()
        assert rec.total(cat="lowfive") == 3.0
        assert rec.total() == 7.0
        assert rec.total(name="missing") == 0.0
