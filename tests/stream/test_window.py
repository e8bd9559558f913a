"""The live-epoch window keeps its all-consumer floor at each release;
it must read what a scan of every consumer's release mark reads."""

from hypothesis import given, settings, strategies as st

from repro.stream.state import EpochWindow


def scanned_floor(marks, consumers, published, done):
    active = [c for c in consumers if c not in done]
    if not active:
        return published
    return min(marks.get(c, -1) for c in active)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=4, unique=True),
       st.lists(st.tuples(st.integers(0, 11), st.integers(-1, 6)),
                max_size=30),
       st.sets(st.integers(0, 11), max_size=3))
def test_kept_floor_equals_the_scan(consumers, releases, done):
    win = EpochWindow(consumers)
    marks: dict[int, int] = {}
    for consumer, upto in releases:
        win.publish()
        win.release(consumer, upto)
        if consumer not in marks or marks[consumer] < upto:
            marks[consumer] = upto
        for quorum_out in ((), done):
            want = scanned_floor(marks, win.consumers, win.published,
                                 quorum_out)
            assert win.floor(quorum_out) == want
            assert win.depth(quorum_out) == win.published - want
