"""ANL00x lint rules: detection, suppression, allowlists."""

from repro.analyze.lint import (
    DEFAULT_ALLOWLIST,
    RULES,
    lint_paths,
    lint_source,
)


def codes(src, path="x.py", skip=frozenset()):
    return [v.code for v in lint_source(src, path, skip)]


class TestWallClock:
    def test_time_module_calls_flagged(self):
        src = ("import time\n"
               "def f():\n"
               "    return time.monotonic() + time.perf_counter()\n")
        assert codes(src) == ["ANL001", "ANL001"]

    def test_from_import_alias_resolved(self):
        src = ("from time import perf_counter as pc\n"
               "def f():\n"
               "    return pc()\n")
        assert codes(src) == ["ANL001"]

    def test_datetime_now_flagged(self):
        src = ("import datetime\n"
               "def f():\n"
               "    return datetime.datetime.now()\n")
        assert codes(src) == ["ANL001"]

    def test_virtual_time_calls_pass(self):
        src = ("def f(comm):\n"
               "    comm.compute(1e-3)\n"
               "    return comm.clock\n")
        assert codes(src) == []


class TestRequests:
    def test_discarded_request_flagged(self):
        src = ("def f(comm):\n"
               "    comm.isend(1, dest=0)\n")
        assert codes(src) == ["ANL002"]

    def test_never_waited_name_flagged(self):
        src = ("def f(comm):\n"
               "    r = comm.irecv(source=0)\n"
               "    return None\n")
        assert codes(src) == ["ANL002"]

    def test_waited_request_passes(self):
        src = ("def f(comm):\n"
               "    r = comm.irecv(source=0)\n"
               "    return r.wait()\n")
        assert codes(src) == []

    def test_tested_request_passes(self):
        src = ("def f(comm):\n"
               "    r = comm.isend(1, dest=0)\n"
               "    while not r.test():\n"
               "        pass\n")
        assert codes(src) == []

    def test_escaping_request_passes(self):
        src = ("def f(comm, reqs):\n"
               "    r = comm.isend(1, dest=0)\n"
               "    reqs.append(r)\n"
               "    s = comm.isend(2, dest=1)\n"
               "    return s\n")
        assert codes(src) == []

    def test_comprehension_container_waited_passes(self):
        src = ("def f(comm, wait_all):\n"
               "    reqs = [comm.isend(i, dest=i) for i in range(4)]\n"
               "    wait_all(reqs)\n")
        assert codes(src) == []

    def test_dropped_container_of_requests_flagged(self):
        """A list built from isend results that nobody waits leaks
        every request in it -- the pre-rework false negative."""
        src = ("def f(comm):\n"
               "    reqs = [comm.isend(i, dest=i) for i in range(4)]\n"
               "    return None\n")
        assert codes(src) == ["ANL002"]

    def test_literal_container_drop_flags_each_request(self):
        src = ("def f(comm):\n"
               "    reqs = [comm.isend(1, dest=0), comm.isend(2, dest=1)]\n")
        assert codes(src) == ["ANL002", "ANL002"]

    def test_append_to_local_container_still_tracked(self):
        """``append`` onto a *local* list is not an escape: the list
        must still reach a wait."""
        src = ("def f(comm):\n"
               "    reqs = []\n"
               "    for i in range(3):\n"
               "        reqs.append(comm.isend(i, dest=i))\n")
        assert codes(src) == ["ANL002"]

    def test_iterated_container_counts_as_waited(self):
        src = ("def f(comm):\n"
               "    reqs = []\n"
               "    for i in range(3):\n"
               "        reqs.append(comm.isend(i, dest=i))\n"
               "    for r in reqs:\n"
               "        r.wait()\n")
        assert codes(src) == []

    def test_tuple_unpacking_tracks_each_request(self):
        src = ("def f(comm):\n"
               "    ra, rb = comm.isend(1, dest=0), comm.irecv(source=0)\n"
               "    ra.wait()\n")
        assert codes(src) == ["ANL002"]

    def test_tuple_unpacking_both_waited_passes(self):
        src = ("def f(comm):\n"
               "    ra, rb = comm.isend(1, dest=0), comm.irecv(source=0)\n"
               "    ra.wait()\n"
               "    return rb.wait()\n")
        assert codes(src) == []

    def test_attribute_store_is_unknown_escape(self):
        src = ("def f(self, comm):\n"
               "    r = comm.isend(1, dest=0)\n"
               "    self.pending = r\n")
        [v] = lint_source(src, "x.py")
        assert v.code == "ANL002"
        assert "unknown escape" in v.message

    def test_returned_container_passes(self):
        src = ("def f(comm):\n"
               "    reqs = [comm.isend(1, dest=0)]\n"
               "    return reqs\n")
        assert codes(src) == []


class TestThreading:
    def test_thread_and_event_flagged(self):
        src = ("import threading\n"
               "def f():\n"
               "    t = threading.Thread(target=f)\n"
               "    e = threading.Event()\n"
               "    return t, e\n")
        assert codes(src) == ["ANL003", "ANL003"]

    def test_locks_are_flagged(self):
        src = ("import threading\n"
               "def f():\n"
               "    return threading.Lock(), threading.RLock()\n")
        assert codes(src) == ["ANL003", "ANL003"]

    def test_engine_allowlist_covers_engine_file(self):
        src = ("import threading\n"
               "def f():\n"
               "    return threading.Condition()\n")
        skip = frozenset(
            c for c, suffixes in DEFAULT_ALLOWLIST.items()
            if any("src/repro/simmpi/engine.py".endswith(s)
                   for s in suffixes))
        assert codes(src, "src/repro/simmpi/engine.py", skip) == []

    def test_only_the_engine_is_allowlisted(self):
        """comm.py waits through the scheduler, not on a condition."""
        assert DEFAULT_ALLOWLIST["ANL003"] == ("src/repro/simmpi/engine.py",)


class TestClockEquality:
    def test_clock_equality_flagged(self):
        src = ("def f(self, other):\n"
               "    return self.clock == other.clock\n")
        assert codes(src) == ["ANL004"]

    def test_vtime_inequality_flagged(self):
        src = ("def f(a_vtime, b):\n"
               "    return a_vtime != b\n")
        assert codes(src) == ["ANL004"]

    def test_clock_comparison_with_tolerance_passes(self):
        src = ("def f(self, other, tol):\n"
               "    return abs(self.clock - other.clock) < tol\n")
        assert codes(src) == []


class TestFileLifecycle:
    OPEN = "import repro.h5 as h5\n"

    def test_unclosed_named_file_flagged(self):
        src = (self.OPEN
               + "def f(path):\n"
               "    f = h5.File(path, 'r')\n"
               "    return f['d'].read()\n")
        assert codes(src) == ["ANL005"]

    def test_with_managed_file_passes(self):
        src = (self.OPEN
               + "def f(path):\n"
               "    with h5.File(path, 'r') as f:\n"
               "        return f['d'].read()\n")
        assert codes(src) == []

    def test_closed_file_passes(self):
        src = (self.OPEN
               + "def f(path):\n"
               "    f = h5.File(path, 'r')\n"
               "    out = f['d'].read()\n"
               "    f.close()\n"
               "    return out\n")
        assert codes(src) == []

    def test_with_on_assigned_name_passes(self):
        src = (self.OPEN
               + "def f(path):\n"
               "    f = h5.File(path, 'w')\n"
               "    with f:\n"
               "        f.create_dataset('d', shape=(1,), dtype=int)\n")
        assert codes(src) == []

    def test_handed_off_file_passes(self):
        src = (self.OPEN
               + "def f(path, sink):\n"
               "    f = h5.File(path, 'r')\n"
               "    sink(f)\n"
               "    g = h5.File(path, 'r')\n"
               "    return g\n")
        assert codes(src) == []

    def test_unrelated_file_constructor_passes(self):
        src = ("import zipfile\n"
               "def f(path):\n"
               "    z = zipfile.ZipFile(path)\n"
               "    return z.namelist()\n")
        assert codes(src) == []


class TestExceptionSwallowing:
    def test_bare_except_flagged(self):
        src = ("def f(run):\n"
               "    try:\n"
               "        run()\n"
               "    except:\n"
               "        pass\n")
        assert codes(src) == ["ANL006"]

    def test_except_exception_flagged(self):
        src = ("def f(run):\n"
               "    try:\n"
               "        run()\n"
               "    except Exception:\n"
               "        pass\n")
        assert codes(src) == ["ANL006"]

    def test_reraise_passes(self):
        src = ("def f(run, log):\n"
               "    try:\n"
               "        run()\n"
               "    except Exception as exc:\n"
               "        log(exc)\n"
               "        raise\n")
        assert codes(src) == []

    def test_narrow_except_passes(self):
        src = ("def f(run):\n"
               "    try:\n"
               "        run()\n"
               "    except ValueError:\n"
               "        pass\n")
        assert codes(src) == []


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        src = ("import time\n"
               "def f():\n"
               "    return time.monotonic()  # noqa: ANL001\n")
        assert codes(src) == []

    def test_bare_noqa_suppresses_everything(self):
        src = ("import time\n"
               "def f():\n"
               "    return time.monotonic()  # noqa\n")
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = ("import time\n"
               "def f():\n"
               "    return time.monotonic()  # noqa: ANL003\n")
        assert codes(src) == ["ANL001"]


class TestRepoIsClean:
    def test_whole_tree_lint_clean(self):
        """The acceptance gate: zero custom-lint violations on the
        tree -- src, examples, benchmarks AND tests -- with only the
        documented allowlist plus per-line noqa at intentional
        fixtures (watchdog tests, determinism pins, crash fixtures)."""
        import os

        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        paths = [os.path.join(root, d)
                 for d in ("src", "examples", "benchmarks", "tests")]
        violations = lint_paths(paths)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_rule_table_is_complete(self):
        assert set(RULES) == {"ANL001", "ANL002", "ANL003", "ANL004",
                              "ANL005", "ANL006"}
