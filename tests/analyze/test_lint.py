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
        assert set(RULES) == {"ANL001", "ANL003", "ANL004", "ANL005",
                              "ANL006"}
