"""Corpus + clean-tree pins for the PRO00x static protocol checker.

Every known-bad exemplar under ``proto_corpus/`` carries a
``# PROTO: PRO00X`` marker comment on the line where the checker must
report -- the tests below assert the findings match the markers
*exactly* (rule and line, nothing more, nothing less), and that the
entire real tree stays at zero findings.
"""

import glob
import os

from repro.analyze.proto import PROTO_RULES, check_paths, check_source

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CORPUS = os.path.join(ROOT, "tests", "analyze", "proto_corpus")


def _markers(source: str) -> list[tuple[str, int]]:
    out = []
    for i, line in enumerate(source.splitlines(), start=1):
        for code in PROTO_RULES:
            if f"# PROTO: {code}" in line:
                out.append((code, i))
    return out


class TestCorpus:
    def test_every_bad_exemplar_reports_exactly_its_marker(self):
        """Each bad file yields exactly one finding, on the marked
        line, with the marked rule, and carries a path witness."""
        bad = sorted(glob.glob(os.path.join(CORPUS, "bad_*.py")))
        assert len(bad) == 5, "one exemplar per PRO rule"
        for path in bad:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            expected = _markers(source)
            assert len(expected) == 1, f"{path}: want exactly 1 marker"
            findings = check_source(source, path)
            got = [(f.rule, f.line) for f in findings]
            assert got == expected, (
                f"{path}: expected {expected}, got "
                + "\n".join(f.render() for f in findings))
            assert findings[0].witness, f"{path}: missing witness"

    def test_corpus_covers_every_rule(self):
        seen = set()
        for path in glob.glob(os.path.join(CORPUS, "bad_*.py")):
            with open(path, encoding="utf-8") as fh:
                seen.update(code for code, _l in _markers(fh.read()))
        assert seen == set(PROTO_RULES)

    def test_ok_exemplars_are_clean(self):
        ok = sorted(glob.glob(os.path.join(CORPUS, "ok_*.py")))
        assert ok, "clean exemplars exist"
        for path in ok:
            with open(path, encoding="utf-8") as fh:
                findings = check_source(fh.read(), path)
            assert findings == [], "\n".join(
                f.render() for f in findings)

    def test_directory_walk_skips_corpus_but_explicit_file_hits(self):
        """The corpus is excluded from tree walks (it exists to be
        bad) while staying reachable as an explicit target."""
        assert check_paths([CORPUS]) == []
        direct = check_paths([os.path.join(CORPUS, "bad_pro003.py")])
        assert [f.rule for f in direct] == ["PRO003"]


class TestSuppression:
    BAD = ("def body(ctx):\n"
           "    ctx.comm.recv(source=0, tag='seven')\n")

    def test_noqa_with_code_suppresses(self):
        src = self.BAD.replace("')\n", "')  # noqa: PRO005\n")
        assert check_source(src, "x.py") == []

    def test_bare_noqa_suppresses(self):
        src = self.BAD.replace("')\n", "')  # noqa\n")
        assert check_source(src, "x.py") == []

    def test_wrong_code_does_not_suppress(self):
        src = self.BAD.replace("')\n", "')  # noqa: PRO001\n")
        assert [f.rule for f in check_source(src, "x.py")] == ["PRO005"]

    def test_skip_set_filters_rules(self):
        assert check_source(self.BAD, "x.py",
                            skip=frozenset({"PRO005"})) == []


class TestRepoIsClean:
    def test_whole_tree_has_zero_proto_findings(self):
        """The acceptance gate: src, examples, benchmarks AND tests
        are protocol-clean (the corpus is walk-excluded by design)."""
        paths = [os.path.join(ROOT, d)
                 for d in ("src", "examples", "benchmarks", "tests")]
        findings = check_paths(paths)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_rule_table_is_complete(self):
        assert set(PROTO_RULES) == {"PRO001", "PRO002", "PRO003",
                                    "PRO004", "PRO005"}


class TestCLI:
    def test_strict_exit_codes_and_json(self, capsys):
        import json as jsonmod

        from repro.tools.proto import add_parser

        import argparse
        ap = argparse.ArgumentParser()
        sub = ap.add_subparsers(dest="command")
        add_parser(sub)
        bad = os.path.join(CORPUS, "bad_pro001.py")

        args = ap.parse_args(["proto", bad, "--strict"])
        assert args.run(args) == 1
        args = ap.parse_args(["proto", bad])
        assert args.run(args) == 0  # advisory without --strict
        capsys.readouterr()

        args = ap.parse_args(["proto", bad, "--strict", "--json"])
        assert args.run(args) == 1
        doc = jsonmod.loads(capsys.readouterr().out)
        assert [d["rule"] for d in doc] == ["PRO001"]
        assert doc[0]["witness"]

    def test_module_target_resolves(self, capsys):
        import argparse

        from repro.tools.proto import add_parser

        ap = argparse.ArgumentParser()
        sub = ap.add_subparsers(dest="command")
        add_parser(sub)
        args = ap.parse_args(["proto", "-m", "repro.analyze.proto",
                              "--strict"])
        assert args.run(args) == 0
