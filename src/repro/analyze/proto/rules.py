"""The PRO00x protocol rules over enumerated paths.

Two tiers, trading scope against precision:

**Symbolic tier** (every function in a file): compares the collective
sequences of sibling paths (PRO001), chases handle lifecycles to every
exit (PRO004), and type-checks literal tags/destinations (PRO005).
These need no knowledge of how many ranks run the function -- a
divergence between the two arms of ``if rank == 0:`` is a bug for
*any* nprocs > 1.

**Closed-world tier** (only rank bodies registered through a literal
``wf.add_task(name, nprocs=N, main=fn)``): instantiates the body once
per concrete rank, requires each rank to reduce to exactly one fully
resolved path (no data-dependent guards, no nonblocking ops, no comm
escapes), then replays the global send/recv/collective exchange with
the same matching semantics as the simulator -- buffered sends,
blocking wildcard-capable receives, generation-ordered collectives.
A stall is classified through the same wait-for-graph cycle detector
the dynamic deadlock explainer uses (PRO003), a divergent rendezvous
is PRO001, and anything left unmatched is PRO002. When any
precondition fails the tier silently stands down: a static checker
that guesses produces noise, and noise gets ignored.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analyze.deadlock import find_cycle
from repro.analyze.finding import Finding
from repro.analyze.frontend import Imports
from repro.analyze.proto import domain
from repro.analyze.proto.domain import Binding
from repro.analyze.proto.effects import ANY, Effect
from repro.analyze.proto.interp import (
    FnResult, Path, run_function,
)

#: Rule code -> one-line description (the proto rule table).
PROTO_RULES = {
    "PRO001": "collective divergence across rank-dependent branches",
    "PRO002": "unmatched point-to-point send or recv",
    "PRO003": "static wait-for cycle (deadlock)",
    "PRO004": "h5/stream handle leaked on some path",
    "PRO005": "tag/comm type confusion",
}

#: Finding ``kind`` used when converting to the analyze plumbing.
STATIC_PROTOCOL = "static-protocol"


@dataclass(frozen=True)
class ProtoFinding:
    """One static protocol finding with its path witness."""

    rule: str
    path: str
    line: int
    col: int
    func: str
    message: str
    witness: tuple[str, ...] = ()

    def render(self) -> str:
        """The finding line with its path witness indented below."""
        head = (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.func}] {self.message}")
        return "\n".join([head] + [f"    {w}" for w in self.witness])

    def to_dict(self) -> dict[str, object]:
        """JSON-able form (one row of the ``--json`` report)."""
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "func": self.func,
                "message": self.message, "witness": list(self.witness)}

    def to_finding(self) -> Finding:
        """Adapt into the shared :class:`repro.analyze.Finding` shape."""
        return Finding(
            kind=STATIC_PROTOCOL, rank=-1,
            summary=f"{self.rule}: {self.message}",
            detail="\n".join((f"{self.path}:{self.line} "
                              f"in {self.func}",) + self.witness))


# -- symbolic tier -----------------------------------------------------------


def _coll_seq(p: Path) -> tuple[tuple[str, str, int], ...]:
    return tuple((e.comm, e.coll, e.line) for e in p.effects
                 if e.kind == "coll")


def _render_seq(seq: tuple[tuple[str, str, int], ...]) -> str:
    return "[" + ", ".join(f"{k}@{line}" for _c, k, line in seq) + "]"


def pro001(res: FnResult, path: str) -> list[ProtoFinding]:
    """Collective divergence: two sibling paths (same non-rank
    decisions, different rank decisions) with different collective
    sequences hang every rank that takes the shorter side."""
    if not res.complete or res.unsupported or res.opaque:
        return []
    groups: dict[tuple[tuple[str, bool], ...], list[Path]] = {}
    for p in res.paths:
        if p.exceptional or p.exit_kind == "raise":
            continue
        groups.setdefault(p.non_rank_key(), []).append(p)
    for key in sorted(groups, key=repr):
        variants: dict[tuple[tuple[str, str], ...], Path] = {}
        for p in groups[key]:
            variants.setdefault(
                tuple((c, k) for c, k, _l in _coll_seq(p)), p)
        if len(variants) < 2:
            continue
        (k1, p1), (k2, p2) = sorted(variants.items(),
                                    key=lambda kv: kv[0])[:2]
        s1, s2 = _coll_seq(p1), _coll_seq(p2)
        line = res.line
        for i in range(max(len(s1), len(s2))):
            a = s1[i] if i < len(s1) else None
            b = s2[i] if i < len(s2) else None
            if a is None or b is None or a[:2] != b[:2]:
                line = (a or b)[2]  # type: ignore[index]
                break
        return [ProtoFinding(
            rule="PRO001", path=path, line=line, col=0, func=res.name,
            message="collective sequence diverges across "
                    f"rank-dependent branches: {_render_seq(s1)} vs "
                    f"{_render_seq(s2)}",
            witness=(f"path A: {p1.witness()}",
                     f"  collectives A: {_render_seq(s1)}",
                     f"path B: {p2.witness()}",
                     f"  collectives B: {_render_seq(s2)}"))]
    return []


def pro004(res: FnResult, path: str) -> list[ProtoFinding]:
    """Handle leak: an h5 file / stream epoch opened on a path that
    exits without closing, releasing, or handing it off."""
    if res.unsupported:
        return []
    out: list[ProtoFinding] = []
    seen: set[tuple[str, int]] = set()
    for p in res.paths:
        for h in p.leaks:
            key = (h.res, h.line)
            if key in seen:
                continue
            seen.add(key)
            what = "h5 file" if h.res == "h5" else "stream epoch"
            how = ("retained and never released"
                   if h.res == "epoch" and h.retained
                   else "never closed/released")
            name = f" {h.var!r}" if h.var else ""
            out.append(ProtoFinding(
                rule="PRO004", path=path, line=h.line, col=0,
                func=res.name,
                message=f"{what}{name} opened here is {how} on some "
                        "path",
                witness=(f"leaking path: {p.witness()}",)))
    return out


def pro005(res: FnResult, path: str) -> list[ProtoFinding]:
    """Tag/dest type confusion: a literal tag or destination that is
    not an int can never match its peer (or crashes the transport)."""
    out: list[ProtoFinding] = []
    seen: set[int] = set()
    for p in res.paths:
        for e in p.effects:
            if e.kind not in ("send", "recv", "probe"):
                continue
            if e.line in seen:
                continue
            bad: list[str] = []
            if _bad_int(e.tag):
                bad.append(f"tag {e.tag.val!r}")
            if e.kind == "send" and _bad_int(e.peer):
                bad.append(f"dest {e.peer.val!r}")
            if e.kind in ("recv", "probe") and _bad_int(e.peer):
                bad.append(f"source {e.peer.val!r}")
            if bad:
                seen.add(e.line)
                out.append(ProtoFinding(
                    rule="PRO005", path=path, line=e.line, col=e.col,
                    func=res.name,
                    message=f"{e.kind} with non-int {' and '.join(bad)}"
                            " can never match its peer",
                    witness=(f"path: {p.witness()}",)))
    return out


def _bad_int(s: domain.Sym) -> bool:
    if s.kind != domain.CONST or s.val == ANY:
        return False
    return not isinstance(s.val, int) or isinstance(s.val, bool)


# -- closed-world tier -------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """One statically-discovered ``add_task`` registration."""

    name: str
    nprocs: int
    fn: ast.FunctionDef
    line: int


def discover_tasks(tree: ast.Module) -> list[TaskSpec]:
    """Rank bodies registered via literal ``add_task`` calls whose
    ``main`` is a module-level function and ``nprocs`` a literal."""
    fns = {n.name: n for n in tree.body
           if isinstance(n, ast.FunctionDef)}
    out: list[TaskSpec] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_task"):
            continue
        args: dict[str, ast.expr] = {}
        for i, a in enumerate(node.args):
            if i < 3 and not isinstance(a, ast.Starred):
                args[("name", "nprocs", "main")[i]] = a
        for kw in node.keywords:
            if kw.arg:
                args[kw.arg] = kw.value
        name_n, np_n, main_n = (args.get("name"), args.get("nprocs"),
                                args.get("main"))
        if not (isinstance(name_n, ast.Constant)
                and isinstance(name_n.value, str)
                and isinstance(np_n, ast.Constant)
                and isinstance(np_n.value, int)
                and isinstance(main_n, ast.Name)
                and main_n.id in fns):
            continue
        if not 1 <= np_n.value <= 64:
            continue
        out.append(TaskSpec(name_n.value, np_n.value,
                            fns[main_n.id], node.lineno))
    return out


@dataclass
class _Op:
    """One concrete communication step of one rank."""

    kind: str              # send / recv / coll
    line: int
    comm: str = ""
    peer: object = None    # int or ANY
    tag: object = None     # int or ANY
    coll: str = ""

    def spec(self) -> str:
        if self.kind == "coll":
            return f"collective {self.coll} at line {self.line}"
        peer = "ANY" if self.peer == ANY else self.peer
        tag = "ANY" if self.tag == ANY else self.tag
        role = "dest" if self.kind == "send" else "source"
        return (f"{self.kind}({role}={peer}, tag={tag}) "
                f"at line {self.line}")


def _rank_ops(spec: TaskSpec, alias: dict[str, str],
              rank: int) -> list[_Op] | None:
    """The single deterministic op sequence of ``rank``, or None when
    the body is outside the closed-world preconditions."""
    res = run_function(spec.fn, alias,
                       binding=Binding(rank, spec.nprocs))
    if (res.unsupported or not res.complete or res.opaque
            or res.has_request or len(res.paths) != 1):
        return None
    p = res.paths[0]
    if p.exit_kind == "raise":
        return None
    binding = Binding(rank, spec.nprocs)
    ops: list[_Op] = []
    for e in p.effects:
        if e.inter:
            continue  # cross-task traffic is out of this task's world
        if e.kind == "coll":
            if e.coll in ("split", "dup") or e.comm != "ctx.comm":
                return None
            ops.append(_Op("coll", e.line, e.comm, coll=e.coll))
        elif e.kind in ("send", "recv"):
            if e.comm != "ctx.comm":
                return None
            peer = domain.evaluate(e.peer, binding)
            tag = domain.evaluate(e.tag, binding)
            if e.kind == "send":
                if not _is_int(peer) or not _is_int(tag):
                    return None
            else:
                if not (_is_int(peer) or peer == ANY):
                    return None
                if not (_is_int(tag) or tag == ANY):
                    return None
            ops.append(_Op(e.kind, e.line, e.comm, peer=peer, tag=tag))
        elif e.kind in ("probe", "request", "opaque"):
            return None
    return ops


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class _Mail:
    src: int
    tag: int
    comm: str
    line: int


def check_task(spec: TaskSpec, alias: dict[str, str],
               path: str) -> list[ProtoFinding]:
    """Replay one task's exchange; classify any stall or leftover."""
    n = spec.nprocs
    ops: list[list[_Op]] = []
    for r in range(n):
        seq = _rank_ops(spec, alias, r)
        if seq is None:
            return []
        ops.append(seq)
    pos = [0] * n
    mail: list[list[_Mail]] = [[] for _ in range(n)]
    orphans: list[tuple[int, _Op]] = []

    def done(r: int) -> bool:
        return pos[r] >= len(ops[r])

    def cur(r: int) -> _Op:
        return ops[r][pos[r]]

    def match(r: int, op: _Op) -> int | None:
        for i, m in enumerate(mail[r]):
            if m.comm != op.comm:
                continue
            if op.peer != ANY and m.src != op.peer:
                continue
            if op.tag != ANY and m.tag != op.tag:
                continue
            return i
        return None

    progressed = True
    while progressed:
        progressed = False
        for r in range(n):
            while not done(r):
                op = cur(r)
                if op.kind == "send":
                    assert isinstance(op.peer, int) \
                        and isinstance(op.tag, int)
                    if 0 <= op.peer < n:
                        mail[op.peer].append(
                            _Mail(r, op.tag, op.comm, op.line))
                    else:
                        orphans.append((r, op))
                    pos[r] += 1
                    progressed = True
                elif op.kind == "recv":
                    i = match(r, op)
                    if i is None:
                        break
                    mail[r].pop(i)
                    pos[r] += 1
                    progressed = True
                else:
                    break
        waiting = [r for r in range(n)
                   if not done(r) and cur(r).kind == "coll"]
        if len(waiting) == n:
            kinds = sorted({cur(r).coll for r in range(n)})
            if len(kinds) > 1:
                by_kind = "; ".join(
                    f"rank {r}: {cur(r).spec()}" for r in range(n))
                return [ProtoFinding(
                    rule="PRO001", path=path, line=cur(0).line, col=0,
                    func=spec.fn.name,
                    message=f"task {spec.name!r}: ranks enter "
                            "different collectives at the same "
                            f"rendezvous ({' vs '.join(kinds)})",
                    witness=(by_kind,))]
            for r in range(n):
                pos[r] += 1
            progressed = True

    blocked = sorted(r for r in range(n) if not done(r))
    if blocked:
        return _classify_stall(spec, path, ops, pos, mail, blocked)
    out: list[ProtoFinding] = []
    leftovers = [(m, d) for d in range(n) for m in mail[d]]
    for r, op in orphans:
        out.append(ProtoFinding(
            rule="PRO002", path=path, line=op.line, col=0,
            func=spec.fn.name,
            message=f"task {spec.name!r} (nprocs={n}): rank {r} "
                    f"{op.spec()} targets a rank outside the task",
            witness=(f"rank {r}: {op.spec()}",)))
    seen: set[int] = set()
    for m, dest in leftovers:
        if m.line in seen:
            continue
        seen.add(m.line)
        out.append(ProtoFinding(
            rule="PRO002", path=path, line=m.line, col=0,
            func=spec.fn.name,
            message=f"task {spec.name!r} (nprocs={n}): send at line "
                    f"{m.line} from rank {m.src} to rank {dest} "
                    f"(tag {m.tag}) is never received",
            witness=(f"rank {dest} finished with the message still "
                     "queued",)))
    return out


def _classify_stall(spec: TaskSpec, path: str, ops: list[list[_Op]],
                    pos: list[int], mail: list[list[_Mail]],
                    blocked: list[int]) -> list[ProtoFinding]:
    """Stalled replay: cycle -> PRO003, divergent collective ->
    PRO001, comm-mixed near-miss -> PRO005, else PRO002."""
    n = len(ops)

    def cur(r: int) -> _Op:
        return ops[r][pos[r]]

    def arrived(x: int) -> bool:
        return pos[x] < len(ops[x]) and cur(x).kind == "coll"

    graph: dict[int, tuple[object, tuple[int, ...]]] = {}
    for r in blocked:
        op = cur(r)
        if op.kind == "recv":
            wakers = ((op.peer,) if isinstance(op.peer, int)
                      else tuple(x for x in range(n) if x != r))
        else:
            wakers = tuple(x for x in range(n)
                           if x != r and not arrived(x))
        graph[r] = (op, wakers)
    table = tuple(f"rank {r}: blocked at {cur(r).spec()}"
                  for r in blocked)

    cycle = find_cycle(graph)
    if cycle is not None:
        rendered = " -> ".join(str(r) for r in cycle)
        return [ProtoFinding(
            rule="PRO003", path=path, line=cur(cycle[0]).line, col=0,
            func=spec.fn.name,
            message=f"task {spec.name!r} (nprocs={n}): static "
                    f"wait-for cycle: {rendered}",
            witness=table)]

    coll_blocked = [r for r in blocked if cur(r).kind == "coll"]
    if coll_blocked:
        r = coll_blocked[0]
        absent = [x for x in range(n) if x != r and not arrived(x)]
        return [ProtoFinding(
            rule="PRO001", path=path, line=cur(r).line, col=0,
            func=spec.fn.name,
            message=f"task {spec.name!r} (nprocs={n}): rank {r} "
                    f"blocks in {cur(r).coll} that rank"
                    f"{'s' if len(absent) > 1 else ''} "
                    f"{', '.join(map(str, absent))} never enter"
                    f"{'s' if len(absent) == 1 else ''}",
            witness=table)]

    out: list[ProtoFinding] = []
    for r in blocked:
        op = cur(r)
        near = [m for m in mail[r]
                if m.comm != op.comm
                and (op.peer == ANY or m.src == op.peer)
                and (op.tag == ANY or m.tag == op.tag)]
        if near:
            m = near[0]
            out.append(ProtoFinding(
                rule="PRO005", path=path, line=op.line, col=0,
                func=spec.fn.name,
                message=f"task {spec.name!r}: rank {r} {op.spec()} "
                        f"matches a message sent on a different "
                        f"communicator ({m.comm!r} at line {m.line})",
                witness=table))
        else:
            out.append(ProtoFinding(
                rule="PRO002", path=path, line=op.line, col=0,
                func=spec.fn.name,
                message=f"task {spec.name!r} (nprocs={spec.nprocs}): "
                        f"rank {r} {op.spec()} has no matching send",
                witness=table))
        break  # the first blocked rank explains the stall
    return out


# -- file driver -------------------------------------------------------------


def _functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Module-level functions plus one level of class methods."""
    out: list[ast.FunctionDef] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append(node)
        elif isinstance(node, ast.ClassDef):
            out.extend(n for n in node.body
                       if isinstance(n, ast.FunctionDef))
    return out


def check_tree(tree: ast.Module, path: str) -> list[ProtoFinding]:
    """All PRO findings of one parsed module."""
    imports = Imports()
    imports.visit(tree)
    alias = imports.alias
    out: list[ProtoFinding] = []
    flagged_fns: set[str] = set()
    for fn in _functions(tree):
        res = run_function(fn, alias)
        findings = pro001(res, path) + pro004(res, path) \
            + pro005(res, path)
        if findings:
            flagged_fns.add(fn.name)
        out.extend(findings)
    for spec in discover_tasks(tree):
        # A body the symbolic tier already flagged gets one report,
        # not two renderings of the same bug.
        if spec.fn.name in flagged_fns:
            continue
        out.extend(check_task(spec, alias, path))
    dedup: dict[tuple[str, int, str], ProtoFinding] = {}
    for f in out:
        dedup.setdefault((f.rule, f.line, f.message), f)
    return sorted(dedup.values(),
                  key=lambda f: (f.line, f.col, f.rule))
