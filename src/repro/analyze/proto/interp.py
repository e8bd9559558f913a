"""Bounded path enumeration over the protocol CFG.

Drives :class:`~repro.analyze.proto.cfg.CFG` blocks under the abstract
:class:`~repro.analyze.proto.effects.Evaluator`, forking a path at
every guard it cannot decide and recording each fork as a
:class:`Decision` (rank-dependent / uniform / data-dependent /
exception edge). The result is a set of complete :class:`Path`
objects -- ordered effect sequences plus the decision vector that
selected them -- which the rule layer groups and compares.

Precision/soundness posture:

- loops: concrete ``range`` bounds (closed-world bindings) unroll
  exactly up to a cap; symbolic ``range(nprocs)`` runs its body once
  over an interval variable; unknown iterables fork a zero-iteration
  and a one-iteration path.
- guards over pure rank/nprocs/constant values are *consistent*: once
  a path decides ``rank == 0`` one way, every later occurrence of an
  equivalent guard (including negated spellings) follows the same way.
- exception edges fork after each effectful statement inside ``try``
  bodies, so handler paths see precisely the handles that were open.
- when any cap trips the function is flagged incomplete and the rule
  layer stands down instead of reporting from a partial picture.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field

from repro.analyze.proto import cfg as cfgmod
from repro.analyze.proto import domain
from repro.analyze.proto import effects as eff
from repro.analyze.proto.cfg import (
    CFG, Block, Branch, Exit, ExitCtx, ForLoop, Jump, Unsupported,
    build_cfg,
)
from repro.analyze.proto.domain import Binding, Sym
from repro.analyze.proto.effects import (
    ANY, CommRef, CtxRef, Effect, Evaluator, GuardInfo, HandleRef,
    HandleVal, RaisesVal, RangeVal, StreamRef, classify_test,
    D_EXCEPT, D_RANK, D_UNIFORM, D_UNKNOWN,
)

#: Completed-path cap per function.
MAX_PATHS = 256
#: Interpreter step budget per function (blocks executed).
MAX_STEPS = 50_000
#: Concrete loop-unroll cap (iterations).
UNROLL_CAP = 64
#: Back-edge traversal cap for while loops per path.
WHILE_CAP_CONCRETE = 64
WHILE_CAP_SYMBOLIC = 3
#: Interval upper bound standing in for an unknown ``nprocs``.
BIG = 1 << 30


@dataclass
class Decision:
    """One forked guard outcome on a path."""

    kind: str   # D_RANK / D_UNIFORM / D_UNKNOWN / D_EXCEPT
    key: str
    value: bool
    text: str
    line: int

    def render(self) -> str:
        """One witness line: where the path forked and which way."""
        if self.kind == D_EXCEPT:
            return f"line {self.line}: exception raised"
        return f"line {self.line}: {self.text} -> {self.value}"


@dataclass
class Handle:
    """Lifecycle state of one opened resource on one path."""

    hid: int
    res: str        # "h5" | "epoch"
    line: int
    var: str | None = None
    state: str = "open"  # open / closed / escaped
    retained: bool = False


@dataclass
class Path:
    """One complete path through a function."""

    effects: list[Effect]
    decisions: list[Decision]
    leaks: list[Handle]
    exit_kind: str       # return / raise / end
    exit_line: int
    exceptional: bool

    def non_rank_key(self) -> tuple[tuple[str, bool], ...]:
        """Grouping key: every non-rank decision with its outcome."""
        return tuple((d.key, d.value) for d in self.decisions
                     if d.kind != D_RANK)

    def witness(self) -> str:
        """Human rendering of the decision vector."""
        parts = [d.render() for d in self.decisions]
        parts.append(f"line {self.exit_line}: {self.exit_kind}"
                     if self.exit_line else self.exit_kind)
        return "; ".join(parts)


@dataclass
class FnResult:
    """All enumerated paths of one function."""

    name: str
    line: int
    paths: list[Path] = field(default_factory=list)
    complete: bool = True
    unsupported: bool = False
    opaque: bool = False       # a comm/ctx escaped the analysis
    has_request: bool = False  # isend/irecv/probe present somewhere


@dataclass
class _State:
    """One in-flight path."""

    block: int
    ev: Evaluator
    decisions: list[Decision]
    guards: dict[str, bool]
    handles: dict[int, Handle]
    loops: dict[int, list[object]]
    back: dict[int, int]
    exceptional: bool = False
    next_hid: int = 0

    def fork(self) -> "_State":
        ev = Evaluator(self.ev.alias, self.ev.binding)
        ev.env = dict(self.ev.env)
        ev.effects = list(self.ev.effects)
        return _State(
            block=self.block, ev=ev,
            decisions=list(self.decisions), guards=dict(self.guards),
            handles={k: dataclasses.replace(v)
                     for k, v in self.handles.items()},
            loops={k: list(v) for k, v in self.loops.items()},
            back=dict(self.back), exceptional=self.exceptional,
            next_hid=self.next_hid)


class _Interp:
    """Runs one CFG to completion under the caps."""

    def __init__(self, cfg: CFG, alias: dict[str, str],
                 binding: Binding | None,
                 seed: dict[str, object]) -> None:
        self.cfg = cfg
        self.binding = binding
        self.result = FnResult(name=cfg.name, line=cfg.line)
        self.steps = 0
        st = _State(block=0, ev=Evaluator(alias, binding),
                    decisions=[], guards={}, handles={}, loops={},
                    back={})
        st.ev.env.update(seed)
        self.work: list[_State] = [st]

    # -- handle plumbing ----------------------------------------------------

    def _register(self, st: _State, hv: HandleVal,
                  var: str | None) -> HandleRef:
        h = Handle(hid=st.next_hid, res=hv.res, line=hv.line, var=var)
        st.handles[h.hid] = h
        st.next_hid += 1
        return HandleRef(h.hid)

    def _intern(self, st: _State, v: object,
                var: str | None) -> object:
        """Convert HandleVal(s) in ``v`` into tracked HandleRef(s).

        Inside an active ``pytest.raises`` region the open is expected
        to fail, so nothing is tracked."""
        if any(isinstance(x, RaisesVal) for x in st.ev.env.values()):
            return v
        if isinstance(v, HandleVal):
            return self._register(st, v, var)
        if isinstance(v, tuple):
            return tuple(self._intern(st, x, var) for x in v)
        return v

    def _drain(self, st: _State) -> None:
        for evn in st.ev.handle_events:
            ref = evn.value
            if not isinstance(ref, HandleRef):
                continue
            h = st.handles.get(ref.hid)
            if h is None:
                continue
            if evn.op == "close":
                if h.state == "open":
                    h.state = "closed"
                h.retained = False
            elif evn.op == "retain":
                h.retained = True
            elif evn.op == "escape":
                if h.state == "open":
                    h.state = "escaped"
        st.ev.handle_events.clear()

    def _escape_value(self, st: _State, v: object) -> None:
        if isinstance(v, HandleRef):
            h = st.handles.get(v.hid)
            if h is not None and h.state == "open":
                h.state = "escaped"
        elif isinstance(v, tuple):
            for x in v:
                self._escape_value(st, x)

    # -- statements ---------------------------------------------------------

    def _assign_target(self, st: _State, target: ast.expr,
                       v: object) -> None:
        if isinstance(target, ast.Name):
            st.ev.env[target.id] = v
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            if isinstance(v, tuple) and len(v) == len(elts) \
                    and not any(isinstance(e, ast.Starred)
                                for e in elts):
                for e, x in zip(elts, v):
                    self._assign_target(st, e, x)
            else:
                for e in elts:
                    inner = e.value if isinstance(e, ast.Starred) else e
                    self._assign_target(st, inner, domain.SYM_TOP)
            return
        # Attribute / subscript stores: the value escapes our view.
        self._escape_value(st, v)
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            st.ev.eval(target.value)
            if isinstance(target, ast.Subscript):
                st.ev.eval(target.slice)
            self._drain(st)

    def _stmt(self, st: _State, stmt: ast.stmt | ExitCtx) -> None:
        ev = st.ev
        if isinstance(stmt, ExitCtx):
            v = ev.env.get(stmt.var)
            if isinstance(v, RaisesVal):
                del ev.env[stmt.var]
                return
            refs = v if isinstance(v, tuple) else (v,)
            for r in refs:
                if isinstance(r, HandleRef):
                    h = st.handles.get(r.hid)
                    if h is None or h.state != "open":
                        continue
                    # ``with`` exit: epochs release unless retained,
                    # files always close.
                    if h.res == "epoch" and h.retained:
                        continue
                    h.state = "closed"
            return
        if isinstance(stmt, ast.Assign):
            v = ev.eval(stmt.value)
            self._drain(st)
            var = (stmt.targets[0].id
                   if len(stmt.targets) == 1
                   and isinstance(stmt.targets[0], ast.Name) else None)
            v = self._intern(st, v, var)
            for t in stmt.targets:
                self._assign_target(st, t, v)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                v = ev.eval(stmt.value)
                self._drain(st)
                var = (stmt.target.id
                       if isinstance(stmt.target, ast.Name) else None)
                v = self._intern(st, v, var)
                self._assign_target(st, stmt.target, v)
            return
        if isinstance(stmt, ast.AugAssign):
            rhs = ev.eval(stmt.value)
            self._drain(st)
            if isinstance(stmt.target, ast.Name):
                cur = ev.env.get(stmt.target.id, domain.SYM_TOP)
                if isinstance(cur, Sym) and isinstance(rhs, Sym):
                    ev.env[stmt.target.id] = domain.binop(
                        stmt.op, cur, rhs, self.binding)
                else:
                    ev.env[stmt.target.id] = domain.SYM_TOP
            else:
                self._assign_target(st, stmt.target, domain.SYM_TOP)
            return
        if isinstance(stmt, ast.Expr):
            v = ev.eval(stmt.value)
            self._drain(st)
            # A bare ``h5.File(...)`` expression: opened and dropped.
            self._intern(st, v, None)
            return
        if isinstance(stmt, ast.Assert):
            ev.eval(stmt.test)
            self._drain(st)
            return
        if isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    st.ev.env.pop(t.id, None)
            return
        # Import / Global / Nonlocal / Pass inside functions: no-op at
        # this abstraction level (imported names stay TOP).

    # -- terminators --------------------------------------------------------

    def _finish(self, st: _State, term: Exit) -> None:
        if term.kind == "return" and term.value is not None:
            v = st.ev.eval(term.value)
            self._drain(st)
            self._escape_value(st, v)
        if term.kind == "raise" and term.value is not None:
            st.ev.eval(term.value)
            self._drain(st)
        leaks = [h for h in st.handles.values() if h.state == "open"]
        self.result.paths.append(Path(
            effects=st.ev.effects, decisions=st.decisions, leaks=leaks,
            exit_kind=term.kind, exit_line=term.line,
            exceptional=st.exceptional))
        if len(self.result.paths) >= MAX_PATHS:
            self.result.complete = False
            self.work.clear()

    def _decide(self, st: _State, gi: GuardInfo, line: int,
                block: Block) -> None:
        """Route a Branch terminator."""
        term = block.term
        assert isinstance(term, Branch)
        if gi.stable and gi.key in st.guards:
            val = st.guards[gi.key] ^ gi.flip
            st.block = term.true if val else term.false
            self.work.append(st)
            return
        if gi.decided is not None:
            if gi.stable:
                st.guards[gi.key] = gi.decided ^ gi.flip
            st.block = term.true if gi.decided else term.false
            self.work.append(st)
            return
        refine = self._none_refinement(term.test, st)
        for val in (True, False):
            br = st.fork()
            if gi.stable:
                br.guards[gi.key] = val ^ gi.flip
            br.decisions.append(Decision(gi.kind, gi.key, val,
                                         gi.text, line))
            br.block = term.true if val else term.false
            if refine is not None and val == refine[1]:
                # On the ``x is None`` branch the handle was never
                # actually produced: drop it from leak tracking.
                name, _, hid = refine
                br.ev.env[name] = domain.const(None)
                h = br.handles.get(hid)
                if h is not None and h.state == "open":
                    h.state = "escaped"
            self.work.append(br)

    @staticmethod
    def _none_refinement(test: ast.expr,
                         st: _State) -> tuple[str, bool, int] | None:
        """``(name, branch-where-none, hid)`` for ``x is [not] None``
        guards over a tracked handle, else None."""
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                and isinstance(test.left, ast.Name)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return None
        v = st.ev.env.get(test.left.id)
        if not isinstance(v, HandleRef):
            return None
        none_branch = isinstance(test.ops[0], ast.Is)
        return (test.left.id, none_branch, v.hid)

    def _for(self, st: _State, block: Block) -> None:
        term = block.term
        assert isinstance(term, ForLoop)
        bid = block.bid
        if bid in st.loops:
            pending = st.loops[bid]
            if pending:
                v = pending.pop(0)
                self._assign_target(st, term.target, v)
                st.block = term.body
            else:
                del st.loops[bid]
                st.block = term.after
            self.work.append(st)
            return
        it = st.ev.eval(term.iter)
        self._drain(st)
        if isinstance(it, RangeVal):
            vals = [domain.evaluate(a, self.binding) for a in it.args]
            if all(isinstance(v, int) for v in vals):
                ivals = [v for v in vals if isinstance(v, int)]
                seq = (range(*ivals) if ivals else range(0))
                if len(seq) > UNROLL_CAP:
                    self.result.complete = False
                    return  # drop this path: loop too large to unroll
                st.loops[bid] = [domain.const(i) for i in seq]
                self.work.append(st)
                return
            first = it.args[0] if len(it.args) > 1 else domain.const(0)
            if (len(it.args) <= 2
                    and first.kind == domain.CONST
                    and isinstance(first.val, int)
                    and it.args[-1].kind == domain.NPROCS):
                # range(nprocs): at least one iteration (nprocs >= 1);
                # the body runs once over an interval loop variable.
                st.loops[bid] = [Sym(domain.INTERVAL, lo=first.val,
                                     hi=BIG)]
                self.work.append(st)
                return
            uniform = all(a.kind in (domain.CONST, domain.NPROCS,
                                     domain.INTERVAL)
                          for a in it.args)
            self._fork_loop(st, bid, term,
                            D_UNIFORM if uniform else D_UNKNOWN,
                            Sym(domain.INTERVAL, lo=0, hi=BIG))
            return
        if isinstance(it, tuple) and len(it) <= UNROLL_CAP:
            st.loops[bid] = list(it)
            self.work.append(st)
            return
        self._fork_loop(st, bid, term, D_UNKNOWN, domain.SYM_TOP)

    def _fork_loop(self, st: _State, bid: int, term: ForLoop,
                   kind: str, var: object) -> None:
        """Unknown iteration count: fork empty vs. one-iteration."""
        key = f"iter@{term.line}"
        empty = st.fork()
        empty.decisions.append(Decision(kind, key, False,
                                        "loop body runs", term.line))
        empty.loops[bid] = []
        self.work.append(empty)
        once = st
        once.decisions.append(Decision(kind, key, True,
                                       "loop body runs", term.line))
        once.loops[bid] = [var]
        self.work.append(once)

    # -- main loop ----------------------------------------------------------

    def run(self) -> FnResult:
        while self.work:
            self.steps += 1
            if self.steps > MAX_STEPS:
                self.result.complete = False
                break
            st = self.work.pop()
            block = self.cfg.blocks[st.block]
            bail = False
            for stmt in block.stmts:
                self._stmt(st, stmt)
            # Exception edge: fork into the first handler when this
            # block can raise (call-bearing statement in a try body).
            if block.except_to and self.binding is None \
                    and any(_can_raise(s) for s in block.stmts):
                exc = st.fork()
                exc.exceptional = True
                exc.decisions.append(Decision(
                    D_EXCEPT, f"exc@{block.bid}", True,
                    "exception raised", _first_line(block)))
                exc.block = block.except_to[0]
                self.work.append(exc)
            term = block.term
            if isinstance(term, Exit):
                self._finish(st, term)
            elif isinstance(term, Jump):
                if term.back:
                    st.back[term.dst] = st.back.get(term.dst, 0) + 1
                    cap = (WHILE_CAP_CONCRETE if self.binding
                           else WHILE_CAP_SYMBOLIC)
                    dst = self.cfg.blocks[term.dst]
                    if not isinstance(dst.term, ForLoop) \
                            and st.back[term.dst] > cap:
                        self.result.complete = False
                        bail = True
                if not bail:
                    st.block = term.dst
                    self.work.append(st)
            elif isinstance(term, Branch):
                gi = classify_test(term.test, st.ev)
                self._drain(st)
                self._decide(st, gi, term.line, block)
            elif isinstance(term, ForLoop):
                self._for(st, block)
        for p in self.result.paths:
            for e in p.effects:
                if e.kind == "opaque":
                    self.result.opaque = True
                if e.kind in ("request", "probe"):
                    self.result.has_request = True
        return self.result


def _can_raise(stmt: ast.stmt | ExitCtx) -> bool:
    if isinstance(stmt, ExitCtx):
        return False
    return any(isinstance(n, ast.Call) for n in ast.walk(stmt))


def _first_line(block: Block) -> int:
    for s in block.stmts:
        line = getattr(s, "lineno", None) or getattr(s, "line", None)
        if line:
            return int(line)
    return 0


def seed_params(fn: ast.FunctionDef) -> dict[str, object]:
    """Default abstract bindings for a function's parameters.

    ``ctx`` seeds a task context; a parameter whose name mentions
    ``comm`` seeds a communicator; everything else is unknown.
    """
    seed: dict[str, object] = {}
    args = list(fn.args.posonlyargs) + list(fn.args.args) \
        + list(fn.args.kwonlyargs)
    for a in args:
        if a.arg == "ctx":
            seed[a.arg] = CtxRef()
        elif "comm" in a.arg.lower():
            seed[a.arg] = CommRef(a.arg)
        else:
            seed[a.arg] = domain.SYM_TOP
    return seed


def run_function(fn: ast.FunctionDef, alias: dict[str, str],
                 binding: Binding | None = None,
                 seed: dict[str, object] | None = None) -> FnResult:
    """Enumerate the paths of one function.

    Returns an unsupported/incomplete :class:`FnResult` (never raises)
    when the function uses unmodeled control flow or trips a cap.
    """
    try:
        cfg = build_cfg(fn)
    except Unsupported:
        out = FnResult(name=fn.name, line=fn.lineno)
        out.complete = False
        out.unsupported = True
        return out
    if seed is None:
        seed = seed_params(fn)
    return _Interp(cfg, alias, binding, seed).run()
