"""Communication-effect extraction for the static protocol checker.

The :class:`Evaluator` walks expressions under an abstract environment
(:mod:`repro.analyze.proto.domain`) and emits :class:`Effect` records
for every communication-relevant call it can classify:

- point-to-point: ``send``/``isend``/``recv``/``irecv``/``sendrecv``/
  ``probe`` on a communicator object;
- collectives: ``barrier``/``bcast``/``reduce``/... (``epoch_barrier``
  normalizes to ``barrier``, matching what the dynamic layer records);
- handle lifecycles: ``repro.h5.File(...)`` opens, ``.close()``
  closes, stream ``next_epoch()`` acquires, ``retain``/``release``;
- ``opaque``: a communicator / task context escaping into a call the
  checker cannot see through -- the signal for the closed-world rules
  to stand down rather than guess.

Everything is name-based (like the ANL lint): the checker never
imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analyze.frontend import H5_FILE_TARGETS, dotted, resolve
from repro.analyze.proto import domain
from repro.analyze.proto.domain import Binding, Sym, SYM_TOP

#: Wildcard sentinel carried as a CONST :class:`Sym` value.
ANY = "<any>"
SYM_ANY = domain.const(ANY)

#: Dotted names resolving to the wildcard constants.
_ANY_SOURCE_NAMES = {"repro.simmpi.ANY_SOURCE", "ANY_SOURCE",
                     "repro.simmpi.message.ANY_SOURCE"}
_ANY_TAG_NAMES = {"repro.simmpi.ANY_TAG", "ANY_TAG",
                  "repro.simmpi.message.ANY_TAG"}

#: Method names that enter a collective rendezvous, mapped to the
#: operation kind the dynamic layer would record.
COLLECTIVES = {
    "barrier": "barrier", "epoch_barrier": "barrier", "bcast": "bcast",
    "reduce": "reduce", "allreduce": "allreduce",
    "allgather": "allgather", "alltoall": "alltoall",
    "alltoallv": "alltoall", "gather": "gather", "gatherv": "gather",
    "scatter": "scatter", "scatterv": "scatter", "scan": "scan",
    "exscan": "exscan", "reduce_scatter": "reduce_scatter",
    "split": "split", "dup": "dup",
}


@dataclass(frozen=True)
class CommRef:
    """Abstract handle on a communicator object."""

    key: str
    inter: bool = False


@dataclass(frozen=True)
class CtxRef:
    """Abstract handle on a workflow :class:`TaskContext`."""

    key: str = "ctx"


@dataclass(frozen=True)
class StreamRef:
    """Abstract handle on a stream producer/consumer."""

    role: str
    key: str = ""


@dataclass(frozen=True)
class HandleVal:
    """A freshly-opened resource handle (h5 file or stream epoch)."""

    res: str  # "h5" | "epoch"
    line: int


@dataclass(frozen=True)
class HandleRef:
    """Reference to a tracked open handle (interpreter-owned id)."""

    hid: int


@dataclass(frozen=True)
class RangeVal:
    """``range(...)`` value, kept symbolic for loop unrolling."""

    args: tuple[Sym, ...]


@dataclass(frozen=True)
class RaisesVal:
    """``pytest.raises(...)`` context: the body is *expected* to blow
    up, so resources opened inside it are not leak candidates."""


Value = object  # Sym | CommRef | CtxRef | StreamRef | HandleVal | ...


@dataclass(frozen=True)
class Effect:
    """One communication-relevant event observed on a path."""

    kind: str  # send recv coll request probe opaque
    line: int
    col: int = 0
    comm: str = ""
    inter: bool = False
    peer: Sym = SYM_TOP
    tag: Sym = SYM_TOP
    coll: str = ""
    detail: str = ""


@dataclass
class HandleEvent:
    """Open/close/retain/release on a handle variable (interpreter
    consumes these inline rather than storing them on the path)."""

    op: str  # open close retain release escape
    value: object = None
    line: int = 0


def _arg(call: ast.Call, pos: int, name: str) -> ast.expr | None:
    """Positional-or-keyword argument lookup."""
    if len(call.args) > pos \
            and not isinstance(call.args[pos], ast.Starred):
        return call.args[pos]
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


class Evaluator:
    """Abstract expression evaluation with effect emission.

    One evaluator is owned by one in-flight path; ``env`` maps local
    names to abstract values and is copied when paths fork.
    """

    def __init__(self, alias: dict[str, str],
                 binding: Binding | None = None) -> None:
        self.alias = alias
        self.binding = binding
        self.env: dict[str, Value] = {}
        self.effects: list[Effect] = []
        self.handle_events: list[HandleEvent] = []

    # -- helpers -----------------------------------------------------------

    def _emit(self, kind: str, node: ast.AST, **kw: object) -> None:
        eff = Effect(kind=kind, line=getattr(node, "lineno", 0),
                     col=getattr(node, "col_offset", 0),
                     **kw)  # type: ignore[arg-type]
        self.effects.append(eff)

    def _sym(self, node: ast.expr | None, default: Sym) -> Sym:
        if node is None:
            return default
        v = self.eval(node)
        return v if isinstance(v, Sym) else SYM_TOP

    # -- the evaluator ------------------------------------------------------

    def eval(self, node: ast.expr) -> Value:
        """Abstract value of ``node``; emits effects for calls seen."""
        if isinstance(node, ast.Constant):
            return domain.const(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            resolved = resolve(node.id, self.alias)
            if resolved in _ANY_SOURCE_NAMES | _ANY_TAG_NAMES:
                return SYM_ANY
            return SYM_TOP
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            left = self._sym(node.left, SYM_TOP)
            right = self._sym(node.right, SYM_TOP)
            return domain.binop(node.op, left, right, self.binding)
        if isinstance(node, ast.UnaryOp):
            v = self._sym(node.operand, SYM_TOP)
            if isinstance(node.op, ast.USub) and v.kind == domain.CONST \
                    and isinstance(v.val, (int, float)) \
                    and not isinstance(v.val, bool):
                return domain.const(-v.val)
            return SYM_TOP
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self.eval(e) for e in node.elts)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a, b = self.eval(node.body), self.eval(node.orelse)
            return a if a == b else SYM_TOP
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left = self._sym(node.left, SYM_TOP)
            right = self._sym(node.comparators[0], SYM_TOP)
            out = domain.compare(node.ops[0], left, right, self.binding)
            return SYM_TOP if out is None else domain.const(out)
        # Generic fallback: walk children for effect-bearing calls.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, (ast.comprehension,)):
                self.eval(child.iter)
                for cond in child.ifs:
                    self.eval(cond)
            elif isinstance(child, ast.keyword):
                self.eval(child.value)
        return SYM_TOP

    def _attribute(self, node: ast.Attribute) -> Value:
        base = self.eval(node.value)
        attr = node.attr
        if isinstance(base, CtxRef):
            if attr == "comm":
                return CommRef(f"{base.key}.comm")
            if attr == "world":
                return CommRef(f"{base.key}.world", inter=True)
            if attr == "rank":
                return domain.SYM_RANK
            if attr == "size":
                return domain.SYM_NPROCS
            return SYM_TOP
        if isinstance(base, CommRef):
            if attr == "rank":
                return domain.SYM_RANK if not base.inter else SYM_TOP
            if attr in ("size", "nprocs"):
                return domain.SYM_NPROCS if not base.inter else SYM_TOP
            return SYM_TOP
        # A bare ``something.rank`` / ``something.size`` in rank-body
        # style code still reads as rank identity for guard purposes.
        if attr == "rank" and isinstance(base, Sym) \
                and base.kind == domain.TOP \
                and _comm_like(node.value):
            return domain.SYM_RANK
        return SYM_TOP

    def _call(self, node: ast.Call) -> Value:
        func = node.func
        # Method calls on abstract objects.
        if isinstance(func, ast.Attribute):
            obj = self.eval(func.value)
            out = self._method(node, obj, func.attr)
            if out is not None:
                return out
        # Plain calls resolved through imports.
        target = resolve(dotted(func), self.alias)
        if target == "range" and 1 <= len(node.args) <= 3 \
                and not node.keywords:
            return RangeVal(tuple(self._sym(a, SYM_TOP)
                                  for a in node.args))
        if target in H5_FILE_TARGETS:
            self._eval_args(node)
            return HandleVal("h5", node.lineno)
        if target == "pytest.raises":
            self._eval_args(node)
            return RaisesVal()
        # Unknown call: evaluate arguments, note comm/ctx escapes.
        self._eval_args(node, opaque_node=node)
        return SYM_TOP

    def _method(self, node: ast.Call, obj: Value,
                attr: str) -> Value | None:
        """Classify a method call; None = not ours, fall through."""
        if isinstance(obj, CommRef):
            return self._comm_method(node, obj, attr)
        if isinstance(obj, CtxRef):
            if attr == "intercomm":
                a = _arg(node, 0, "other")
                peer = self._sym(a, SYM_TOP)
                key = (peer.val if peer.kind == domain.CONST
                       else "?")
                return CommRef(f"inter:{key}", inter=True)
            if attr == "stream_producer":
                self._eval_args(node)
                return StreamRef("producer")
            if attr == "stream_consumer":
                self._eval_args(node)
                return StreamRef("consumer")
            if attr == "singleton":
                self._eval_args(node)
                return SYM_TOP
            self._eval_args(node, opaque_node=node)
            return SYM_TOP
        if isinstance(obj, StreamRef):
            if attr == "next_epoch":
                self._eval_args(node)
                return HandleVal("epoch", node.lineno)
            self._eval_args(node)
            return SYM_TOP
        if isinstance(obj, HandleRef):
            if attr in ("close", "release"):
                self.handle_events.append(
                    HandleEvent("close", obj, node.lineno))
                return domain.const(None)
            if attr == "retain":
                self.handle_events.append(
                    HandleEvent("retain", obj, node.lineno))
                return domain.const(None)
            self._eval_args(node)
            return SYM_TOP
        return None

    def _comm_method(self, node: ast.Call, comm: CommRef,
                     attr: str) -> Value:
        key, inter = comm.key, comm.inter
        if attr in ("send", "isend"):
            self._eval_args(node)
            self._emit("send", node, comm=key, inter=inter,
                       peer=self._sym(_arg(node, 1, "dest"), SYM_TOP),
                       tag=self._sym(_arg(node, 2, "tag"),
                                     domain.const(0)))
            if attr == "isend":
                self._emit("request", node, comm=key, detail="isend")
            return SYM_TOP
        if attr in ("recv", "irecv"):
            self._eval_args(node)
            self._emit("recv", node, comm=key, inter=inter,
                       peer=self._sym(_arg(node, 0, "source"), SYM_ANY),
                       tag=self._sym(_arg(node, 1, "tag"), SYM_ANY))
            if attr == "irecv":
                self._emit("request", node, comm=key, detail="irecv")
            return SYM_TOP
        if attr == "sendrecv":
            self._eval_args(node)
            self._emit("send", node, comm=key, inter=inter,
                       peer=self._sym(_arg(node, 1, "dest"), SYM_TOP),
                       tag=self._sym(_arg(node, 3, "sendtag"),
                                     domain.const(0)))
            self._emit("recv", node, comm=key, inter=inter,
                       peer=self._sym(_arg(node, 2, "source"), SYM_ANY),
                       tag=self._sym(_arg(node, 4, "recvtag"), SYM_ANY))
            return SYM_TOP
        if attr == "probe":
            self._eval_args(node)
            self._emit("probe", node, comm=key, inter=inter,
                       peer=self._sym(_arg(node, 0, "source"), SYM_ANY),
                       tag=self._sym(_arg(node, 1, "tag"), SYM_ANY))
            return SYM_TOP
        if attr in COLLECTIVES:
            self._eval_args(node)
            self._emit("coll", node, comm=key, inter=inter,
                       coll=COLLECTIVES[attr])
            if attr in ("split", "dup"):
                return CommRef(f"{key}.{attr}@{node.lineno}")
            return SYM_TOP
        if attr == "notify_remote":
            # Fan-out send to every remote-group rank (inter-task).
            self._eval_args(node)
            self._emit("send", node, comm=key, inter=True, peer=SYM_ANY,
                       tag=self._sym(_arg(node, 1, "tag"), SYM_TOP))
            return SYM_TOP
        if attr in ("compute", "charge_memcpy", "charge_pack_elements",
                    "world_rank"):
            self._eval_args(node)
            return SYM_TOP
        # Unknown communicator method: the comm did not escape (it is
        # the receiver), but arguments are still evaluated.
        self._eval_args(node)
        return SYM_TOP

    def _eval_args(self, node: ast.Call,
                   opaque_node: ast.Call | None = None) -> None:
        """Evaluate every argument; when ``opaque_node`` is given, a
        comm/ctx/stream value escaping into the call emits ``opaque``
        and a handle argument escapes the handle."""
        vals: list[Value] = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                vals.append(self.eval(a.value))
            else:
                vals.append(self.eval(a))
        for kw in node.keywords:
            vals.append(self.eval(kw.value))
        flat: list[Value] = []
        for v in vals:
            if isinstance(v, tuple):
                flat.extend(v)
            else:
                flat.append(v)
        for v in flat:
            if isinstance(v, HandleRef):
                self.handle_events.append(
                    HandleEvent("escape", v, node.lineno))
            if opaque_node is not None \
                    and isinstance(v, (CommRef, CtxRef, StreamRef)):
                self._emit("opaque", opaque_node,
                           detail=dotted(opaque_node.func) or "call")


def _comm_like(node: ast.expr) -> bool:
    """Heuristic: does this expression smell like a communicator?"""
    name = dotted(node)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    return "comm" in last.lower()


# -- guard classification ----------------------------------------------------

#: Decision kinds recorded on paths.
D_RANK = "rank"       # guard depends on the calling rank
D_UNIFORM = "uniform"  # guard uniform across ranks (nprocs, intervals)
D_UNKNOWN = "unknown"  # data-dependent guard
D_EXCEPT = "except"    # exception edge taken


@dataclass(frozen=True)
class GuardInfo:
    """Classification of one branch test."""

    decided: bool | None  # definite outcome, when decidable
    kind: str             # D_RANK / D_UNIFORM / D_UNKNOWN
    key: str              # canonical identity for consistency tracking
    flip: bool            # True when the key's polarity is inverted
    text: str             # rendering for witnesses
    stable: bool = False  # guard value cannot change along a path


_PURE_KINDS = (domain.CONST, domain.RANK, domain.NPROCS)


def _canon_side(sym: Sym, node: ast.expr) -> str:
    """Value-canonical rendering of one comparison side, so that
    ``me == 0`` and ``comm.rank == 0`` share one guard identity."""
    if sym.kind in (domain.RANK, domain.NPROCS):
        return f"<{sym.kind}{sym.off:+d}>"
    if sym.kind == domain.CONST:
        return f"<const:{sym.val!r}>"
    return ast.dump(node)


def _canon_compare(node: ast.Compare, left: Sym,
                   right: Sym) -> tuple[str, bool]:
    """Canonical (key, flip) for single-op comparisons, so ``rank != 0``
    and ``rank == 0`` (and ``<`` / ``>=`` pairs) share one identity."""
    op = node.ops[0]
    ls = _canon_side(left, node.left)
    rs = _canon_side(right, node.comparators[0])
    if isinstance(op, ast.Eq):
        return f"eq({ls},{rs})", False
    if isinstance(op, ast.NotEq):
        return f"eq({ls},{rs})", True
    if isinstance(op, ast.Lt):
        return f"lt({ls},{rs})", False
    if isinstance(op, ast.GtE):
        return f"lt({ls},{rs})", True
    if isinstance(op, ast.Gt):
        return f"lt({rs},{ls})", False
    if isinstance(op, ast.LtE):
        return f"lt({rs},{ls})", True
    return ast.dump(node), False


def classify_test(node: ast.expr, ev: Evaluator) -> GuardInfo:
    """Evaluate + classify a branch condition.

    Effects inside the condition (rare, but ``if comm.recv()[0]:`` is
    legal) are emitted on ``ev`` as a side effect of evaluation.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        inner = classify_test(node.operand, ev)
        return GuardInfo(
            decided=None if inner.decided is None else not inner.decided,
            kind=inner.kind, key=inner.key, flip=not inner.flip,
            text=f"not {inner.text}", stable=inner.stable)

    text = ast.unparse(node) if hasattr(ast, "unparse") else "<guard>"
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        left = ev._sym(node.left, SYM_TOP)
        right = ev._sym(node.comparators[0], SYM_TOP)
        op = node.ops[0]
        decided: bool | None = None
        if isinstance(op, (ast.Is, ast.IsNot)):
            if left.kind == domain.CONST and right.kind == domain.CONST:
                same = left.val is right.val or left.val == right.val
                decided = same if isinstance(op, ast.Is) else not same
        else:
            decided = domain.compare(op, left, right, ev.binding)
        key, flip = _canon_compare(node, left, right)
        kind = D_UNKNOWN
        if domain.is_rankish(left) or domain.is_rankish(right):
            kind = D_RANK
        elif domain.NPROCS in (left.kind, right.kind) \
                or domain.INTERVAL in (left.kind, right.kind):
            kind = D_UNIFORM
        # A guard over rank/nprocs/constants only cannot change value
        # along a path, so its outcome may be cached for consistency.
        stable = left.kind in _PURE_KINDS and right.kind in _PURE_KINDS
        return GuardInfo(decided, kind, key, flip, text, stable)

    v = ev.eval(node)
    if isinstance(v, Sym):
        if v.kind == domain.CONST:
            return GuardInfo(bool(v.val), D_UNKNOWN, ast.dump(node),
                             False, text, stable=True)
        if v.kind == domain.RANK:
            # ``if rank:`` is a rank guard (truthiness of rank+off).
            return GuardInfo(None, D_RANK, f"truthy(<rank{v.off:+d}>)",
                             False, text, stable=True)
        if v.kind in (domain.NPROCS, domain.INTERVAL):
            return GuardInfo(None, D_UNIFORM, ast.dump(node), False,
                             text)
    return GuardInfo(None, D_UNKNOWN, ast.dump(node), False, text)
