"""Per-function control-flow graphs for the static protocol checker.

Built once per function from the AST: basic blocks of simple
statements connected by branch / loop / exception edges. Structured
control flow is lowered the classic way:

- ``if``/``while``/``for`` produce branch blocks with explicit
  true/false successors; loop bodies jump **back** to their header
  (the interpreter bounds how often a back edge may be followed).
- ``with`` is desugared: the context expression is assigned to the
  ``as`` name (or a synthetic one) and a :class:`ExitCtx` token is
  injected on *every* route out of the body -- normal fall-through,
  ``return``, ``break``, ``continue`` and ``raise`` -- mirroring how
  ``__exit__`` really runs.
- ``try``/``finally`` duplicates the ``finally`` body onto every exit
  route the same way.
- statements inside a ``try`` body get their own single-statement
  blocks carrying ``except_to`` (the handler entry points), so the
  interpreter can fork "an exception fired after this statement"
  paths exactly where that matters.

``return``/``raise``/falling off the end terminate in an
:class:`Exit` block; ``match`` statements and ``async`` constructs
raise :class:`Unsupported`, which callers treat as "skip this
function, report nothing" (a checker that guesses would lie).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Hard cap on blocks per function (runaway guard).
MAX_BLOCKS = 2000


class Unsupported(Exception):
    """The function uses control flow the CFG does not model."""


@dataclass(frozen=True)
class ExitCtx:
    """Synthetic statement: ``with`` block exit for handle ``var``."""

    var: str
    line: int


@dataclass(frozen=True)
class Jump:
    """Unconditional edge; ``back`` marks a loop back edge."""

    dst: int
    back: bool = False


@dataclass(frozen=True)
class Branch:
    """Two-way branch on ``test``."""

    test: ast.expr
    true: int
    false: int
    line: int


@dataclass(frozen=True)
class ForLoop:
    """``for target in iter`` header; interpreter drives iterations."""

    target: ast.expr
    iter: ast.expr
    body: int
    after: int
    line: int


@dataclass(frozen=True)
class Exit:
    """Function exit: ``kind`` is ``return`` / ``raise`` / ``end``."""

    kind: str
    value: ast.expr | None
    line: int


Term = Jump | Branch | ForLoop | Exit


@dataclass
class Block:
    """One basic block: simple statements plus a terminator."""

    bid: int
    stmts: list[ast.stmt | ExitCtx] = field(default_factory=list)
    term: Term | None = None
    #: Handler entry block ids active for this block's statements.
    except_to: tuple[int, ...] = ()


@dataclass
class CFG:
    """The graph: ``blocks[0]`` is the entry block."""

    name: str
    line: int
    blocks: list[Block] = field(default_factory=list)

    def new_block(self, except_to: tuple[int, ...] = ()) -> Block:
        """Append an empty block (``Unsupported`` past ``MAX_BLOCKS``)."""
        if len(self.blocks) >= MAX_BLOCKS:
            raise Unsupported(f"{self.name}: too many blocks")
        b = Block(bid=len(self.blocks), except_to=except_to)
        self.blocks.append(b)
        return b


@dataclass
class _Frame:
    """Loop context + cleanup the builder threads through exits.

    ``cleanup`` holds :class:`ExitCtx` tokens (innermost last) that any
    early exit crossing this frame must emit first.
    """

    break_to: int | None = None
    continue_to: int | None = None
    cleanup: list[ExitCtx] = field(default_factory=list)


class _Builder:
    """Lowers one function body to a :class:`CFG`."""

    def __init__(self, fn: ast.FunctionDef) -> None:
        self.cfg = CFG(name=fn.name, line=fn.lineno)
        self.frames: list[_Frame] = [_Frame()]
        self.with_seq = 0

    # -- plumbing ----------------------------------------------------------

    def _cleanup_since(self, loop_exit: bool) -> list[ExitCtx]:
        """Tokens to emit before leaving: all frames for ``return`` /
        ``raise``, frames inside the nearest loop for break/continue."""
        toks: list[ExitCtx] = []
        for fr in reversed(self.frames):
            toks.extend(reversed(fr.cleanup))
            if loop_exit and fr.break_to is not None:
                break
        return toks

    def _seal(self, block: Block, term: Term) -> None:
        if block.term is None:
            block.term = term

    # -- statement lowering -------------------------------------------------

    def build(self, body: list[ast.stmt]) -> CFG:
        entry = self.cfg.new_block()
        last = self._body(body, entry, ())
        self._seal(last, Exit("end", None, 0))
        for b in self.cfg.blocks:
            if b.term is None:  # pragma: no cover - safety net
                b.term = Exit("end", None, 0)
        return self.cfg

    def _body(self, stmts: list[ast.stmt], cur: Block,
              except_to: tuple[int, ...]) -> Block:
        """Lower a statement list starting in ``cur``; returns the
        (possibly new) block where control falls out."""
        for stmt in stmts:
            if cur.term is not None:
                # Unreachable code after return/raise/break: stop.
                return cur
            cur = self._stmt(stmt, cur, except_to)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: Block,
              except_to: tuple[int, ...]) -> Block:
        cfg = self.cfg
        if isinstance(stmt, (ast.AsyncFunctionDef, ast.AsyncFor,
                             ast.AsyncWith, ast.Await)):
            raise Unsupported(f"{cfg.name}: async construct")
        if isinstance(stmt, ast.Match):
            raise Unsupported(f"{cfg.name}: match statement")

        if isinstance(stmt, ast.If):
            true_b = cfg.new_block(except_to)
            false_b = cfg.new_block(except_to)
            join = cfg.new_block(except_to)
            self._seal(cur, Branch(stmt.test, true_b.bid, false_b.bid,
                                   stmt.lineno))
            t_end = self._body(stmt.body, true_b, except_to)
            self._seal(t_end, Jump(join.bid))
            f_end = self._body(stmt.orelse, false_b, except_to)
            self._seal(f_end, Jump(join.bid))
            return join

        if isinstance(stmt, ast.While):
            head = cfg.new_block(except_to)
            body_b = cfg.new_block(except_to)
            after = cfg.new_block(except_to)
            self._seal(cur, Jump(head.bid))
            self._seal(head, Branch(stmt.test, body_b.bid, after.bid,
                                    stmt.lineno))
            self.frames.append(_Frame(break_to=after.bid,
                                      continue_to=head.bid))
            b_end = self._body(stmt.body, body_b, except_to)
            self._seal(b_end, Jump(head.bid, back=True))
            self.frames.pop()
            if stmt.orelse:
                return self._body(stmt.orelse, after, except_to)
            return after

        if isinstance(stmt, ast.For):
            head = cfg.new_block(except_to)
            body_b = cfg.new_block(except_to)
            after = cfg.new_block(except_to)
            self._seal(cur, Jump(head.bid))
            self._seal(head, ForLoop(stmt.target, stmt.iter, body_b.bid,
                                     after.bid, stmt.lineno))
            self.frames.append(_Frame(break_to=after.bid,
                                      continue_to=head.bid))
            b_end = self._body(stmt.body, body_b, except_to)
            self._seal(b_end, Jump(head.bid, back=True))
            self.frames.pop()
            if stmt.orelse:
                return self._body(stmt.orelse, after, except_to)
            return after

        if isinstance(stmt, ast.With):
            return self._with(stmt, cur, except_to)

        if isinstance(stmt, ast.Try):
            return self._try(stmt, cur, except_to)

        if isinstance(stmt, ast.Return):
            for tok in self._cleanup_since(loop_exit=False):
                cur.stmts.append(tok)
            self._seal(cur, Exit("return", stmt.value, stmt.lineno))
            return cur

        if isinstance(stmt, ast.Raise):
            for tok in self._cleanup_since(loop_exit=False):
                cur.stmts.append(tok)
            if except_to:
                self._seal(cur, Jump(except_to[0]))
            else:
                self._seal(cur, Exit("raise", stmt.exc, stmt.lineno))
            return cur

        if isinstance(stmt, (ast.Break, ast.Continue)):
            for tok in self._cleanup_since(loop_exit=True):
                cur.stmts.append(tok)
            for fr in reversed(self.frames):
                if fr.break_to is not None:
                    dst = (fr.break_to if isinstance(stmt, ast.Break)
                           else fr.continue_to)
                    assert dst is not None
                    self._seal(cur, Jump(
                        dst, back=isinstance(stmt, ast.Continue)))
                    return cur
            raise Unsupported(f"{cfg.name}: break/continue outside loop")

        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            # Nested definitions are analyzed separately; here the name
            # simply becomes an unknown local.
            return cur

        # Everything else is a simple statement.
        cur.stmts.append(stmt)
        if except_to:
            # Inside a try body each statement gets its own block so the
            # interpreter can fork exception edges precisely.
            nxt = cfg.new_block(except_to)
            self._seal(cur, Jump(nxt.bid))
            return nxt
        return cur

    def _with(self, stmt: ast.With, cur: Block,
              except_to: tuple[int, ...]) -> Block:
        toks: list[ExitCtx] = []
        for item in stmt.items:
            if item.optional_vars is not None \
                    and isinstance(item.optional_vars, ast.Name):
                var = item.optional_vars.id
                assign: ast.stmt = ast.Assign(
                    targets=[item.optional_vars], value=item.context_expr)
            else:
                self.with_seq += 1
                var = f"__with{self.with_seq}__"
                name = ast.Name(id=var, ctx=ast.Store())
                ast.copy_location(name, item.context_expr)
                assign = ast.Assign(targets=[name],
                                    value=item.context_expr)
            ast.copy_location(assign, stmt)
            ast.fix_missing_locations(assign)
            cur = self._stmt(assign, cur, except_to)
            toks.append(ExitCtx(var, stmt.lineno))
        self.frames[-1].cleanup.extend(toks)
        end = self._body(stmt.body, cur, except_to)
        for tok in reversed(toks):
            self.frames[-1].cleanup.remove(tok)
            if end.term is None:
                end.stmts.append(tok)
        return end

    def _try(self, stmt: ast.Try, cur: Block,
             except_to: tuple[int, ...]) -> Block:
        cfg = self.cfg
        join = cfg.new_block(except_to)
        # Handlers first, so try-body blocks can point at them.
        handler_entries: list[int] = []
        fin_toks: list[ExitCtx] = []
        if stmt.finalbody:
            # Model ``finally`` by replaying its statements on every
            # route out; communication in finally bodies is rare and
            # the replay keeps paths linear.
            pass
        for handler in stmt.handlers:
            h_entry = cfg.new_block(except_to)
            handler_entries.append(h_entry.bid)
            h_end = self._body(handler.body, h_entry, except_to)
            h_end = self._body(stmt.finalbody, h_end, except_to)
            self._seal(h_end, Jump(join.bid))
        inner_except = tuple(handler_entries) or except_to
        # The try body needs its own block: statements appended to
        # ``cur`` would keep ``cur``'s exception edges (or lack of
        # them) instead of pointing at the handlers.
        body_entry = cfg.new_block(inner_except)
        self._seal(cur, Jump(body_entry.bid))
        body_end = self._body(stmt.body, body_entry, inner_except)
        # ``else``/``finally`` run outside the handlers' protection.
        after = cfg.new_block(except_to)
        self._seal(body_end, Jump(after.bid))
        after_end = self._body(stmt.orelse, after, except_to)
        after_end = self._body(stmt.finalbody, after_end, except_to)
        self._seal(after_end, Jump(join.bid))
        del fin_toks
        return join


def build_cfg(fn: ast.FunctionDef) -> CFG:
    """The CFG of one function; raises :class:`Unsupported` when the
    function uses control flow outside the modeled subset."""
    return _Builder(fn).build(fn.body)
