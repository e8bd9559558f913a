"""Run ledger: persistent cross-run manifests + the drift comparator.

Every benchmark or workflow run distills into one :class:`RunRecord`
-- workload key, parameters, the exact virtual-time results
(``vtime``/``messages``/``bytes_sent``), a cost-model digest, counter
totals, the causal attribution summary and stable series digests --
appended as one JSON line to a :class:`Ledger` file (by convention
``results/ledger.jsonl``). Wall-clock and timestamp fields are carried
for information but excluded from :meth:`RunRecord.digest`, so
same-seed runs of the same tree produce byte-identical stable records.

When two runs that should agree do not, :func:`first_diff` names the
first differing path and both values (:func:`assert_identical` is the
test-side wrapper; ``regress`` prints it per drifted record).

The same module owns the one drift comparator: :func:`compare_runs`
checks the exact virtual fields (and data digests) bit-for-bit and
applies relative tolerances to noisy fields (wall seconds, wait
fractions); :func:`check_reference` wraps it with the reference-file,
params and row-coverage guards. ``python -m repro.tools regress``
exposes it for any pair of run documents or ledgers; the reference
runs' gate is ``regress`` against ``benchmarks/BENCH_ref.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

#: Virtual fields that must be bit-identical across perf-only changes.
EXACT_FIELDS = ("vtime", "messages", "bytes_sent")

#: Machine/timestamp-dependent fields excluded from the stable digest.
VOLATILE_FIELDS = ("wall_seconds", "created_at", "git_rev",
                   "obs_overhead_frac", "wall_obs_off")


def _canonical(doc: object) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def first_diff(a: Any, b: Any, path: str = "") -> str | None:
    """``None`` when two JSON-able documents are equal, else
    ``"<path>: <a> != <b>"`` for the first differing leaf in canonical
    order (sorted dict keys, list positions)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                return (f"{path}/{k}: {a.get(k, '<missing>')!r} != "
                        f"{b.get(k, '<missing>')!r}")
            diff = first_diff(a[k], b[k], f"{path}/{k}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_diff(x, y, f"{path}/{i}")
            if diff is not None:
                return diff
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def assert_identical(docs: Sequence[Any]) -> None:
    """Every document serializes to the same bytes as the first; a
    mismatch names the first differing path and both values."""
    blobs = [json.dumps(d, sort_keys=True) for d in docs]
    for i in range(1, len(docs)):
        assert blobs[i] == blobs[0], (
            f"run {i} differs from run 0 at "
            f"{first_diff(json.loads(blobs[0]), json.loads(blobs[i]))}"
        )


def stable_doc(doc: dict[str, Any]) -> dict[str, Any]:
    """A run document minus every volatile field."""
    return {k: v for k, v in doc.items() if k not in VOLATILE_FIELDS}


def cost_digest(costs: Any) -> str | None:
    """Stable digest of a cost-model dataclass (e.g. ``CostConfig``)."""
    if costs is None:
        return None
    doc = asdict(costs) if is_dataclass(costs) else dict(costs)
    return hashlib.blake2b(_canonical(doc), digest_size=6).hexdigest()


def git_rev() -> str | None:
    """Short git revision of the working tree (or ``None``).

    ``REPRO_GIT_REV`` overrides; the subprocess is best-effort so a
    ledger append never fails because the tree is not a checkout.
    """
    rev = os.environ.get("REPRO_GIT_REV")
    if rev:
        return rev
    try:
        import subprocess

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or None
    except Exception:  # noqa: BLE001,ANL006 - telemetry must never fail a run
        return None


def counter_totals(metrics_doc: dict[str, Any] | None) -> dict[str, float]:
    """Aggregate a metrics dump's counters to per-name totals.

    Label sets (``rank=``, ``file=``, ...) fold together, so the result
    is compact and deterministic (sorted-key summation order).
    """
    if not metrics_doc:
        return {}
    out: dict[str, float] = {}
    for key in sorted(metrics_doc.get("counter", {})):
        name = key.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + metrics_doc["counter"][key]["total"]
    return out


@dataclass
class RunRecord:
    """Manifest of one run, as appended to the ledger.

    ``workload`` is the cross-run join key (same convention as the
    bench documents: ``fig5/lowfive_memory/P4``). The exact fields
    (:data:`EXACT_FIELDS`) plus ``params``/``cost_digest``/``counters``
    /``attribution``/``series`` form the stable portion;
    :data:`VOLATILE_FIELDS` are informational.
    """

    workload: str
    vtime: float
    messages: int
    bytes_sent: int
    schema_version: int = SCHEMA_VERSION
    nprocs: int = 0
    mode: str | None = None
    seed: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    cost_digest: str | None = None
    git_rev: str | None = None
    wall_seconds: float | None = None
    created_at: str | None = None
    attempts: int = 1
    failed_tasks: tuple[str, ...] = ()
    #: Per-name counter totals (labels folded), deterministic.
    counters: dict[str, float] = field(default_factory=dict)
    #: Causal summary: critpath shares/phases, wait taxonomy, shares.
    attribution: dict[str, Any] | None = None
    #: Stable per-series content digests.
    series: dict[str, str] = field(default_factory=dict)
    #: Free-form digest-stable extras (data digests, levels, depths).
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """JSON-able form of every field (one ledger line)."""
        doc = asdict(self)
        doc["failed_tasks"] = list(self.failed_tasks)
        return doc

    def stable_json(self) -> dict[str, Any]:
        """The record minus every volatile field."""
        return stable_doc(self.to_json())

    def digest(self) -> str:
        """Content digest of the stable portion; same-seed runs of the
        same tree must agree byte-for-byte."""
        return hashlib.blake2b(_canonical(self.stable_json()),
                               digest_size=8).hexdigest()

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_json` output; unknown keys
        land in ``extra`` so newer ledgers still load."""
        known = {f for f in cls.__dataclass_fields__}
        kw = {k: v for k, v in doc.items() if k in known}
        kw["failed_tasks"] = tuple(kw.get("failed_tasks", ()))
        extra = {k: v for k, v in doc.items() if k not in known}
        if extra:
            kw.setdefault("extra", {}).update(extra)
        return cls(**kw)


def record_from_result(res: Any, workload: str, *, mode: str | None = None,
                       params: dict[str, Any] | None = None,
                       seed: int | None = None,
                       costs: Any = None, wall_seconds: float | None = None,
                       created_at: str | None = None,
                       extra: dict[str, Any] | None = None,
                       attribution: bool = True) -> RunRecord:
    """Distill a finished run into a :class:`RunRecord`.

    ``res`` is a :class:`~repro.workflow.runner.WorkflowResult` or
    :class:`~repro.simmpi.engine.WorldResult` -- anything exposing
    ``vtime``/``messages``/``bytes_sent`` and (optionally) ``obs``,
    ``clocks``, ``attempts``, ``failed_tasks``.
    """
    obs = getattr(res, "obs", None)
    counters: dict[str, float] = {}
    series: dict[str, str] = {}
    if obs is not None:
        counters = counter_totals(obs.metrics.to_dict())
        series = obs.series.digests()
    attr = None
    if attribution and obs is not None and getattr(res, "clocks", None):
        try:
            attr = res.causal_report().summary()
        except Exception:  # noqa: BLE001,ANL006 - results without causal data
            attr = None
    nprocs = len(getattr(res, "clocks", ()) or ())
    return RunRecord(
        workload=workload,
        vtime=res.vtime,
        messages=res.messages,
        bytes_sent=res.bytes_sent,
        nprocs=nprocs,
        mode=mode,
        seed=seed,
        params=dict(params or {}),
        cost_digest=cost_digest(costs),
        git_rev=git_rev(),
        wall_seconds=wall_seconds,
        created_at=created_at,
        attempts=getattr(res, "attempts", 1),
        failed_tasks=tuple(getattr(res, "failed_tasks", ()) or ()),
        counters=counters,
        attribution=attr,
        series=series,
        extra=dict(extra or {}),
    )


def record_from_run(run: dict[str, Any], *,
                    params: dict[str, Any] | None = None,
                    mode: str | None = None,
                    created_at: str | None = None,
                    costs: Any = None) -> RunRecord:
    """Build a record from a bench-document run dict.

    Fields the bench already computed (``workload``, the exact virtual
    fields, ``wall_seconds``, ``nprocs``, ``attribution``, ``digest``)
    map onto the record; everything else rides in ``extra``.
    """
    known = ("workload", "vtime", "messages", "bytes_sent", "nprocs",
             "wall_seconds", "attribution")
    extra = {k: v for k, v in run.items() if k not in known}
    return RunRecord(
        workload=run["workload"],
        vtime=run["vtime"],
        messages=run["messages"],
        bytes_sent=run["bytes_sent"],
        nprocs=run.get("nprocs", 0),
        mode=mode,
        params=dict(params or {}),
        cost_digest=cost_digest(costs),
        git_rev=git_rev(),
        wall_seconds=run.get("wall_seconds"),
        created_at=created_at,
        attribution=run.get("attribution"),
        extra=extra,
    )


class Ledger:
    """Append-only JSONL file of :class:`RunRecord` lines."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, record: RunRecord) -> None:
        """Append one record (creating parent directories as needed)."""
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a") as f:
            json.dump(record.to_json(), f, sort_keys=True,
                      separators=(",", ":"))
            f.write("\n")

    def append_doc(self, doc: dict[str, Any], *, mode: str | None = None,
                   created_at: str | None = None) -> int:
        """Append every run of a bench document; returns the count."""
        n = 0
        for run in doc.get("runs", []):
            self.append(record_from_run(run, params=doc.get("params"),
                                        mode=mode, created_at=created_at))
            n += 1
        return n

    def records(self) -> list[RunRecord]:
        """Every record in file order (missing file = empty ledger)."""
        if not os.path.exists(self.path):
            return []
        out: list[RunRecord] = []
        with open(self.path) as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(RunRecord.from_json(json.loads(line)))
        return out

    def latest(self, workload: str) -> RunRecord | None:
        """The most recent record of ``workload`` (or ``None``)."""
        found = None
        for rec in self.records():
            if rec.workload == workload:
                found = rec
        return found

    def runs_doc(self) -> dict[str, Any]:
        """The ledger as a comparator-ready ``{"runs": [...]}`` doc,
        keeping only the newest record per workload."""
        by_key: dict[str, dict[str, Any]] = {}
        for rec in self.records():
            by_key[rec.workload] = rec.to_json()
        return {"schema_version": SCHEMA_VERSION,
                "runs": [by_key[k] for k in sorted(by_key)]}


# -- the unified comparator ---------------------------------------------------


def _get_path(doc: dict[str, Any], dotted: str) -> Any:
    """Resolve ``"attribution.shares.wait"`` through nested dicts."""
    cur: Any = doc
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def compare_runs(runs: list[dict[str, Any]], ref: dict[str, Any], *,
                 exact: Sequence[str] = EXACT_FIELDS,
                 check_digest: bool = True,
                 tolerances: dict[str, float] | None = None,
                 ) -> tuple[list[str], set[str]]:
    """Compare run dicts against a reference document's runs.

    Exact fields the reference carries must be present and
    bit-identical; a committed ``digest`` must match when the reference
    carries one; ``tolerances`` maps dotted field paths to allowed
    *relative* drift. Runs the reference lacks are skipped. Returns
    ``(problems, names of the compared runs)``.
    """
    problems: list[str] = []
    matched: set[str] = set()
    ref_runs = {r["workload"]: r for r in ref.get("runs", [])}
    for run in runs:
        name = run.get("workload")
        base = ref_runs.get(name)
        if base is None:
            continue
        matched.add(name)
        for fieldname in exact:
            if fieldname not in base:
                continue
            if fieldname not in run:
                problems.append(f"{name}: {fieldname} missing (reference "
                                f"{base[fieldname]!r})")
            elif run[fieldname] != base[fieldname]:
                problems.append(
                    f"{name}: {fieldname} drifted "
                    f"{base[fieldname]!r} -> {run[fieldname]!r}"
                )
        if check_digest:
            # Ledger records carry bench extras (incl. the data digest)
            # under "extra" -- honour both layouts on both sides.
            base_dig = base.get("digest") \
                or base.get("extra", {}).get("digest")
            run_dig = run.get("digest") \
                or run.get("extra", {}).get("digest")
            if base_dig and run_dig != base_dig:
                problems.append(f"{name}: data digest drifted")
        for dotted, tol in (tolerances or {}).items():
            mine, ours = _get_path(base, dotted), _get_path(run, dotted)
            if not isinstance(mine, (int, float)) \
                    or not isinstance(ours, (int, float)):
                continue
            scale = max(abs(mine), abs(ours), 1e-12)
            drift = abs(ours - mine) / scale
            if drift > tol:
                problems.append(
                    f"{name}: {dotted} drifted beyond tolerance "
                    f"{tol:g} ({mine!r} -> {ours!r}, rel {drift:.3g})"
                )
    return problems, matched


def load_runs_doc(path: str) -> dict[str, Any]:
    """Load a run document: bench JSON (``{"runs": [...]}``) or a
    JSONL ledger (one record per line)."""
    if path.endswith(".jsonl"):
        return Ledger(path).runs_doc()
    with open(path) as f:
        head = f.read(1)
        f.seek(0)
        if head == "{":
            doc: dict[str, Any] = json.load(f)
            return doc
    return Ledger(path).runs_doc()


def check_reference(runs: list[dict[str, Any]], ref_path: str, *,
                    our_params: dict[str, Any] | None = None,
                    check_ref: bool = False,
                    exact: Sequence[str] = EXACT_FIELDS,
                    check_digest: bool = True,
                    tolerances: dict[str, float] | None = None) -> list[str]:
    """The reference gate: :func:`compare_runs` behind the guards.

    A missing reference or non-covering parameters are problems only
    under ``check_ref``; matching parameters always run the comparison.
    Under ``check_ref`` every reference row must also have a current
    run: an empty intersection is one problem, otherwise each
    unmatched reference row is one.
    """
    if not os.path.exists(ref_path):
        return [f"reference {ref_path} not found"] if check_ref else []
    ref_doc = load_runs_doc(ref_path)
    ref_params = ref_doc.get("params", {})
    if our_params is not None and \
            not all(ref_params.get(k) == v for k, v in our_params.items()):
        if check_ref:
            return [
                f"reference params {ref_params} do not cover this run "
                f"({our_params}); cannot check drift"
            ]
        return []
    problems, matched = compare_runs(
        runs, ref_doc, exact=exact, check_digest=check_digest,
        tolerances=tolerances,
    )
    if check_ref and not matched:
        problems.append("reference matched no workloads")
    elif check_ref:
        problems += [f"{r['workload']}: reference row has no current run"
                     for r in ref_doc.get("runs", [])
                     if r["workload"] not in matched]
    return problems
