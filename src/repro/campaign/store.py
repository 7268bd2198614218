"""Typed campaign results and the JSONL run store.

One campaign run is one JSONL file: a ``meta`` record first (grid
digest, spec echo), then one ``result`` record per completed task,
appended and flushed one compile-key group at a time.  The loader is
tolerant of a truncated final line — the expected state of a file whose
writer was killed mid-write — so a resumed campaign picks up exactly the
tasks whose results made it to disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..report import format_mesh

#: classification keys aggregated by the summary (mapping counts)
CLASS_KEYS = ("local", "translation", "macro", "decomposed", "general")

#: the structured error taxonomy recorded in ``TaskResult.error_kind``:
#: ``compile``/``price`` locate deterministic failures by pipeline
#: stage, ``timeout`` covers wall-clock caps and supervisor-detected
#: hangs, ``crash`` is worker death (SIGKILL, segfault), ``oom`` is
#: memory exhaustion caught in-process, ``fault`` is an injected
#: transient failure (see :mod:`repro.campaign.faults`)
ERROR_KINDS = ("compile", "price", "timeout", "crash", "oom", "fault")

#: ``TaskResult.status`` values ("crashed" = the worker died under the
#: task; resilient/pool executors record it instead of hanging)
STATUSES = ("ok", "error", "timeout", "crashed")


@dataclass
class TaskResult:
    """Outcome of one sweep task.

    Deterministic payload (everything the compiler and the machine
    models computed) plus one wall-clock field, ``seconds``, which is
    excluded from equality comparisons so an interrupted-and-resumed
    campaign can be checked result-identical to an uninterrupted one.
    """

    task_id: str
    workload: str
    machine: str
    mesh: Tuple[int, ...]
    m: int
    rank_weights: bool
    status: str  # see STATUSES
    counts: Dict[str, int] = field(default_factory=dict)
    residuals: int = 0
    total_time: float = 0.0
    total_messages: int = 0
    total_volume: int = 0
    baseline_residuals: int = 0
    baseline_time: float = 0.0
    error: Optional[str] = None
    #: structured failure class (see ERROR_KINDS); None for ok records
    error_kind: Optional[str] = None
    #: attempts consumed (retry/backoff telemetry); like ``seconds``
    #: this depends on the run's fault history, not the task, so it is
    #: excluded from equality and from ``deterministic_dict``
    attempts: int = field(default=1, compare=False)
    seconds: float = field(default=0.0, compare=False)
    #: whether this task's compile stage was served from the runner's
    #: per-worker cache — in-memory telemetry only, *never* written to
    #: the JSONL record (compile-once/price-many must leave the stored
    #: records byte-identical to a recompile-every-cell run)
    compile_cache_hit: Optional[bool] = field(default=None, compare=False)
    #: whether this task's Feautrier-baseline price was served from the
    #: runner's per-worker price memo — in-memory telemetry only, same
    #: byte-identity contract as ``compile_cache_hit``
    baseline_cache_hit: Optional[bool] = field(default=None, compare=False)
    #: span tree (``{path: {"count", "seconds"}}``) of the group run
    #: this record came from, set on the run's first record while
    #: tracing is enabled (``None`` elsewhere) — in-memory telemetry shipped
    #: back through the result pipe and written to the ``--trace`` JSONL
    #: file, *never* to the result store (traces must leave the stored
    #: records byte-identical to an untraced run)
    trace: Optional[Dict] = field(default=None, compare=False)

    def deterministic_dict(self) -> Dict:
        """The payload minus wall-clock timing and attempt counts (the
        resume-equality basis: a faulted-then-retried campaign must
        converge to the same deterministic payload as a clean one)."""
        d = self.to_dict()
        d.pop("seconds", None)
        d.pop("attempts", None)
        return d

    def to_dict(self) -> Dict:
        """The JSONL record: every field except the in-memory telemetry
        (``compile_cache_hit``, ``baseline_cache_hit``, ``trace``)."""
        d = {
            "task_id": self.task_id,
            "workload": self.workload,
            "machine": self.machine,
            "mesh": list(self.mesh),
            "m": self.m,
            "rank_weights": self.rank_weights,
            "status": self.status,
            "counts": dict(self.counts),
            "residuals": self.residuals,
            "total_time": self.total_time,
            "total_messages": self.total_messages,
            "total_volume": self.total_volume,
            "baseline_residuals": self.baseline_residuals,
            "baseline_time": self.baseline_time,
            "error": self.error,
        }
        # default-valued taxonomy fields are omitted so records of a
        # fault-free campaign stay byte-identical to the historical
        # format (golden-tested)
        if self.error_kind is not None:
            d["error_kind"] = self.error_kind
        if self.attempts != 1:
            d["attempts"] = self.attempts
        d["seconds"] = self.seconds
        d["record"] = "result"
        return d

    @staticmethod
    def from_dict(d: Dict) -> "TaskResult":
        return TaskResult(
            task_id=d["task_id"],
            workload=d["workload"],
            machine=d["machine"],
            mesh=tuple(d["mesh"]),
            m=d["m"],
            rank_weights=bool(d["rank_weights"]),
            status=d["status"],
            counts={k: int(v) for k, v in d.get("counts", {}).items()},
            residuals=int(d.get("residuals", 0)),
            total_time=float(d.get("total_time", 0.0)),
            total_messages=int(d.get("total_messages", 0)),
            total_volume=int(d.get("total_volume", 0)),
            baseline_residuals=int(d.get("baseline_residuals", 0)),
            baseline_time=float(d.get("baseline_time", 0.0)),
            error=d.get("error"),
            error_kind=d.get("error_kind"),
            attempts=int(d.get("attempts", 1)),
            seconds=float(d.get("seconds", 0.0)),
        )


class RunStore:
    """Append-only JSONL store for one campaign run.

    :meth:`append` writes one compile-key group's records with one
    ``write`` and one flush through a single handle, opened on the first
    append and closed by :meth:`close` (``run_campaign`` closes it when
    the run ends).  ``fsync`` controls whether every appended group is
    also forced to stable storage (survives power loss, not just process
    death).  A killed writer loses at most the in-flight group either
    way — a cut write leaves whole records plus at most one partial
    line, which the loader skips — but a per-group ``fsync`` costs
    throughput on large campaigns, so it is **opt-in**: pass
    ``fsync=True`` (the campaign runner passes ``REPRO_STORE_FSYNC``
    through its :class:`~repro._config.Settings`).
    """

    def __init__(self, path: str, fsync: bool = False):
        self.path = path
        self.fsync = fsync
        self._fh = None

    # -- writing --------------------------------------------------------

    def _tmp_path(self) -> str:
        return f"{self.path}.tmp.{os.getpid()}"

    def start(self, meta: Dict) -> None:
        """Create/truncate the file and write the meta record.

        The write is atomic (temp file + rename): a crash mid-``start``
        leaves either the previous file or the new one-line file on
        disk, never a half-written meta record.
        """
        self.close()
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        tmp = self._tmp_path()
        try:
            with open(tmp, "w") as fh:
                fh.write(json.dumps({"record": "meta", **meta}, sort_keys=True))
                fh.write("\n")
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def compact(self, meta: Dict, results: "Iterable[TaskResult]") -> None:
        """Atomically rewrite the store as ``meta`` + ``results``.

        Used by ``retry_failures`` resume to drop superseded failure
        lines (a retried task's fresh record already wins by
        last-record-wins; compaction keeps the checkpoint from growing
        one stale line per retry).  Temp-file + rename, so a crash
        mid-compaction leaves the previous file intact.
        """
        self.close()
        meta = {k: v for k, v in meta.items() if k != "_skipped_lines"}
        meta.pop("record", None)
        tmp = self._tmp_path()
        try:
            with open(tmp, "w") as fh:
                fh.write(json.dumps({"record": "meta", **meta}, sort_keys=True))
                fh.write("\n")
                for r in results:
                    fh.write(json.dumps(r.to_dict(), sort_keys=True))
                    fh.write("\n")
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def append_meta(self, meta: Dict) -> None:
        """Append a meta record without touching existing results (used
        when a resumed checkpoint lost its original meta line; the
        loader keeps the last meta record seen)."""
        with open(self.path, "a") as fh:
            fh.write(json.dumps({"record": "meta", **meta}, sort_keys=True))
            fh.write("\n")

    def repair_trailing_newline(self) -> None:
        """Terminate a dangling half-record left by a killed writer.

        Without this, the next ``append`` would concatenate onto the
        truncated line and corrupt one more record; with it, the
        partial line is isolated and skipped by :meth:`load`.
        """
        if not os.path.exists(self.path) or os.path.getsize(self.path) == 0:
            return
        with open(self.path, "rb+") as fh:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")

    def append(self, results: Sequence[TaskResult]) -> None:
        """Append one group's results with one write and one flush (plus
        one ``fsync`` when enabled) — this *is* the checkpoint."""
        if self._fh is None:
            self._fh = open(self.path, "a")
        self._fh.write(
            "".join(
                json.dumps(r.to_dict(), sort_keys=True) + "\n"
                for r in results
            )
        )
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the append handle (the next :meth:`append` reopens)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading --------------------------------------------------------

    def load(self) -> Tuple[Dict, Dict[str, TaskResult]]:
        """Meta record + results keyed by task id.

        Undecodable lines (a record truncated by a kill) are skipped;
        their count is reported under meta key ``_skipped_lines``.
        """
        meta: Dict = {}
        results: Dict[str, TaskResult] = {}
        skipped = 0
        if not os.path.exists(self.path):
            return meta, results
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                    if d.get("record") == "meta":
                        meta = d
                    else:
                        r = TaskResult.from_dict(d)
                        results[r.task_id] = r
                except (ValueError, KeyError, TypeError):
                    skipped += 1
        if skipped:
            meta = dict(meta)
            meta["_skipped_lines"] = skipped
        return meta, results

    def completed_ids(self) -> List[str]:
        _, results = self.load()
        return sorted(results)


def merge_stores(
    paths: Sequence[str], out_path: str, force: bool = False
) -> Dict:
    """Concatenate + dedupe shard JSONL files into one store.

    Multi-host campaigns run ``campaign run --shard i/n`` per host and
    merge the shard outputs here: results are deduplicated by task id
    (later files win, matching the loader's last-record-wins rule), the
    merged meta carries the shards' common ``spec_digest`` and the
    shard file list, and results are written in sorted task-id order so
    the merged file is deterministic regardless of shard completion
    order.  The merge is **crash-safe**: output is written to a temp
    file and renamed into place, so a merge killed mid-write never
    leaves a half-merged (or clobbered) ``out_path`` — in particular a
    pre-existing file at ``out_path`` survives any failure.  Shards
    recorded for *different* grids are refused unless ``force`` is
    given (the CLI spells it ``--allow-mixed``).

    Returns a summary dict: ``results``, ``duplicates``, ``shards``,
    ``spec_digest``, ``skipped_lines``.
    """
    metas: List[Dict] = []
    merged: Dict[str, TaskResult] = {}
    duplicates = 0
    skipped = 0
    for p in paths:
        meta, results = RunStore(p).load()
        if not meta and not results:
            raise ValueError(f"no campaign records in {p!r}")
        metas.append(meta)
        skipped += meta.get("_skipped_lines", 0)
        for tid, r in results.items():
            if tid in merged:
                duplicates += 1
            merged[tid] = r
    digests = {m.get("spec_digest") for m in metas if m.get("spec_digest")}
    if len(digests) > 1 and not force:
        raise ValueError(
            "shards were recorded for different grids (spec digests "
            f"{', '.join(sorted(digests))}): refusing to merge them — "
            "pass force=True/--allow-mixed to override"
        )
    out_meta = {
        "spec_digest": digests.pop() if len(digests) == 1 else None,
        "merged_from": [os.path.basename(p) for p in paths],
        "shards": len(paths),
    }
    # write-temp-then-rename: the whole merged store lands atomically
    RunStore(out_path).compact(
        out_meta, (merged[tid] for tid in sorted(merged))
    )
    return {
        "results": len(merged),
        "duplicates": duplicates,
        "shards": len(paths),
        "spec_digest": out_meta["spec_digest"],
        "skipped_lines": skipped,
    }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def summarize_results(results: Iterable[TaskResult]) -> List[Dict]:
    """Aggregate per (machine, mesh, m, rank_weights) group.

    Each row reports task counts by status, the residual-communication
    totals of the heuristic vs the greedy baseline, the classification
    histogram of the heuristic's residuals, the mean
    baseline/heuristic execution-time ratio (>= 1 means the two-step
    heuristic won) over the tasks where both times are positive, and
    the heuristic/Feautrier-baseline **residual ratio** (<= 1 means the
    heuristic zeroed at least as many residual communications; tracked
    per PR next to the throughput trend so scenario-quality drift is as
    visible as perf drift).
    """
    groups: Dict[Tuple, List[TaskResult]] = {}
    # task_id order, not arrival order: a jobs > 1 run completes tasks
    # in any order, and the float sums below depend on the order
    for r in sorted(results, key=lambda r: r.task_id):
        key = (r.machine, r.mesh, r.m, r.rank_weights)
        groups.setdefault(key, []).append(r)

    rows: List[Dict] = []
    for key in sorted(groups):
        machine, mesh, m, rw = key
        rs = groups[key]
        ok = [r for r in rs if r.status == "ok"]
        ratios = [
            r.baseline_time / r.total_time
            for r in ok
            if r.total_time > 0 and r.baseline_time > 0
        ]
        row = {
            "machine": machine,
            "mesh": format_mesh(mesh),
            "m": m,
            "rank_weights": rw,
            "tasks": len(rs),
            "ok": len(ok),
            "errors": sum(1 for r in rs if r.status == "error"),
            "timeouts": sum(1 for r in rs if r.status == "timeout"),
            "crashed": sum(1 for r in rs if r.status == "crashed"),
            "residuals": sum(r.residuals for r in ok),
            "baseline_residuals": sum(r.baseline_residuals for r in ok),
            # None (JSON null) rather than NaN, which json.dump would
            # emit as a token strict parsers reject
            "mean_time_ratio": (
                sum(ratios) / len(ratios) if ratios else None
            ),
            "seconds": sum(r.seconds for r in rs),
        }
        # Feautrier-baseline residual ratio: heuristic residuals per
        # baseline residual for this group (quality trend line)
        row["residual_ratio"] = (
            row["residuals"] / row["baseline_residuals"]
            if row["baseline_residuals"] > 0
            else None
        )
        # per-machine throughput trend line: cells priced per summed
        # task-second of this (machine, mesh, m, knobs) group
        row["tasks_per_second"] = (
            len(rs) / row["seconds"] if row["seconds"] > 0 else None
        )
        for k in CLASS_KEYS:
            row[k] = sum(r.counts.get(k, 0) for r in ok)
        rows.append(row)
    return rows
