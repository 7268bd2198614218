"""Trace files: streaming JSONL writer, loader and the stage report.

``campaign run --trace out.jsonl`` streams one record per traced task
*alongside* the result store (which stays byte-identical — traces never
touch the checkpoint format):

* ``{"record": "trace_meta", ...}`` — first line: spec digest + run
  configuration echo;
* ``{"record": "task_trace", "task_id": ..., "compile_key": ...,
  "spans": {path: {"count", "seconds"}}, ...}`` — one per completed
  task, appended and flushed the moment the result lands (a killed
  campaign loses at most the in-flight task's trace);
* ``{"record": "campaign_spans", "spans": ...}`` — final line: the
  campaign-level span aggregate (parent-side store/dispatch spans plus
  every worker span tree merged back);
* ``{"record": "metrics", "metrics": ...}`` — final line: the unified
  ``obs.snapshot()`` (cache stats, executor lifecycle counters).

``python -m repro trace report out.jsonl`` renders the per-stage
breakdown **from the file alone**: per compile-key group, how much wall
time went to the compile stage vs. the price stage vs. executor
overhead (dispatch, IPC, retries — anything between task wall time and
traced span time), plus the global span table.  ``campaign summarize
--timings out.jsonl`` appends the same report to the result summary.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from ..report import format_table

#: per-task span paths whose top-level segment is a pipeline stage
STAGES = ("compile", "price")


class TraceWriter:
    """Append-and-flush JSONL writer for one traced campaign run."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "w")

    def _write(self, record: Dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=str))
        self._fh.write("\n")
        self._fh.flush()

    def write_meta(self, meta: Dict) -> None:
        self._write({"record": "trace_meta", **meta})

    def write_task(
        self, result, compile_key: Optional[str] = None
    ) -> None:
        """One ``task_trace`` record from a
        :class:`~repro.campaign.store.TaskResult` (its in-memory
        ``trace`` field holds the worker's span tree)."""
        self._write(
            {
                "record": "task_trace",
                "task_id": result.task_id,
                "workload": result.workload,
                "machine": result.machine,
                "mesh": list(result.mesh),
                "m": result.m,
                "compile_key": compile_key,
                "status": result.status,
                "seconds": result.seconds,
                "attempts": result.attempts,
                "compile_cache_hit": result.compile_cache_hit,
                "baseline_cache_hit": result.baseline_cache_hit,
                "spans": result.trace or {},
            }
        )

    def write_summary(self, spans: Dict, metrics: Dict) -> None:
        self._write({"record": "campaign_spans", "spans": spans})
        self._write({"record": "metrics", "metrics": metrics})

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def load_trace(path: str) -> Dict:
    """Parse a trace JSONL file into ``{"meta", "tasks", "spans",
    "metrics"}``.  Like the result store's loader it tolerates a
    truncated final line (the expected state after a kill)."""
    meta: Dict = {}
    tasks: List[Dict] = []
    spans: Dict = {}
    metrics: Dict = {}
    skipped = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                kind = d.get("record")
                if kind == "trace_meta":
                    meta = d
                elif kind == "task_trace":
                    tasks.append(d)
                elif kind == "campaign_spans":
                    spans = d.get("spans", {})
                elif kind == "metrics":
                    metrics = d.get("metrics", {})
            except ValueError:
                skipped += 1
    if skipped:
        meta = dict(meta)
        meta["_skipped_lines"] = skipped
    return {"meta": meta, "tasks": tasks, "spans": spans, "metrics": metrics}


def _stage_seconds(spans: Dict, stage: str) -> float:
    """Seconds attributed to one top-level stage span of a task tree
    (the stage's own path, not double-counting its children)."""
    entry = spans.get(stage)
    if entry is None:
        return 0.0
    return float(entry.get("seconds", 0.0))


def _price_attr(spans: Dict, name: str) -> int:
    """The summed integer attribute ``name`` of a task tree's ``price``
    span (0 when absent)."""
    return int((spans.get("price") or {}).get(name, 0))


def stage_rows(tasks: Sequence[Dict]) -> List[Dict]:
    """Per compile-key group stage breakdown rows.

    Tasks sharing a compile key are the machine x mesh cells of one
    compiled nest; per group the row reports how much task wall time
    went to the compile stage, the price stage and **executor
    overhead** — the gap between summed task wall time and traced span
    time (dispatch, IPC, retries, uninstrumented glue) — and how many
    baseline cells its pricing priced (``baseline_cells``: the
    baseline-memo misses, priced in the same call as the heuristic
    cells).  One span tree
    covers each group run and rides on its first record, so sums stay
    exact per group.  Crashed tasks have no span tree (the worker died
    before reporting); they count as ``traceless`` so lost work is
    visible.
    """
    groups: Dict[str, List[Dict]] = {}
    for t in tasks:
        key = t.get("compile_key") or t.get("workload") or "?"
        groups.setdefault(key, []).append(t)

    rows: List[Dict] = []
    for key in sorted(groups):
        ts = groups[key]
        seconds = sum(float(t.get("seconds", 0.0)) for t in ts)
        compile_s = sum(_stage_seconds(t.get("spans", {}), "compile") for t in ts)
        price_s = sum(_stage_seconds(t.get("spans", {}), "price") for t in ts)
        # one pricing call prices the heuristic cells and the baseline
        # misses together, so its span counts the cells, not seconds
        # per half
        base_cells = sum(
            _price_attr(t.get("spans", {}), "baseline_cells") for t in ts
        )
        # fused pricing records one exec.segmented span per lane call
        # with count = phases priced, so this stays a *phase* count
        phase_calls = sum(
            int(e.get("count", 0))
            for t in ts
            for path, e in (t.get("spans") or {}).items()
            if path.endswith("exec.segmented")
        )
        rows.append(
            {
                "compile_key": key,
                "workload": ts[0].get("workload", "?"),
                "tasks": len(ts),
                "ok": sum(1 for t in ts if t.get("status") == "ok"),
                "traceless": sum(
                    1 for t in ts if t.get("status") == "crashed"
                ),
                "compile_seconds": compile_s,
                "price_seconds": price_s,
                "baseline_cells": base_cells,
                "phase_calls": phase_calls,
                "overhead_seconds": max(0.0, seconds - compile_s - price_s),
                "seconds": seconds,
            }
        )
    return rows


def stage_totals(tasks: Sequence[Dict]) -> Dict[str, float]:
    """Whole-campaign stage totals (the numbers ``BENCH_trace.json``
    records and the overhead gate checks against wall time)."""
    rows = stage_rows(tasks)
    return {
        "tasks": sum(r["tasks"] for r in rows),
        "compile_seconds": sum(r["compile_seconds"] for r in rows),
        "price_seconds": sum(r["price_seconds"] for r in rows),
        "baseline_cells": sum(r["baseline_cells"] for r in rows),
        "overhead_seconds": sum(r["overhead_seconds"] for r in rows),
        "task_seconds": sum(r["seconds"] for r in rows),
        "phase_calls": sum(r["phase_calls"] for r in rows),
    }


def format_stage_breakdown(tasks: Sequence[Dict]) -> str:
    """The per-compile-key-group stage table."""
    rows = stage_rows(tasks)
    if not rows:
        return "trace: no task records"
    totals = stage_totals(tasks)
    table = [
        [
            r["workload"],
            r["compile_key"][:12],
            r["tasks"],
            r["ok"],
            r["compile_seconds"],
            r["price_seconds"],
            r["baseline_cells"],
            r["phase_calls"],
            r["overhead_seconds"],
            r["seconds"],
        ]
        for r in sorted(rows, key=lambda r: -r["seconds"])
    ]
    table.append(
        [
            "TOTAL",
            "",
            totals["tasks"],
            sum(r["ok"] for r in rows),
            totals["compile_seconds"],
            totals["price_seconds"],
            totals["baseline_cells"],
            totals["phase_calls"],
            totals["overhead_seconds"],
            totals["task_seconds"],
        ]
    )
    return format_table(
        [
            "workload", "compile_key", "tasks", "ok", "compile_s",
            "price_s", "base_cells", "phases", "overhead_s",
            "total_s",
        ],
        table,
        title="per-stage time by compile-key group",
    )


def format_span_table(spans: Dict, limit: int = 40) -> str:
    """The campaign-level span aggregate, heaviest paths first."""
    if not spans:
        return "trace: no campaign spans"
    items = sorted(
        spans.items(), key=lambda kv: -float(kv[1].get("seconds", 0.0))
    )[:limit]
    return format_table(
        ["span path", "count", "seconds"],
        [
            [path, int(e.get("count", 0)), float(e.get("seconds", 0.0))]
            for path, e in items
        ],
        title=f"span aggregate (top {min(limit, len(spans))} of {len(spans)})",
    )


def format_trace_report(trace: Dict) -> str:
    """The full ``repro trace report`` rendering of a loaded trace."""
    parts: List[str] = []
    meta = trace.get("meta", {})
    if meta:
        bits = []
        if meta.get("spec_digest"):
            bits.append(f"grid {meta['spec_digest']}")
        if meta.get("executor"):
            bits.append(f"executor {meta['executor']}")
        if meta.get("jobs"):
            bits.append(f"jobs {meta['jobs']}")
        if meta.get("_skipped_lines"):
            bits.append(f"{meta['_skipped_lines']} undecodable line(s) skipped")
        if bits:
            parts.append("trace: " + ", ".join(bits))
    parts.append(format_stage_breakdown(trace.get("tasks", [])))
    parts.append(format_span_table(trace.get("spans", {})))
    metrics = trace.get("metrics", {})
    if metrics:
        flat = [
            [k, v] for k, v in sorted(metrics.items())
            if not isinstance(v, dict)
        ]
        if flat:
            parts.append(format_table(["metric", "value"], flat, title="metrics"))
    return "\n\n".join(parts)
