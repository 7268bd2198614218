"""Communication extraction, vectorization and costing.

Turns the element-level communications of a mapped program into
per-time-step message sets, applies message vectorization (Section 4.5)
where the mapping allows it, recognizes macro-communications (costed
with the machine's collective support when available) and prices
everything on a machine model.

The report distinguishes, per access:

* ``local`` — sender == receiver on the *virtual* grid (the zeroed-out
  communications of step 1; they cost nothing);
* ``translation`` / ``macro`` / ``decomposed`` / ``general`` — as
  classified by step 2 of the heuristic.

:func:`execute` and :func:`execute_group` share one **vectorized**
path: they consume the dense per-access arrays of
:meth:`~repro.runtime.mapping.MappedProgram.comm_batches` (one row per
element communication; polyhedral domains arrive already masked down
to their in-domain rows, so the executor never re-enumerates an
iteration set) and replace the per-event Python bucketing with array
reductions — virtual/physical locality masks are whole-column
comparisons, the per-time-step phase split and the ``(sender,
receiver)`` pair coalescing are ``unique_rows`` group-bys — then price
every phase of the call in one fused kernel launch per machine model.
Every label names exactly one access (``LoopNest.validate`` rejects a
repeated label), so each label prices from one batch per folding, with
one schedule width and one residual.  The per-event implementation
:func:`execute_python` is the test oracle — no production path calls
it; the two are bit-identical (asserted on randomized generated
workloads and the paper's seed scenarios in
``tests/runtime/test_runtime_vectorized.py`` and measured against each
other in ``benchmarks/bench_runtime_exec.py`` — the same old-vs-new
pattern as the machine layer's oracles in ``tests/oracles/machine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..machine import CM5Model, MachineModel, Message
from ..machine.backend import unique_rows
from ..obs import metrics as obs_metrics
from ..obs import span
from .mapping import (
    CommBatch,
    CommEvent,
    MappedProgram,
    PhaseSegments,
    segments_from_sorted_unique,
)

#: pricing-lane calls (fused point-to-point kernel launches plus
#: vectorized collectives calls) and the phases they priced
_launches = obs_metrics.counter("runtime.price.launches")
_phases = obs_metrics.counter("runtime.price.phases")


@dataclass
class AccessCommStats:
    """Per-access communication statistics for one execution."""

    label: str
    classification: str
    events: int = 0
    virtual_local: int = 0
    phys_local: int = 0
    messages_before_vectorization: int = 0
    messages_after_vectorization: int = 0
    volume: int = 0
    macro_ops: int = 0  # number of collective operations issued
    time: float = 0.0


@dataclass
class CommReport:
    """Execution-wide communication report."""

    per_access: Dict[str, AccessCommStats]
    total_time: float
    total_messages: int
    total_volume: int

    def stats(self, label: str) -> AccessCommStats:
        return self.per_access[label]

    def describe(self) -> str:
        lines = [
            f"total: time={self.total_time:.1f} msgs={self.total_messages} "
            f"volume={self.total_volume}"
        ]
        for label in sorted(self.per_access):
            s = self.per_access[label]
            lines.append(
                f"  {label:6s} [{s.classification:11s}] events={s.events} "
                f"virt-local={s.virtual_local} msgs={s.messages_after_vectorization} "
                f"macro_ops={s.macro_ops} time={s.time:.1f}"
            )
        return "\n".join(lines)


def _classification_of(program: MappedProgram, label: str) -> str:
    al = program.mapping.alignment
    if label in al.local_labels:
        return "local"
    try:
        return program.mapping.residual_by_label(label).classification
    except KeyError:
        return "general"


def _vectorizable(program: MappedProgram, label: str) -> bool:
    try:
        return program.mapping.residual_by_label(label).vectorizable
    except KeyError:
        return False


@dataclass
class _Job:
    """The phases of one (cell, label) pair, waiting to be priced."""

    cell: int
    st: AccessCommStats
    seg: PhaseSegments
    #: collective kind for jobs on the collectives lane, else ``None``
    kind: Optional[str]


def _label_segments(
    per_source: List[Optional[CommBatch]], vec: bool
) -> List[Tuple[int, PhaseSegments]]:
    """``(source, phases)`` of one label for every distinct folding
    whose batch (``per_source[source]``, ``None`` without surviving
    events) sends, in source order.  Phases come in ascending time
    order, each with lex-sorted unique pairs — the per-phase
    ``np.unique`` outputs, concatenated."""
    if len(per_source) == 1:
        # a one-folding call (the common case): the batch's memoized
        # phase partition
        return [(0, per_source[0].phase_partition(vec))]
    # stack all sources' rows as [source | (time) | sender | receiver]
    # and group them once; one label is one access, so every source's
    # time rows have the same width
    tw = 0
    blocks: List[np.ndarray] = []
    for k, b in enumerate(per_source):
        if b is None:
            continue
        pairs = b.send_pairs()
        cols = [np.full((pairs.shape[0], 1), k, dtype=np.int64)]
        if not vec:
            tw = b.times.shape[1]
            cols.append(b.times[b.locality_masks()[2]])
        cols.append(pairs)
        blocks.append(np.concatenate(cols, axis=1))
    uniq, counts = unique_rows(np.concatenate(blocks, axis=0))
    # source blocks are contiguous (the source id is the sort-major
    # column); within a block the rows are ``[time | pair]``-sorted
    source_col = uniq[:, 0]
    change = np.nonzero(source_col[1:] != source_col[:-1])[0] + 1
    bounds = [0] + change.tolist() + [uniq.shape[0]]
    return [
        (
            int(source_col[cs]),
            segments_from_sorted_unique(
                uniq[cs:ce, 1 + tw:], counts[cs:ce], uniq[cs:ce, 1: 1 + tw]
            ),
        )
        for cs, ce in zip(bounds[:-1], bounds[1:])
    ]


def _model_key(machine: MachineModel) -> Tuple:
    """Machines agreeing on type, mesh and cost parameters price any
    phase identically (cm5 and paragon cells on one mesh do), so they
    share one kernel launch."""
    return (type(machine), machine.mesh, machine.params)


def _lane_times(model, kind: Optional[str], segs, payload: int) -> List[float]:
    """Per-phase times of all ``segs`` (in order) from one lane call:
    the fused point-to-point kernel of ``model`` when ``kind`` is
    ``None``, else one vectorized ``kind`` collective per phase."""
    if len(segs) == 1:
        pairs, counts, starts = segs[0].pairs, segs[0].counts, segs[0].starts
    else:
        pairs = np.concatenate([s.pairs for s in segs], axis=0)
        counts = np.concatenate([s.counts for s in segs])
        lens = np.concatenate([np.diff(s.starts) for s in segs])
        starts = np.concatenate(([0], np.cumsum(lens)))
    n_phases = starts.shape[0] - 1
    sizes = counts * payload
    _launches.inc()
    _phases.inc(n_phases)
    with span("exec.segmented", count=n_phases):
        if kind is not None:
            seg_sizes = np.maximum.reduceat(sizes, starts[:-1])
            return model.macro_times_segmented(kind, seg_sizes).tolist()
        rank = pairs.shape[1] // 2
        phase_ids = np.repeat(
            np.arange(n_phases, dtype=np.int64), np.diff(starts)
        )
        return model.time_phases_segmented(
            pairs[:, :rank], pairs[:, rank:], sizes, phase_ids, n_phases
        ).times.tolist()


def _price_jobs(cells, jobs: List[_Job], payload: int) -> List[List[float]]:
    """Each job's per-phase times, in phase order, from one call per
    pricing lane: one fused kernel launch per distinct point-to-point
    model (:func:`_model_key`), one vectorized call per (collectives
    model, kind).  Jobs of one lane that share a :class:`PhaseSegments`
    object (twin cells, see :func:`_execute_cells`) price it once.
    Every phase prices independently of its lane neighbours, so the
    times equal per-phase pricing bit for bit."""
    p2p: Dict[Tuple, Tuple[MachineModel, List[int]]] = {}
    # collectives models are unhashable dataclasses: lanes match by
    # equality
    macro: List[Tuple[CM5Model, str, List[int]]] = []
    for i, job in enumerate(jobs):
        _, machine, coll = cells[job.cell]
        if job.kind is None:
            p2p.setdefault(_model_key(machine), (machine, []))[1].append(i)
            continue
        for lane_coll, lane_kind, idx in macro:
            if lane_kind == job.kind and lane_coll == coll:
                idx.append(i)
                break
        else:
            macro.append((coll, job.kind, [i]))
    lanes = [(m, None, idx) for m, idx in p2p.values()] + macro
    out: List[List[float]] = [[] for _ in jobs]
    for model, kind, idx in lanes:
        # id(seg) -> offset of its first phase in the lane's times; the
        # jobs hold their segments, so the ids stay valid for the loop
        at: Dict[int, int] = {}
        segs: List[PhaseSegments] = []
        n = 0
        for i in idx:
            seg = jobs[i].seg
            if id(seg) not in at:
                at[id(seg)] = n
                segs.append(seg)
                n += seg.n_phases
        times = _lane_times(model, kind, segs, payload)
        for i in idx:
            seg = jobs[i].seg
            start = at[id(seg)]
            out[i] = times[start: start + seg.n_phases]
    return out


def _fold_sources(
    programs: Sequence[MappedProgram],
) -> Tuple[List[MappedProgram], List[int]]:
    """``(sources, source_of)``: the programs with distinct foldings, in
    first-seen order, and each program's index into ``sources``.

    Programs of one mapping and size bindings whose
    :class:`~repro.runtime.mapping.Folding` compares equal (same mesh,
    extent and schemes) are *twins* — the paragon and cm5 cells of one
    mesh — with the same communication rows."""
    sources: List[MappedProgram] = []
    source_of: List[int] = []
    for p in programs:
        d = next(
            (j for j, q in enumerate(sources) if q.folding == p.folding),
            len(sources),
        )
        if d == len(sources):
            sources.append(p)
        source_of.append(d)
    return sources, source_of


def _execute_cells(
    cells: Sequence[Tuple[MappedProgram, MachineModel, Optional[CM5Model]]],
    payload: int,
) -> List[CommReport]:
    """The one pricing path behind :func:`execute` and
    :func:`execute_group`.

    **Twins**: cells whose programs fold identically
    (:func:`_fold_sources`) share one ``comm_batches()`` extraction and
    one phase grouping per label; a one-cell call has no twins.
    **Collect**: per label (sorted), per distinct folding, the surviving
    ``(sender, receiver)`` rows are grouped into phases — one
    ``unique_rows`` over all foldings' rows stacked with a leading
    source-id column, so each folding's block comes out in its own phase
    order — and every cell gets its own :class:`AccessCommStats` and
    jobs over its folding's shared :class:`PhaseSegments`.
    **Price**: :func:`_price_jobs` prices every distinct phase of the
    call at once.  **Fold**: the per-phase times are added in collect
    order (labels sorted, then cells, then phases) — the float
    accumulation sequence of per-phase pricing, so every total is
    bit-identical.
    """
    K = len(cells)
    base = cells[0][0]
    sources, source_of = _fold_sources([c[0] for c in cells])
    with span("exec.extract"):
        batch_lists = [p.comm_batches() for p in sources]

    per_access: List[Dict[str, AccessCommStats]] = [{} for _ in range(K)]
    # label -> per-source batch with surviving events (``None`` where
    # the source has none); labels are unique (``LoopNest.validate``)
    remaining: Dict[str, List[Optional[CommBatch]]] = {}
    classifications: Dict[str, str] = {}
    for bi, b0 in enumerate(batch_lists[0]):
        if b0.n == 0:
            # no events -> no stats entry, exactly like the per-event
            # path (which only creates entries while iterating events)
            continue
        label = b0.access_label
        classifications[label] = _classification_of(base, label)
        # the virtual arrays are shared objects across foldings, so the
        # virtual-locality mask is computed once and seeded into every
        # source's batch before its (per-folding) physical masks
        virt_local = b0.virtual_local_mask()
        n_virt_local = int(virt_local.sum())
        phys_local_of: List[int] = []
        for d, blist in enumerate(batch_lists):
            b = blist[bi]
            b.__dict__.setdefault("_virt_local", virt_local)
            _, phys_local, send = b.locality_masks()
            phys_local_of.append(int(phys_local.sum()))
            if send.any():
                remaining.setdefault(label, [None] * len(sources))[d] = b
        for k in range(K):
            per_access[k][label] = AccessCommStats(
                label=label,
                classification=classifications[label],
                events=b0.n,
                virtual_local=n_virt_local,
                phys_local=phys_local_of[source_of[k]],
            )

    jobs: List[_Job] = []
    for label in sorted(remaining):
        kind = None
        if classifications[label] == "macro":
            opt = base.mapping.residual_by_label(label)
            kind = opt.macro.kind.value if opt.macro else "broadcast"
        segs = dict(
            _label_segments(remaining[label], _vectorizable(base, label))
        )
        for k in range(K):
            seg = segs.get(source_of[k])
            if seg is None:
                continue
            st = per_access[k][label]
            st.messages_before_vectorization += int(seg.n_events.sum())
            st.messages_after_vectorization += seg.pairs.shape[0]
            st.volume += int((seg.counts * payload).sum())
            job_kind = kind if cells[k][2] is not None else None
            if job_kind is not None:
                st.macro_ops += seg.n_phases
            jobs.append(_Job(k, st, seg, job_kind))

    totals = [0.0] * K
    for job, times in zip(jobs, _price_jobs(cells, jobs, payload)):
        st = job.st
        for t in times:
            st.time += t
            totals[job.cell] += t

    reports: List[CommReport] = []
    for k in range(K):
        pa = per_access[k]
        reports.append(
            CommReport(
                per_access=pa,
                total_time=totals[k],
                total_messages=sum(
                    s.messages_after_vectorization for s in pa.values()
                ),
                total_volume=sum(s.volume for s in pa.values()),
            )
        )
    return reports


def execute(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model] = None,
    payload: int = 1,
) -> CommReport:
    """Execute the mapped program's communications on a machine model.

    ``machine`` is any registered :class:`~repro.machine.MachineModel`
    (the 2-D Paragon or 3-D T3D :class:`~repro.machine.MeshModel`, …)
    and prices point-to-point phases (per time step, one phase per
    access) — the program's folded coordinates are tuples of the
    machine's mesh rank; ``collectives`` — when given — prices the
    accesses the heuristic classified as macro-communications with
    hardware collective costs instead (the CM-5 situation of Table 1).

    Vectorized over the program's :class:`CommBatch` arrays, through
    the same one-cell path as :func:`execute_group`; the per-event
    test oracle is :func:`execute_python` (bit-identical).
    """
    return _execute_cells([(program, machine, collectives)], payload)[0]


def execute_group(
    cells: Sequence[Tuple[MappedProgram, MachineModel, Optional[CM5Model]]],
    payload: int = 1,
) -> List[CommReport]:
    """Price all K machine x mesh cells of one compiled nest in one
    batched pass — bit-identical to ``[execute(p, m, collectives=c)
    for p, m, c in cells]`` (property-tested in
    ``tests/runtime/test_group_pricing.py`` and against the per-phase
    oracle in ``tests/runtime/test_pricing_differential.py``).

    Every cell must fold the **same mapping** with the **same size
    bindings** (the campaign's compile-key group invariant: domains,
    schedule times and virtual coordinates are shared arrays; only the
    folded physical coordinates differ per cell).  Twin cells — equal
    foldings, like the paragon and cm5 cells of one mesh — share one
    ``comm_batches()`` extraction and one phase grouping, and each
    distinct phase prices once per lane.  Each label's rows are grouped
    once for all distinct foldings, and every phase of the call — all
    labels, all cells — prices in one fused kernel launch per distinct
    point-to-point model plus one collectives call per (collectives
    model, kind).
    """
    if not cells:
        return []
    base = cells[0][0]
    for p, _, _ in cells[1:]:
        if p.mapping is not base.mapping:
            raise ValueError(
                "execute_group needs the cells of one compiled nest: "
                "all programs must share one mapping object"
            )
        if p.params != base.params:
            raise ValueError(
                "execute_group needs identical size bindings across "
                f"cells (got {base.params!r} vs {p.params!r})"
            )
    return _execute_cells(cells, payload)


def execute_python(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model] = None,
    payload: int = 1,
) -> CommReport:
    """Pure-Python reference implementation of :func:`execute`.

    Builds one :class:`CommEvent` per access per domain point and
    re-buckets them with Python dicts — the pre-vectorization behaviour,
    kept as the test oracle and measured baseline; no production path
    calls it.
    """
    events = program.comm_events_python()
    per_access: Dict[str, AccessCommStats] = {}
    # bucket: (label, time) -> events
    buckets: Dict[Tuple[str, Tuple[int, ...]], List[CommEvent]] = {}
    for ev in events:
        label = ev.access_label
        st = per_access.get(label)
        if st is None:
            st = AccessCommStats(
                label=label,
                classification=_classification_of(program, label),
            )
            per_access[label] = st
        st.events += 1
        if ev.sender_virtual == ev.receiver_virtual:
            st.virtual_local += 1
            continue
        if ev.is_local_phys:
            st.phys_local += 1
            continue
        buckets.setdefault((label, ev.time), []).append(ev)

    total_time = 0.0
    # vectorization merges the buckets of all time steps of one access
    merged: Dict[str, List[List[CommEvent]]] = {}
    for (label, _time), evs in sorted(buckets.items()):
        if _vectorizable(program, label):
            merged.setdefault(label, [[]])[0].extend(evs)
        else:
            merged.setdefault(label, []).append(evs)

    for label, phases in merged.items():
        st = per_access[label]
        for evs in phases:
            if not evs:
                continue
            # coalesce per (sender, receiver) pair into one message
            pair_sizes: Dict[Tuple, int] = {}
            for ev in evs:
                key = (ev.sender, ev.receiver)
                pair_sizes[key] = pair_sizes.get(key, 0) + payload
            msgs = [
                Message(src=s, dst=d, size=sz)
                for (s, d), sz in pair_sizes.items()
            ]
            st.messages_before_vectorization += len(evs)
            st.messages_after_vectorization += len(msgs)
            st.volume += sum(m.size for m in msgs)
            if collectives is not None and st.classification == "macro":
                opt = program.mapping.residual_by_label(label)
                kind = opt.macro.kind.value if opt.macro else "broadcast"
                size = max(pair_sizes.values())
                if kind == "reduction":
                    t = collectives.reduction_time(size)
                else:
                    t = collectives.broadcast_time(size)
                st.macro_ops += 1
                st.time += t
                total_time += t
            else:
                rep = machine.time_phase(msgs)
                st.time += rep.time
                total_time += rep.time

    total_messages = sum(
        s.messages_after_vectorization for s in per_access.values()
    )
    total_volume = sum(s.volume for s in per_access.values())
    return CommReport(
        per_access=per_access,
        total_time=total_time,
        total_messages=total_messages,
        total_volume=total_volume,
    )


def count_nonlocal_virtual(program: MappedProgram) -> Dict[str, int]:
    """Per-access count of element communications that are non-local on
    the *virtual* grid (mapping quality independent of folding).

    Vectorized over the program's (memoized) batches, so calling this
    next to :func:`execute` costs no extra domain enumeration.
    """
    out: Dict[str, int] = {}
    for b in program.comm_batches():
        if b.n == 0:
            continue
        moved = int(
            np.any(b.sender_virtual != b.receiver_virtual, axis=1).sum()
        )
        if moved:
            out[b.access_label] = out.get(b.access_label, 0) + moved
    return out
