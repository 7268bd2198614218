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
path over the stacked arrays of
:meth:`~repro.runtime.mapping.MappedProgram.comm_batches` (one row per
element communication; polyhedral domains arrive already masked down
to their in-domain rows, so the executor never re-enumerates an
iteration set).  One call prices the cells of one compiled nest under
any of its mappings — the campaign stacks the heuristic's cells and
the Feautrier baseline's into one call — and every mapping reads one
shared domain stage (domain points, schedule times, subscripts).  A
*source* is a distinct ``(mapping, folding)`` pair.  Per mapping, the
virtual-locality mask, the classifications, the macro kinds and the
vectorizable rows are tables built once and cached with the mapping's
virtual stage; per pricing call, physical locality is one mask per
source; the per-time-step phase split and the ``(sender, receiver)``
pair coalescing of every label and every source are **one**
``unique_rows`` group-by; every point-to-point phase of the call then
prices in **one** fused kernel launch, whatever meshes its cells fold
onto (each phase carries its own mesh sides), and each machine's cost
parameters turn the launch's contention statistics into its times.
Every label names exactly one access (``LoopNest.validate`` rejects a
repeated label), so each label prices from one row block per source,
with one schedule width and, per mapping, one residual.  The per-event
implementation :func:`execute_python` is the test oracle — no
production path calls it; the two are bit-identical
(asserted on randomized generated workloads and the paper's seed
scenarios in ``tests/runtime/test_runtime_vectorized.py`` and
``tests/runtime/test_pricing_differential.py``, and measured against
each other in ``benchmarks/bench_runtime_exec.py`` — the same
old-vs-new pattern as the machine layer's oracles in
``tests/oracles/machine.py``).
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
    CommEvent,
    MappedProgram,
    PhaseSegments,
    VirtualStage,
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


@dataclass(eq=False)
class _Tables:
    """Per-access pricing tables of one mapping's
    :class:`~repro.runtime.mapping.VirtualStage`."""

    #: (n,) rows local on the virtual grid
    virt_local: np.ndarray
    #: per access, its virtually local rows
    n_virt_local: List[int]
    #: per access, its step-2 classification (``"local"``, ...)
    classification: Tuple[str, ...]
    #: per access, the collective kind of a ``"macro"`` access, else None
    kind: Tuple[Optional[str], ...]
    #: (n,) rows of vectorizable accesses, whose time steps merge into
    #: one phase; ``None`` when no access is vectorizable
    vec_rows: Optional[np.ndarray]


def _tables(stage: VirtualStage, mapping) -> _Tables:
    """The :class:`_Tables` of ``mapping``'s ``stage``, built once and
    kept on the stage (so on the mapping's stage cache: a rotation,
    which makes a new stage, makes new tables)."""
    if stage.tables is not None:
        return stage.tables
    n = stage.n
    virt_local = np.all(stage.virtual[:n] == stage.virtual[n:], axis=1)
    residuals: Dict[str, object] = {}
    for opt in mapping.optimized:
        residuals.setdefault(opt.label, opt)
    local = mapping.alignment.local_labels
    classification, kind, vec = [], [], []
    for label in stage.labels:
        opt = residuals.get(label)
        if label in local:
            cls = "local"
        else:
            cls = opt.classification if opt is not None else "general"
        classification.append(cls)
        kind.append(
            (opt.macro.kind.value if opt.macro else "broadcast")
            if cls == "macro" else None
        )
        vec.append(opt is not None and opt.vectorizable)
    vec_rows = None
    if any(vec):
        vec_rows = np.repeat(np.array(vec), np.diff(stage.offsets))
    stage.tables = _Tables(
        virt_local=virt_local,
        n_virt_local=_count_by_access(virt_local, stage.offsets),
        classification=tuple(classification),
        kind=tuple(kind),
        vec_rows=vec_rows,
    )
    return stage.tables


@dataclass
class _Job:
    """The phases of one (cell, label) pair, waiting to be priced."""

    cell: int
    st: AccessCommStats
    #: the call's ``(label, source)`` phase block the job prices
    block: int
    #: collective kind for jobs on the collectives lane, else ``None``
    kind: Optional[str]


def _kernel_times(
    cells, jobs: List[_Job], idx: List[int], blocks: List[int],
    block_phases, pairs, sizes, lens,
) -> Dict[int, List[float]]:
    """Per-phase times, by cell, of the point-to-point jobs ``idx``
    (``blocks`` in order, ``lens`` rows per phase) from **one** fused
    kernel launch, made through the first job's machine.  When the
    blocks lie on several meshes every phase carries its own mesh sides;
    each distinct :class:`~repro.machine.CostParams` then turns the
    launch's contention statistics into times."""
    dims_of = {jobs[i].block: cells[jobs[i].cell][1].mesh.dims for i in idx}
    phase_dims = None
    if len(set(dims_of.values())) > 1:
        phase_dims = np.repeat(
            np.array([dims_of[b] for b in blocks], dtype=np.int64),
            block_phases[blocks], axis=0,
        )
    n_phases = lens.shape[0]
    rank = pairs.shape[1] // 2
    launcher = cells[jobs[idx[0]].cell][1]
    rep = launcher.time_phases_segmented(
        pairs[:, :rank], pairs[:, rank:], sizes,
        np.repeat(np.arange(n_phases, dtype=np.int64), lens), n_phases,
        phase_dims=phase_dims,
    )
    priced = [(launcher.params, rep.times.tolist())]
    times: Dict[int, List[float]] = {}
    for k in {jobs[i].cell for i in idx}:
        params = cells[k][1].params
        for seen, t in priced:
            if seen == params:
                break
        else:
            t = params.phase_times(
                rep.max_msgs_per_sender, rep.max_link_load, rep.max_hops
            ).tolist()
            priced.append((params, t))
        times[k] = t
    return times


def _price_jobs(
    cells, jobs: List[_Job], seg: PhaseSegments, bounds: List[int],
    payload: int,
) -> List[List[float]]:
    """Each job's per-phase times, in phase order, from one call per
    pricing lane: **one** fused kernel launch for every point-to-point
    job of the call, whatever mesh its cell folds onto
    (:func:`_kernel_times`), and one vectorized call per (collectives
    model, kind).  Block ``b`` owns phases ``bounds[b]:bounds[b+1]`` of
    ``seg``; jobs of one lane that share a block (twin cells, see
    :func:`_execute_cells`) price it once.  Every phase prices
    independently of its lane neighbours, so the times equal per-phase
    pricing bit for bit."""
    p2p: List[int] = []
    # collectives models are unhashable dataclasses: lanes match by
    # equality
    macro: List[Tuple[CM5Model, str, List[int]]] = []
    for i, job in enumerate(jobs):
        if job.kind is None:
            p2p.append(i)
            continue
        coll = cells[job.cell][2]
        for lane_coll, lane_kind, idx in macro:
            if lane_kind == job.kind and lane_coll == coll:
                idx.append(i)
                break
        else:
            macro.append((coll, job.kind, [i]))
    lanes = ([(None, None, p2p)] if p2p else []) + macro
    out: List[List[float]] = [[] for _ in jobs]
    n_blocks = len(bounds) - 1
    lens, block_phases = np.diff(seg.starts), np.diff(bounds)
    for coll, kind, idx in lanes:
        blocks = sorted({jobs[i].block for i in idx})
        pairs, counts, lane_lens = seg.pairs, seg.counts, lens
        if len(blocks) < n_blocks:
            in_lane = np.zeros(n_blocks, dtype=bool)
            in_lane[blocks] = True
            sel = np.repeat(in_lane, block_phases)
            rows = np.repeat(sel, lens)
            pairs, counts, lane_lens = pairs[rows], counts[rows], lens[sel]
        sizes = counts * payload
        n_phases = lane_lens.shape[0]
        _launches.inc()
        _phases.inc(n_phases)
        with span("exec.segmented", count=n_phases):
            if kind is None:
                times = _kernel_times(
                    cells, jobs, idx, blocks, block_phases, pairs, sizes,
                    lane_lens,
                )
            else:
                seg_sizes = np.maximum.reduceat(
                    sizes, np.cumsum(lane_lens) - lane_lens
                )
                lane_times = coll.macro_times_segmented(kind, seg_sizes)
                times = dict.fromkeys(
                    (jobs[i].cell for i in idx), lane_times.tolist()
                )
        # block -> offset of its first phase in the lane's times
        at: Dict[int, int] = {}
        n = 0
        for b in blocks:
            at[b] = n
            n += bounds[b + 1] - bounds[b]
        for i in idx:
            b = jobs[i].block
            cell_times = times[jobs[i].cell]
            out[i] = cell_times[at[b]: at[b] + bounds[b + 1] - bounds[b]]
    return out


def _sources(
    programs: Sequence[MappedProgram],
) -> Tuple[List[MappedProgram], List[int]]:
    """``(sources, source_of)``: the programs with distinct ``(mapping,
    folding)`` pairs, in first-seen order, and each program's index into
    ``sources``.

    Programs of one mapping object whose
    :class:`~repro.runtime.mapping.Folding` compares equal (same mesh,
    extent and schemes) are *twins* — the paragon and cm5 cells of one
    mesh — with the same communication rows.  The heuristic and the
    baseline program of one cell fold identically but map differently,
    so they are two sources."""
    sources: List[MappedProgram] = []
    source_of: List[int] = []
    for p in programs:
        d = next(
            (
                j for j, q in enumerate(sources)
                if q.mapping is p.mapping and q.folding == p.folding
            ),
            len(sources),
        )
        if d == len(sources):
            sources.append(p)
        source_of.append(d)
    return sources, source_of


def _count_by_access(mask: np.ndarray, offsets: np.ndarray) -> List:
    """Set entries of ``mask`` (``(..., n)`` bool) per access, from
    cumulative-sum differences at the access ``offsets``."""
    c = np.zeros(mask.shape[:-1] + (mask.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(mask, axis=-1, out=c[..., 1:])
    return (c[..., offsets[1:]] - c[..., offsets[:-1]]).tolist()


def _execute_cells(
    cells: Sequence[Tuple[MappedProgram, MachineModel, Optional[CM5Model]]],
    payload: int,
) -> List[CommReport]:
    """The one pricing path behind :func:`execute` and
    :func:`execute_group`.

    **Sources**: the cells' distinct ``(mapping, folding)`` pairs
    (:func:`_sources`); twin cells share one ``comm_batches()``
    extraction, and every source shares one domain stage (offsets,
    labels, schedule times).  **Tables**: each mapping's
    virtual-locality mask, classifications, macro kinds and
    vectorizable rows (:func:`_tables`, built once per mapping).
    **Locality**: one physical-locality mask over each source's
    stacked rows; the per-access counts are cumulative-sum differences
    at the access offsets.  **Group**: the surviving rows of every
    access and every source are stacked as ``[label rank | source |
    time | sender | receiver]`` — time columns zero-padded to the
    nest's widest schedule, and all zero for the rows of a label its
    mapping vectorizes, so their time steps merge into one phase — and
    grouped by **one** ``unique_rows`` call; the sorted result splits
    into phases and into contiguous ``(label, source)`` blocks, each
    source's phases of one label in ascending time order.  Every cell
    gets its own :class:`AccessCommStats` and one job per label over
    its source's block.  **Price**: :func:`_price_jobs` prices every
    distinct phase of the call at once.  **Fold**: the per-phase times
    are added in collect order (labels sorted, then cells, then phases)
    — the float accumulation sequence of per-phase pricing, so every
    total is bit-identical.
    """
    K = len(cells)
    sources, source_of = _sources([c[0] for c in cells])
    with span("exec.extract"):
        extractions = [p.comm_batches() for p in sources]
    # per source, its mapping's tables; sources of one mapping share them
    tables = [_tables(e.stage, p.mapping) for e, p in zip(extractions, sources)]
    per_mapping = list({id(t): t for t in tables}.values())
    stage = extractions[0].stage
    n, offsets = stage.n, stage.offsets
    virt_local = (
        per_mapping[0].virt_local if len(per_mapping) == 1
        else np.stack([t.virt_local for t in tables])
    )
    phys = np.stack([e.phys for e in extractions])  # (sources, 2n, rank)
    phys_local = ~virt_local & np.all(phys[:, :n] == phys[:, n:], axis=2)
    send = ~virt_local & ~phys_local
    lengths = np.diff(offsets)
    events = lengths.tolist()
    n_phys_local = _count_by_access(phys_local, offsets)

    per_access: List[Dict[str, AccessCommStats]] = [{} for _ in range(K)]
    # accesses with events; no events -> no stats entry, exactly like
    # the per-event path (which only creates entries while iterating
    # events)
    active = [a for a in range(len(stage.labels)) if events[a]]
    for k in range(K):
        tab = tables[source_of[k]]
        for a in active:
            label = stage.labels[a]
            per_access[k][label] = AccessCommStats(
                label=label,
                classification=tab.classification[a],
                events=events[a],
                virtual_local=tab.n_virt_local[a],
                phys_local=n_phys_local[source_of[k]][a],
            )

    source_idx, rows = np.nonzero(send)
    if not rows.size:
        return _reports(per_access, [0.0] * K)
    # label ranks follow the sorted label order; labels are unique
    # (``LoopNest.validate``)
    by_name = sorted(active, key=stage.labels.__getitem__)
    rank = np.zeros(len(stage.labels), dtype=np.int64)
    rank[by_name] = np.arange(len(by_name))
    times = stage.times[rows]
    if any(t.vec_rows is not None for t in per_mapping):
        if len(per_mapping) == 1:
            zero = per_mapping[0].vec_rows[rows]
        else:
            zero = np.stack([
                t.vec_rows if t.vec_rows is not None else np.zeros(n, bool)
                for t in tables
            ])[source_idx, rows]
        times[zero] = 0
    tw = times.shape[1]
    uniq, counts = unique_rows(
        np.concatenate(
            (
                np.repeat(rank, lengths)[rows, None],
                source_idx[:, None],
                times,
                phys[source_idx, rows],
                phys[source_idx, rows + n],
            ),
            axis=1,
        )
    )
    seg = segments_from_sorted_unique(uniq[:, 2 + tw:], counts, uniq[:, : 2 + tw])
    # (label rank, source) of every phase; blocks are their runs
    heads = uniq[seg.starts[:-1], :2]
    change = np.nonzero(np.any(heads[1:] != heads[:-1], axis=1))[0] + 1
    bounds = np.concatenate(([0], change, [heads.shape[0]]))
    block_rows = np.diff(seg.starts[bounds]).tolist()
    block_events = np.add.reduceat(seg.n_events, bounds[:-1]).tolist()
    bounds = bounds.tolist()
    # label rank -> source -> block, ranks ascending
    blocks: Dict[int, Dict[int, int]] = {}
    for b, (r, d) in enumerate(heads[bounds[:-1]].tolist()):
        blocks.setdefault(r, {})[d] = b

    jobs: List[_Job] = []
    for r, block_of in blocks.items():
        a = by_name[r]
        label = stage.labels[a]
        for k in range(K):
            d = source_of[k]
            b = block_of.get(d)
            if b is None:
                continue
            st = per_access[k][label]
            st.messages_before_vectorization += block_events[b]
            st.messages_after_vectorization += block_rows[b]
            st.volume += block_events[b] * payload
            job_kind = tables[d].kind[a] if cells[k][2] is not None else None
            if job_kind is not None:
                st.macro_ops += bounds[b + 1] - bounds[b]
            jobs.append(_Job(k, st, b, job_kind))

    totals = [0.0] * K
    priced = _price_jobs(cells, jobs, seg, bounds, payload)
    for job, phase_times in zip(jobs, priced):
        st = job.st
        for t in phase_times:
            st.time += t
            totals[job.cell] += t
    return _reports(per_access, totals)


def _reports(
    per_access: List[Dict[str, AccessCommStats]], totals: List[float]
) -> List[CommReport]:
    return [
        CommReport(
            per_access=pa,
            total_time=total,
            total_messages=sum(
                s.messages_after_vectorization for s in pa.values()
            ),
            total_volume=sum(s.volume for s in pa.values()),
        )
        for pa, total in zip(per_access, totals)
    ]


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

    Vectorized over the program's stacked extraction, through
    the same one-cell path as :func:`execute_group`; the per-event
    test oracle is :func:`execute_python` (bit-identical).
    """
    return _execute_cells([(program, machine, collectives)], payload)[0]


def execute_group(
    cells: Sequence[Tuple[MappedProgram, MachineModel, Optional[CM5Model]]],
    payload: int = 1,
) -> List[CommReport]:
    """Price the cells of one compiled nest in one batched pass —
    bit-identical to ``[execute(p, m, collectives=c) for p, m, c in
    cells]`` (property-tested in ``tests/runtime/test_group_pricing.py``
    and against the per-phase oracle in
    ``tests/runtime/test_pricing_differential.py``).

    Every cell's mapping must share **one**
    :class:`~repro.ir.ScheduledNest` object, with the **same size
    bindings** and one mesh rank — the campaign's compile-key group
    invariant, met by the heuristic and the Feautrier baseline mapping
    of one compile alike: domain points, schedule times and subscripts
    are one shared domain stage, virtual coordinates are per mapping
    and folded coordinates per ``(mapping, folding)`` source.  A
    mismatch raises ``ValueError`` naming what differs.  Twin cells —
    one mapping and equal foldings, like the paragon and cm5 cells of
    one mesh — share one ``comm_batches()`` extraction and their
    phases, and each distinct phase prices once per lane.  The rows of
    all labels and all sources are grouped by one ``unique_rows`` call,
    and every point-to-point phase of the call — all labels, all cells,
    all meshes, both mappings — prices in one fused kernel launch, plus
    one collectives call per (collectives model, kind).
    """
    if not cells:
        return []
    base = cells[0][0]
    for p, _, _ in cells[1:]:
        if p.mapping.schedules is not base.mapping.schedules:
            raise ValueError(
                "execute_group needs the cells of one compiled nest: "
                "every mapping must share one ScheduledNest object "
                "(got mappings over distinct scheduled nests)"
            )
        if p.params != base.params:
            raise ValueError(
                "execute_group needs identical size bindings across "
                f"cells (got {base.params!r} vs {p.params!r})"
            )
        if p.folding.rank != base.folding.rank:
            raise ValueError(
                "execute_group needs one mesh rank across cells (got "
                f"{base.folding.rank}-D and {p.folding.rank}-D foldings)"
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

    Read off the virtual-locality table of the program's (memoized)
    stacked virtual rows, so calling this next to :func:`execute` costs
    no extra domain enumeration.
    """
    stage = program.comm_batches().stage
    tab = _tables(stage, program.mapping)
    return {
        label: moved
        for label, events, local in zip(
            stage.labels, np.diff(stage.offsets).tolist(), tab.n_virt_local
        )
        if (moved := events - local)
    }
