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

:func:`execute` is **vectorized**: it consumes the dense per-access
arrays of :meth:`~repro.runtime.mapping.MappedProgram.comm_batches`
(one row per element communication; polyhedral domains arrive already
masked down to their in-domain rows, so the executor never
re-enumerates an iteration set) and replaces the per-event Python
bucketing with array reductions — virtual/physical locality masks are
whole-column comparisons, the per-time-step phase split and the
``(sender, receiver)`` pair coalescing are ``np.unique`` group-bys —
feeding the already-vectorized ``phase_time`` one deduplicated message
list per phase.  The original per-event implementation is kept as
:func:`execute_python`; the two are bit-identical (asserted on
randomized generated workloads and the paper's seed scenarios in
``tests/runtime/test_runtime_vectorized.py`` and measured against each
other in ``benchmarks/bench_runtime_exec.py`` — the same old-vs-new
pattern as ``phase_time_python`` in the machine layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._config import env_flag
from ..machine import CM5Model, MachineModel, Message
from ..machine.backend import unique_rows
from ..obs import span, traced
from .mapping import (
    CommBatch,
    CommEvent,
    MappedProgram,
    PhaseSegments,
    build_phase_segments,
    segments_from_sorted_unique,
)

#: environment knob: fused segmented pricing (default on); the
#: per-phase path is kept as the bit-identity baseline
SEGMENTED_ENV = "REPRO_SEGMENTED_PRICING"

_segmented = env_flag(SEGMENTED_ENV, True)


def set_segmented_pricing(on: bool) -> bool:
    """Toggle the fused segmented pricing path (returns the previous
    flag).  Off routes every label through the kept per-phase
    ``_price_phase`` baseline — the bit-identity twin the property
    suite and the ``fused_pricing`` benchmark compare against."""
    global _segmented
    prev = _segmented
    _segmented = bool(on)
    return prev


def segmented_pricing_enabled() -> bool:
    return _segmented


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


@traced("exec.phase")
def _price_phase(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model],
    st: AccessCommStats,
    label: str,
    n_events: int,
    pairs: np.ndarray,
    counts: np.ndarray,
    payload: int,
    rank: int,
) -> float:
    """Price one phase given its coalesced ``(sender, receiver)`` pairs
    (rows of ``pairs``, multiplicities in ``counts``).  Returns the time
    added (mirrors the per-phase body of :func:`execute_python`).

    Array-native: machines exposing ``time_phase_arrays`` (the
    Paragon/T3D presets) price the coordinate matrices directly — no
    per-message ``Message`` object churn; anything else gets the
    classic ``Message`` list (duck-typed fallback, so custom registered
    models keep working).  Bit-identical either way (asserted in
    ``tests/machine/test_backend.py``)."""
    sizes = counts * payload
    st.messages_before_vectorization += n_events
    st.messages_after_vectorization += pairs.shape[0]
    st.volume += int(sizes.sum())
    if collectives is not None and st.classification == "macro":
        opt = program.mapping.residual_by_label(label)
        kind = opt.macro.kind.value if opt.macro else "broadcast"
        size = int(sizes.max())
        if kind == "reduction":
            t = collectives.reduction_time(size)
        else:
            t = collectives.broadcast_time(size)
        st.macro_ops += 1
        st.time += t
        return t
    fn = getattr(machine, "time_phase_arrays", None)
    if fn is not None:
        rep = fn(pairs[:, :rank], pairs[:, rank:], sizes)
    else:
        rep = machine.time_phase(
            [
                Message(src=tuple(row[:rank]), dst=tuple(row[rank:]), size=int(sz))
                for row, sz in zip(pairs.tolist(), sizes.tolist())
            ]
        )
    st.time += rep.time
    return rep.time


def _price_label_segmented(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model],
    st: AccessCommStats,
    label: str,
    seg: PhaseSegments,
    payload: int,
    rank: int,
) -> List[float]:
    """Price every phase of one label in one fused call.

    ``seg`` holds all phases as one phase-major unique-pair matrix plus
    segment offsets; the machine's ``time_phases_segmented`` kernel
    (Paragon/T3D presets) prices all segments at once, macro labels go
    down the vectorized collective lane.  Returns the **per-phase**
    times in phase order — callers fold them into their running totals
    one phase at a time, preserving the exact float accumulation
    sequence of the per-phase path, so ``CommReport`` totals stay
    bit-identical.

    The per-phase ``_price_phase`` loop is kept as the bit-identity
    baseline (``set_segmented_pricing(False)``) and as the duck-typed
    fallback for custom registered models that only expose
    ``time_phase`` / ``time_phase_arrays``.
    """
    n_phases = seg.n_phases
    if n_phases == 0:
        return []
    is_macro = collectives is not None and st.classification == "macro"
    fn = getattr(machine, "time_phases_segmented", None)
    if not _segmented or (fn is None and not is_macro):
        starts = seg.starts
        return [
            _price_phase(
                program, machine, collectives, st, label,
                int(seg.n_events[i]),
                seg.pairs[int(starts[i]): int(starts[i + 1])],
                seg.counts[int(starts[i]): int(starts[i + 1])],
                payload, rank,
            )
            for i in range(n_phases)
        ]

    sizes = seg.counts * payload
    st.messages_before_vectorization += int(seg.n_events.sum())
    st.messages_after_vectorization += seg.pairs.shape[0]
    st.volume += int(sizes.sum())
    with span("exec.segmented", count=n_phases):
        if is_macro:
            opt = program.mapping.residual_by_label(label)
            kind = opt.macro.kind.value if opt.macro else "broadcast"
            seg_sizes = np.maximum.reduceat(sizes, seg.starts[:-1])
            vfn = getattr(collectives, "macro_times_segmented", None)
            if vfn is not None:
                times = vfn(kind, seg_sizes)
            elif kind == "reduction":
                times = np.array(
                    [collectives.reduction_time(int(s)) for s in seg_sizes]
                )
            else:
                times = np.array(
                    [collectives.broadcast_time(int(s)) for s in seg_sizes]
                )
            st.macro_ops += n_phases
        else:
            srep = fn(
                seg.pairs[:, :rank],
                seg.pairs[:, rank:],
                sizes,
                seg.phase_ids(),
                n_phases,
            )
            times = srep.times
    ts = times.tolist()
    for t in ts:
        st.time += t
    return ts


def _price_label_mixed(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model],
    st: AccessCommStats,
    label: str,
    chunks: Sequence[Tuple[np.ndarray, np.ndarray]],
    payload: int,
    rank: int,
) -> List[float]:
    """One label spanning statements with different schedule
    dimensionalities: mixed-width time rows cannot concatenate, so
    bucket by time tuple like the python path — but normalize the
    phases to one int64 *bucket index* column so all phases still price
    through one segmented call.  Returns per-phase times like
    :func:`_price_label_segmented`."""
    buckets: Dict[Tuple[int, ...], List[List[int]]] = {}
    for t_arr, p_arr in chunks:
        for trow, prow in zip(t_arr.tolist(), p_arr.tolist()):
            buckets.setdefault(tuple(trow), []).append(prow)
    blocks = []
    for i, tkey in enumerate(sorted(buckets)):
        rows = np.array(buckets[tkey], dtype=np.int64)
        blocks.append(
            np.concatenate(
                (np.full((rows.shape[0], 1), i, dtype=np.int64), rows),
                axis=1,
            )
        )
    stacked = np.concatenate(blocks, axis=0)
    seg = build_phase_segments(stacked[:, 1:], stacked[:, :1])
    return _price_label_segmented(
        program, machine, collectives, st, label, seg, payload, rank
    )


def execute(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model] = None,
    payload: int = 1,
) -> CommReport:
    """Execute the mapped program's communications on a machine model.

    ``machine`` is any registered :class:`~repro.machine.MachineModel`
    (Paragon-style 2-D, T3D-style 3-D, …) and prices point-to-point
    phases (per time step, one phase per access) — the program's folded
    coordinates are tuples of the machine's mesh rank; ``collectives``
    — when given — prices the accesses the heuristic classified as
    macro-communications with hardware collective costs instead (the
    CM-5 situation of Table 1).

    Vectorized over the program's :class:`CommBatch` arrays; the
    per-event reference implementation is :func:`execute_python`
    (bit-identical).
    """
    with span("exec.extract"):
        batches = program.comm_batches()
    rank = program.folding.rank
    per_access: Dict[str, AccessCommStats] = {}
    # per label: the batches whose events survive the locality filters
    # (group-by outputs are memoized on the batches, so re-pricing the
    # same program reuses one extraction)
    remaining: Dict[str, List[CommBatch]] = {}
    for b in batches:
        if b.n == 0:
            # no events -> no stats entry, exactly like the per-event
            # path (which only creates entries while iterating events)
            continue
        label = b.access_label
        st = per_access.get(label)
        if st is None:
            st = AccessCommStats(
                label=label,
                classification=_classification_of(program, label),
            )
            per_access[label] = st
        st.events += b.n
        virt_local, phys_local, send = b.locality_masks()
        st.virtual_local += int(virt_local.sum())
        st.phys_local += int(phys_local.sum())
        if send.any():
            remaining.setdefault(label, []).append(b)

    total_time = 0.0
    # phase pricing in the exact order of the python path: labels in
    # sorted order, phases in ascending time order (np.unique rows are
    # lexicographically sorted, matching tuple-sorted bucket keys)
    for label in sorted(remaining):
        st = per_access[label]
        blist = remaining[label]
        vec = _vectorizable(program, label)
        if len(blist) == 1:
            # one batch owns the label (the common case): price its
            # memoized phase partition in one fused call
            for t in _price_label_segmented(
                program, machine, collectives, st, label,
                blist[0].phase_partition(vec), payload, rank,
            ):
                total_time += t
            continue
        chunks = [
            (b.times[b.locality_masks()[2]], b.send_pairs()) for b in blist
        ]
        if not vec and len({t.shape[1] for t, _ in chunks}) > 1:
            for t in _price_label_mixed(
                program, machine, collectives, st, label,
                chunks, payload, rank,
            ):
                total_time += t
            continue
        pairs = np.concatenate([p for _, p in chunks], axis=0)
        if vec:
            # vectorization merges all time steps into one phase
            seg = build_phase_segments(pairs)
        else:
            times = np.concatenate([t for t, _ in chunks], axis=0)
            seg = build_phase_segments(pairs, times)
        for t in _price_label_segmented(
            program, machine, collectives, st, label, seg, payload, rank,
        ):
            total_time += t

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


def execute_group(
    cells: Sequence[Tuple[MappedProgram, MachineModel, Optional[CM5Model]]],
    payload: int = 1,
) -> List[CommReport]:
    """Price all K machine x mesh cells of one compiled nest in one
    batched pass — bit-identical to ``[execute(p, m, collectives=c)
    for p, m, c in cells]`` (property-tested in
    ``tests/runtime/test_group_pricing.py``).

    Every cell must fold the **same mapping** with the **same size
    bindings** (the campaign's compile-key group invariant: domains,
    schedule times and virtual coordinates are shared arrays; only the
    folded physical coordinates differ per cell).  Instead of running
    the per-phase ``np.unique`` group-bys K times, the cells' surviving
    ``(sender, receiver)`` rows are stacked into one int64 tensor with
    a leading cell-id column and grouped **once** per label with
    :func:`~repro.machine.backend.unique_rows`; lexicographic
    unique order makes the per-(cell, time) segments come out exactly
    in each cell's own phase order, so float accumulation order — and
    therefore every total — matches the per-cell path bit for bit.
    """
    if not cells:
        return []
    programs = [c[0] for c in cells]
    base = programs[0]
    for p in programs[1:]:
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
    if len(cells) == 1:
        program, machine, coll = cells[0]
        return [execute(program, machine, collectives=coll, payload=payload)]

    K = len(cells)
    rank = base.folding.rank
    with span("exec.extract"):
        batch_lists = [p.comm_batches() for p in programs]

    per_access: List[Dict[str, AccessCommStats]] = [{} for _ in range(K)]
    totals = [0.0] * K
    # label -> per-cell lists of surviving batches
    remaining: Dict[str, List[List[CommBatch]]] = {}
    classifications: Dict[str, str] = {}
    for bi, b0 in enumerate(batch_lists[0]):
        if b0.n == 0:
            continue
        label = b0.access_label
        if label not in classifications:
            classifications[label] = _classification_of(base, label)
        # the virtual arrays are shared objects across cells, so the
        # virtual-locality mask is computed once and seeded into every
        # cell's batch before its (per-cell) physical masks
        virt_local = b0.virtual_local_mask()
        n_virt_local = int(virt_local.sum())
        for k in range(K):
            b = batch_lists[k][bi]
            st = per_access[k].get(label)
            if st is None:
                st = AccessCommStats(
                    label=label, classification=classifications[label]
                )
                per_access[k][label] = st
            st.events += b.n
            st.virtual_local += n_virt_local
            b.__dict__.setdefault("_virt_local", virt_local)
            _, phys_local, send = b.locality_masks()
            st.phys_local += int(phys_local.sum())
            if send.any():
                remaining.setdefault(
                    label, [[] for _ in range(K)]
                )[k].append(b)

    cell_ids = np.arange(K, dtype=np.int64)
    for label in sorted(remaining):
        per_cell = remaining[label]
        vec = _vectorizable(base, label)
        widths = {
            b.times.shape[1] for blist in per_cell for b in blist
        }
        if not vec and len(widths) > 1:
            # mixed schedule widths cannot stack; fall back to the
            # per-cell python bucketing (identical to execute())
            for k in range(K):
                if not per_cell[k]:
                    continue
                chunks = [
                    (b.times[b.locality_masks()[2]], b.send_pairs())
                    for b in per_cell[k]
                ]
                for t in _price_label_mixed(
                    programs[k], cells[k][1], cells[k][2],
                    per_access[k][label], label, chunks, payload, rank,
                ):
                    totals[k] += t
            continue

        # stack all cells' rows as [cell | (time) | sender | receiver]
        blocks: List[np.ndarray] = []
        n_events_cell = [0] * K
        tw = 0 if vec else widths.pop()
        for k in range(K):
            for b in per_cell[k]:
                pairs = b.send_pairs()
                cols = [np.full((pairs.shape[0], 1), cell_ids[k])]
                if not vec:
                    cols.append(b.times[b.locality_masks()[2]])
                cols.append(pairs)
                blocks.append(np.concatenate(cols, axis=1))
                n_events_cell[k] += pairs.shape[0]
        stacked = np.concatenate(blocks, axis=0)
        uniq, counts = unique_rows(stacked)
        if uniq.shape[0] == 0:
            continue

        # cell blocks are contiguous (the cell id is the sort-major
        # column); within a block the rows are ``[time | pair]``-sorted,
        # exactly the segment layout the fused kernel consumes — one
        # segmented pricing call per (cell, label)
        cell_col = uniq[:, 0]
        cell_change = np.nonzero(cell_col[1:] != cell_col[:-1])[0]
        cell_starts = np.concatenate(([0], cell_change + 1, [uniq.shape[0]]))
        for cs, ce in zip(cell_starts[:-1], cell_starts[1:]):
            k = int(cell_col[cs])
            if vec:
                # one phase per cell: vectorization merged all times
                seg = PhaseSegments(
                    pairs=uniq[cs:ce, 1:],
                    counts=counts[cs:ce],
                    starts=np.array([0, ce - cs], dtype=np.int64),
                    n_events=np.array([n_events_cell[k]], dtype=np.int64),
                )
            else:
                seg = segments_from_sorted_unique(
                    uniq[cs:ce, 1 + tw:],
                    counts[cs:ce],
                    uniq[cs:ce, 1: 1 + tw],
                )
            for t in _price_label_segmented(
                programs[k], cells[k][1], cells[k][2],
                per_access[k][label], label, seg, payload, rank,
            ):
                totals[k] += t

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


def execute_python(
    program: MappedProgram,
    machine: MachineModel,
    collectives: Optional[CM5Model] = None,
    payload: int = 1,
) -> CommReport:
    """Pure-Python reference implementation of :func:`execute`.

    Builds one :class:`CommEvent` per access per domain point and
    re-buckets them with Python dicts — the pre-vectorization behaviour,
    kept as the measured baseline and bit-identity cross-check (same
    pattern as ``phase_time_python``).
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
