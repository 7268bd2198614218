"""Mapped programs: loop nest + allocations + folding + machine.

The executor enumerates the (bounded) iteration space of a scheduled,
aligned loop nest and derives the concrete message sets between
*physical* processors, which a machine model then prices.  This is the
substitution for running the compiled HPF program on real hardware: the
paper's claims are about which messages exist, how they group into
macro-communications and how they collide — all of which the executor
reproduces exactly.

Folding is dimension-generic: the physical target may be any N-D mesh
(2-D Paragon, 3-D T3D, …) and one 1-D distribution scheme is applied
per physical dimension.  The virtual grid dimension ``m`` must equal
the mesh rank — a mismatch raises a friendly error instead of the old
silent collapse-by-summation of extra virtual dimensions.

The communication extraction is **vectorized**: each statement's
polyhedral iteration domain becomes one dense integer index matrix —
the rectangular *bounding box* (``np.meshgrid`` over the bounds, points
in ``itertools.product`` order) filtered by the domain's vectorized
membership mask (one int64 matmul against the half-space system; see
:meth:`repro.ir.Domain.point_matrix`), so triangular/trapezoidal nests
ride the same dense path and rectangular nests skip the mask entirely.
Affine accesses and virtual placements are evaluated as single integer
matmuls over the whole domain, and :class:`Folding` applies its modular
arithmetic to whole coordinate columns at once
(:meth:`Folding.fold_array`).  The executor prices the pre-masked
batches directly — it never re-enumerates a domain.  The arrays — one
:class:`CommBatch` per access — feed the executor's group-by pricing
directly.

There is one extraction algorithm and two lanes of arithmetic: when the
int64 bound of the affine stages is proven, the matmuls run on int64;
otherwise the *same* matmuls run exactly, on object arrays of Python
ints, and the results are cast to int64 (a value past int64 raises
``OverflowError``).  The per-element event list
:meth:`MappedProgram.comm_events_python` is the test oracle the batches
are asserted bit-identical against; no production path calls it.

The virtual-grid stage (schedule times, sender/receiver virtual
coordinates) depends only on the mapping and the size bindings, so it is
cached **on the mapping** and shared by every folding of the same
compiled nest — the compile-once/price-many situation of the campaign
runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..alignment import MappingResult
from ..distribution import Distribution1D, make_1d
from ..ir import AccessKind
from ..ir.domain import affine_rows, int64_proven
from ..linalg import IntMat
from ..machine.backend import unique_rows
from ..obs import metrics as obs_metrics

Virtual = Tuple[int, ...]
Phys = Tuple[int, ...]

#: virtual-stage evaluations on the exact (object-dtype) lane because
#: the int64 bound of the affine stages could not be proven
_exact_lane = obs_metrics.counter("runtime.comm_batches.fallbacks")


@dataclass
class Folding:
    """Folds the (unbounded) m-D virtual grid onto a physical mesh.

    The virtual coordinates produced by allocation matrices can be
    negative and unbounded; we first shift-and-clamp them into an
    ``extent``-sized window per dimension (modulo), then apply one 1-D
    distribution per physical mesh dimension.  ``mesh`` is a
    :class:`~repro.machine.Mesh` of any rank; the virtual rank must
    equal the mesh rank — :meth:`fold` raises a friendly ``ValueError``
    on mismatch (pick ``m = len(mesh.dims)`` when compiling).

    Schemes: ``schemes``/``scheme_kw`` give one 1-D scheme name (and
    keyword dict) per mesh dimension; every dimension defaults to
    ``cyclic``.
    """

    mesh: object
    extent: int
    schemes: Optional[Sequence[str]] = None
    scheme_kw: Optional[Sequence[Dict]] = None

    def __post_init__(self):
        dims = tuple(self.mesh.dims)
        schemes, kws = self.schemes, self.scheme_kw
        if schemes is None:
            schemes = ("cyclic",) * len(dims)
        if kws is None:
            kws = ({},) * len(dims)
        if len(schemes) != len(dims) or len(kws) != len(dims):
            raise ValueError(
                f"need one distribution scheme per mesh dimension: mesh "
                f"has {len(dims)} dimension(s), got {len(schemes)} "
                f"scheme(s) and {len(kws)} kwarg dict(s)"
            )
        self._dists: Tuple[Distribution1D, ...] = tuple(
            make_1d(s, self.extent, p, **kw)
            for s, p, kw in zip(schemes, dims, kws)
        )

    @property
    def rank(self) -> int:
        """Number of physical mesh dimensions."""
        return len(self._dists)

    def fold(self, virtual: Sequence[int]) -> Phys:
        if len(virtual) != self.rank:
            raise ValueError(
                f"cannot fold a {len(virtual)}-D virtual coordinate onto "
                f"a {self.rank}-D mesh: the virtual grid dimension m must "
                f"equal the mesh rank (compile with m={self.rank} or "
                f"target a {len(virtual)}-D mesh)"
            )
        return tuple(
            d.phys(v % self.extent) for d, v in zip(self._dists, virtual)
        )

    def fold_array(self, virtual: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`fold` over an ``(n, rank)`` coordinate array.

        Applies the shift-and-clamp modulo and the per-dimension 1-D
        distribution to whole columns at once; bit-identical to the
        scalar path (``%`` floor-mod semantics match between Python ints
        and numpy int64).
        """
        if virtual.ndim != 2 or virtual.shape[1] != self.rank:
            raise ValueError(
                f"cannot fold a {virtual.shape}-shaped coordinate array "
                f"onto a {self.rank}-D mesh: expected (n, {self.rank})"
            )
        out = np.empty_like(virtual)
        for j, d in enumerate(self._dists):
            out[:, j] = d.phys_array(virtual[:, j] % self.extent)
        return out


@dataclass
class CommEvent:
    """One element-level communication produced by the executor."""

    access_label: str
    time: Tuple[int, ...]
    sender_virtual: Virtual
    receiver_virtual: Virtual
    sender: Phys
    receiver: Phys

    @property
    def is_local_phys(self) -> bool:
        return self.sender == self.receiver


@dataclass
class PhaseSegments:
    """Segment-id layout of one label's priced phases — the input of
    the fused segmented pricing kernel.

    The coalesced ``(sender | receiver)`` rows of **all** phases sit in
    one phase-major matrix; ``starts`` delimits the segments (phase
    ``i`` owns rows ``starts[i]:starts[i+1]``, in the same ascending
    time order — and with the same lex-sorted rows per phase — that the
    per-phase ``np.unique`` group-bys used to produce one sub-array at
    a time).  ``counts`` carries each unique pair's multiplicity,
    ``n_events`` each phase's pre-coalescing event count.
    """

    #: (U, 2*rank) unique coalesced pair rows of all phases, phase-major
    pairs: np.ndarray
    #: (U,) multiplicity of each unique pair within its phase
    counts: np.ndarray
    #: (S+1,) segment offsets into ``pairs``/``counts``
    starts: np.ndarray
    #: (S,) events per phase before pair coalescing
    n_events: np.ndarray

    @property
    def n_phases(self) -> int:
        return self.starts.shape[0] - 1


def build_phase_segments(
    pairs: np.ndarray, times: Optional[np.ndarray] = None
) -> PhaseSegments:
    """Group raw ``(sender | receiver)`` event rows into the
    :class:`PhaseSegments` layout with **one** ``unique_rows`` call.

    With ``times`` (one row per event), events group into one phase per
    distinct time vector: the combined ``[time | pair]`` unique sorts
    time-major, so segment boundaries are where the time prefix changes
    — phases come out in ascending time order with lex-sorted unique
    pairs and their multiplicities, exactly what a per-phase
    ``np.unique`` group-by produced.  Without ``times`` (vectorizable
    access, or a width-0 schedule) every event lands in one phase.
    """
    n = pairs.shape[0]
    if times is None or times.shape[1] == 0:
        upairs, counts = unique_rows(pairs)
        return PhaseSegments(
            pairs=upairs,
            counts=counts,
            starts=np.array([0, upairs.shape[0]], dtype=np.int64),
            n_events=np.array([n], dtype=np.int64),
        )
    tw = times.shape[1]
    stacked = np.concatenate((times, pairs), axis=1)
    uniq, counts = unique_rows(stacked)
    return segments_from_sorted_unique(uniq[:, tw:], counts, uniq[:, :tw])


def segments_from_sorted_unique(
    pairs: np.ndarray, counts: np.ndarray, prefix: np.ndarray
) -> PhaseSegments:
    """:class:`PhaseSegments` from already-uniqued rows: ``pairs`` and
    ``counts`` sorted so that equal ``prefix`` rows (the phase key) are
    contiguous.  Used directly by the batched group executor, which
    uniques one ``[cell | time | pair]`` tensor for all K cells and
    slices per-cell blocks out of it."""
    u = pairs.shape[0]
    if u == 0:
        return PhaseSegments(
            pairs=pairs,
            counts=counts,
            starts=np.zeros(1, dtype=np.int64),
            n_events=np.empty(0, dtype=np.int64),
        )
    if prefix.shape[1] == 0:
        starts = np.array([0, u], dtype=np.int64)
    else:
        change = np.nonzero(np.any(prefix[1:] != prefix[:-1], axis=1))[0]
        starts = np.concatenate(([0], change + 1, [u])).astype(np.int64)
    n_events = np.add.reduceat(counts, starts[:-1]).astype(np.int64)
    return PhaseSegments(
        pairs=pairs, counts=counts, starts=starts, n_events=n_events
    )


@dataclass
class CommBatch:
    """Dense array form of one access's element communications.

    One row per iteration-domain point, in ``itertools.product`` order
    (the exact order :meth:`MappedProgram.comm_events_python` emits
    events in).  All arrays are int64.

    The executor's group-by reductions over a batch — locality masks
    and the per-phase ``np.unique`` pair coalescing — are **memoized on
    the instance** (:meth:`locality_masks`, :meth:`phase_partition`):
    pricing the same program again (the heuristic-vs-baseline
    comparison, bench reruns, the batched group path) reuses one
    extraction instead of re-uniquing per call.  Batches are rebuilt
    whenever the mapping mutates (see
    :meth:`MappedProgram.comm_batches`), so the caches can never serve
    stale arrays.
    """

    access_label: str
    stmt: str
    #: (n, t) schedule time vectors
    times: np.ndarray
    #: (n, m) virtual coordinates
    sender_virtual: np.ndarray
    receiver_virtual: np.ndarray
    #: (n, rank) folded physical coordinates
    sender: np.ndarray
    receiver: np.ndarray

    @property
    def n(self) -> int:
        return self.sender_virtual.shape[0]

    def virtual_local_mask(self) -> np.ndarray:
        """Rows local on the *virtual* grid (folding-independent), so
        the batched group executor seeds it across the K cells of one
        compiled nest — their virtual arrays are the same objects."""
        mask = self.__dict__.get("_virt_local")
        if mask is None:
            mask = np.all(self.sender_virtual == self.receiver_virtual, axis=1)
            self.__dict__["_virt_local"] = mask
        return mask

    def locality_masks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(virtual_local, phys_local, send)`` row masks, memoized.

        ``phys_local`` counts only rows *not* already virtual-local
        (matching the per-event path's early-continue order); ``send``
        is what survives both filters.
        """
        cached = self.__dict__.get("_locality")
        if cached is None:
            virt_local = self.virtual_local_mask()
            nonlocal_mask = ~virt_local
            phys_local = nonlocal_mask & np.all(
                self.sender == self.receiver, axis=1
            )
            send = nonlocal_mask & ~phys_local
            cached = (virt_local, phys_local, send)
            self.__dict__["_locality"] = cached
        return cached

    def send_pairs(self) -> np.ndarray:
        """``sender | receiver`` rows of the surviving (send) events,
        concatenated columns — the executor's phase group-by input."""
        pairs = self.__dict__.get("_send_pairs")
        if pairs is None:
            send = self.locality_masks()[2]
            pairs = np.concatenate(
                (self.sender[send], self.receiver[send]), axis=1
            )
            self.__dict__["_send_pairs"] = pairs
        return pairs

    def phase_partition(self, vectorizable: bool) -> PhaseSegments:
        """The batch's send events grouped into priced phases, in the
        segment-id layout (:class:`PhaseSegments`) the fused pricing
        kernel consumes — no per-phase sub-arrays are materialized.

        Vectorizable accesses merge every time step into one phase;
        otherwise phases follow ascending time order (matching the
        per-event path's sorted bucket keys), each phase's rows
        lex-sorted — exactly the per-phase ``np.unique`` outputs,
        concatenated.  One packed ``unique_rows`` call per batch,
        memoized per ``vectorizable`` flag.
        """
        cache = self.__dict__.setdefault("_phase_partition", {})
        hit = cache.get(vectorizable)
        if hit is not None:
            return hit
        pairs = self.send_pairs()
        if vectorizable:
            seg = build_phase_segments(pairs)
        else:
            send = self.locality_masks()[2]
            seg = build_phase_segments(pairs, self.times[send])
        cache[vectorizable] = seg
        return seg


@dataclass
class MappedProgram:
    """A fully mapped program ready for execution on a machine model."""

    mapping: MappingResult
    folding: Folding
    params: Dict[str, int]

    def __post_init__(self):
        m = self.mapping.alignment.m
        if m != self.folding.rank:
            raise ValueError(
                f"mapping targets an m={m} virtual grid but the folding "
                f"is onto a {self.folding.rank}-D mesh: the two ranks "
                f"must match (compile with m={self.folding.rank} or fold "
                f"onto a {m}-D mesh)"
            )

    def virtual_of_stmt(self, stmt: str, index: Sequence[int]) -> Virtual:
        al = self.mapping.alignment
        m = al.allocation_of_stmt(stmt)
        a = al.offset_of_stmt(stmt)
        return (m @ IntMat.col(list(index)) + a).column_tuple(0)

    def virtual_of_array(self, array: str, subscripts: Sequence[int]) -> Virtual:
        al = self.mapping.alignment
        m = al.allocation_of_array(array)
        a = al.offset_of_array(array)
        return (m @ IntMat.col(list(subscripts)) + a).column_tuple(0)

    def comm_events_python(self) -> List[CommEvent]:
        """Element-level communications of the whole execution, one
        Python object per access per domain point.

        For a read, data flows array-owner -> statement processor; for
        a write, statement processor -> array owner.

        This is the pre-vectorization reference path — the test oracle
        and measured baseline :meth:`comm_batches` is checked against
        (``tests/runtime/test_runtime_vectorized.py``,
        ``bench_runtime_exec.py``); no production path calls it.
        """
        out: List[CommEvent] = []
        nest = self.mapping.alignment.nest
        sched = self.mapping.schedules
        for stmt in nest.statements:
            theta = sched.schedule_of(stmt.name)
            for acc in stmt.accesses:
                label = acc.label or f"{stmt.name}:{acc.array}"
                for idx in stmt.iteration_domain(self.params):
                    subs = acc.apply(idx)
                    owner_v = self.virtual_of_array(acc.array, subs)
                    stmt_v = self.virtual_of_stmt(stmt.name, idx)
                    if acc.kind is AccessKind.READ:
                        sv, rv = owner_v, stmt_v
                    else:
                        sv, rv = stmt_v, owner_v
                    out.append(
                        CommEvent(
                            access_label=label,
                            time=theta.time_of(idx),
                            sender_virtual=sv,
                            receiver_virtual=rv,
                            sender=self.folding.fold(sv),
                            receiver=self.folding.fold(rv),
                        )
                    )
        return out

    # -- vectorized communication extraction ----------------------------

    def _virtual_batches(self) -> List[Tuple[str, str, np.ndarray, np.ndarray, np.ndarray]]:
        """Per access: ``(label, stmt, times, sender_v, receiver_v)``
        int64 arrays over the whole iteration domain.

        The dtype is picked once for the whole nest: int64 when every
        affine stage is proven to stay inside the int64 bound, else
        object arrays of Python ints, whose exact results are cast to
        int64 (``OverflowError`` on a value past int64).

        Depends only on the mapping and the size bindings — not on the
        folding — so the result is cached **on the mapping object**,
        keyed by the bindings: every folding of the same compiled nest
        (the campaign's machine x mesh grid cells) reuses one
        evaluation.  The alignment's ``mutation_count`` is part of the
        key, so a later ``rotate_component`` naturally invalidates
        every entry cached before the rotation.
        """
        key = (
            tuple(sorted(self.params.items())),
            self.mapping.alignment.mutation_count,
        )
        cache = self.mapping.__dict__.setdefault("_virtual_batch_cache", {})
        hit = cache.get(key)
        if hit is not None:
            return hit
        al = self.mapping.alignment
        sched = self.mapping.schedules
        # per statement: domain points, schedule, placement ``(M, a)``
        # and per access its array's placement
        plans = [
            (
                stmt,
                stmt.domain.point_matrix(self.params),
                sched.schedule_of(stmt.name).theta,
                (al.allocation_of_stmt(stmt.name), al.offset_of_stmt(stmt.name)),
                [
                    (
                        acc,
                        (
                            al.allocation_of_array(acc.array),
                            al.offset_of_array(acc.array),
                        ),
                    )
                    for acc in stmt.accesses
                ],
            )
            for stmt in al.nest.statements
        ]
        proven = all(
            int64_proven(idx, (theta, None))
            and int64_proven(idx, place)
            and all(int64_proven(idx, (acc.F, acc.c), owner) for acc, owner in owners)
            for _, idx, theta, place, owners in plans
        )
        if not proven:
            _exact_lane.inc()
        dtype = np.int64 if proven else object
        out = []
        for stmt, idx, theta, place, owners in plans:
            idx = idx.astype(dtype, copy=False)
            times = affine_rows(idx, theta).astype(np.int64, copy=False)
            stmt_v = affine_rows(idx, *place).astype(np.int64, copy=False)
            for acc, owner in owners:
                label = acc.label or f"{stmt.name}:{acc.array}"
                owner_v = affine_rows(
                    affine_rows(idx, acc.F, acc.c), *owner
                ).astype(np.int64, copy=False)
                if acc.kind is AccessKind.READ:
                    sv, rv = owner_v, stmt_v
                else:
                    sv, rv = stmt_v, owner_v
                out.append((label, stmt.name, times, sv, rv))
        cache[key] = out
        return out

    def comm_batches(self) -> List[CommBatch]:
        """The communications of :meth:`comm_events_python` as dense
        per-access arrays (one :class:`CommBatch` per access, rows in
        event order), memoized on the program instance."""
        gen = self.mapping.alignment.mutation_count
        cached = self.__dict__.get("_comm_batches")
        if cached is not None and cached[0] == gen:
            return cached[1]
        batches = [
            CommBatch(
                access_label=label,
                stmt=stmt,
                times=times,
                sender_virtual=sv,
                receiver_virtual=rv,
                sender=self._fold_batch(sv),
                receiver=self._fold_batch(rv),
            )
            for label, stmt, times, sv, rv in self._virtual_batches()
        ]
        self.__dict__["_comm_batches"] = (gen, batches)
        return batches

    def _fold_batch(self, virtual: np.ndarray) -> np.ndarray:
        if virtual.shape[0] == 0:
            return np.empty_like(virtual)
        return self.folding.fold_array(virtual)
