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

The communication extraction is **vectorized** and runs in two cached
stages.  The **domain stage**
(:func:`repro.ir.domain.domain_stage`: each statement's domain as one
dense point matrix — the rectangular bounding box filtered by the
domain's vectorized membership mask, see
:meth:`repro.ir.Domain.point_matrix` — its schedule times, and every
access's subscripts ``F·I + c``) depends only on the scheduled nest
and the size bindings.  It is ``ir``'s own memo, cached **on the**
:class:`~repro.ir.ScheduledNest`, so the legality check of a compile
and the heuristic and baseline mappings of it read one enumeration.
The **placement stage** (the virtual coordinates: the mapping's
allocation matmuls over the shared points and subscripts) depends on
the mapping too, so it is cached **on the mapping** and shared by
every folding of the same compiled nest — the
compile-once/price-many situation of the campaign runner.  It is one
:class:`VirtualStage`: the domain stage plus one ``[senders;
receivers]`` coordinate array with per-access row offsets, which
:meth:`MappedProgram.comm_batches` folds onto the mesh with **one**
:meth:`Folding.fold_array` call per folding.  The executor works on
the stacked arrays; iterating an :class:`Extraction` builds the
per-access :class:`CommBatch` views on demand.

There is one extraction algorithm and two lanes of arithmetic: when the
int64 bound of the affine stages is proven, the matmuls run on int64;
otherwise the *same* matmuls run exactly, on object arrays of Python
ints, and the results are cast to int64 (a value past int64 raises
``OverflowError``).  The per-element event list
:meth:`MappedProgram.comm_events_python` is the test oracle the batches
are asserted bit-identical against; no production path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..alignment import MappingResult
from ..distribution import Distribution1D, make_1d
from ..ir import AccessKind
from ..ir.domain import DomainStage, affine_rows, domain_stage, int64_proven
from ..linalg import IntMat
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
    """Segment-id layout of the priced phases of one pricing call — the
    input of the fused segmented pricing kernel.

    The coalesced ``(sender | receiver)`` rows of **all** phases sit in
    one phase-major matrix; ``starts`` delimits the segments (phase
    ``i`` owns rows ``starts[i]:starts[i+1]``; within one label and
    folding, phases come in ascending time order, each with lex-sorted
    rows — the per-phase ``np.unique`` group-bys, concatenated).
    ``counts`` carries each unique pair's multiplicity, ``n_events``
    each phase's pre-coalescing event count.
    """

    #: (U, 2*rank) unique coalesced pair rows of all phases, phase-major
    pairs: np.ndarray
    #: (U,) multiplicity of each unique pair within its phase
    counts: np.ndarray
    #: (S+1,) segment offsets into ``pairs``/``counts``
    starts: np.ndarray
    #: (S,) events per phase before pair coalescing
    n_events: np.ndarray


def segments_from_sorted_unique(
    pairs: np.ndarray, counts: np.ndarray, prefix: np.ndarray
) -> PhaseSegments:
    """:class:`PhaseSegments` from already-uniqued, non-empty rows:
    ``pairs`` and ``counts`` sorted so that equal ``prefix`` rows (the
    phase key) are contiguous.  The executor uniques one ``[label |
    source | time | pair]`` matrix per pricing call and passes the
    first three column groups as ``prefix``."""
    change = np.nonzero(np.any(prefix[1:] != prefix[:-1], axis=1))[0]
    starts = np.concatenate(([0], change + 1, [pairs.shape[0]])).astype(np.int64)
    n_events = np.add.reduceat(counts, starts[:-1]).astype(np.int64)
    return PhaseSegments(
        pairs=pairs, counts=counts, starts=starts, n_events=n_events
    )


@dataclass
class CommBatch:
    """Dense array form of one access's element communications.

    One row per iteration-domain point, in ``itertools.product`` order
    (the exact order :meth:`MappedProgram.comm_events_python` emits
    events in).  All arrays are int64 views into one folding's
    :class:`Extraction`.
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


@dataclass(eq=False)
class VirtualStage:
    """The folding-independent half of one mapping's extraction: the
    shared :class:`~repro.ir.domain.DomainStage` of its scheduled nest
    and this mapping's virtual coordinates, stacked over every access
    (access ``a`` owns rows ``offsets[a]:offsets[a+1]`` of the domain
    stage's ``times`` and of each half of ``virtual``)."""

    domain: DomainStage
    #: (2n, m) every access's sender rows, then every access's receivers
    virtual: np.ndarray
    #: the executor's per-access pricing tables of this mapping, built
    #: on first pricing (see ``executor._tables``)
    tables: Optional[object] = None


@dataclass(eq=False)
class Extraction:
    """One folding's communications: the shared :class:`VirtualStage`
    and its rows folded onto the mesh in one :meth:`Folding.fold_array`
    call.  Iterating an extraction yields one :class:`CommBatch` view
    per access, built on demand (pricing reads the stacked arrays)."""

    stage: VirtualStage
    #: (2n, rank) folded ``stage.virtual``
    phys: np.ndarray

    def __iter__(self) -> Iterator[CommBatch]:
        dom, virtual, phys = self.stage.domain, self.stage.virtual, self.phys
        n, off = dom.n, dom.offsets.tolist()
        for a, (lo, hi) in enumerate(zip(off[:-1], off[1:])):
            k = dom.stmt_of[a]
            yield CommBatch(
                access_label=dom.labels[a],
                stmt=dom.statements[k].name,
                times=dom.times[lo:hi, : dom.stmt_times[k].shape[1]],
                sender_virtual=virtual[lo:hi],
                receiver_virtual=virtual[n + lo: n + hi],
                sender=phys[lo:hi],
                receiver=phys[n + lo: n + hi],
            )

    def __len__(self) -> int:
        return len(self.stage.domain.labels)


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

    def _virtual_batches(self) -> VirtualStage:
        """Times and sender/receiver virtual coordinates of every access
        over its whole iteration domain, stacked as one
        :class:`VirtualStage`: the placement matmuls of this mapping
        over the shared :func:`domain_stage` of its scheduled nest.

        The dtype is picked once per mapping: int64 when every affine
        stage (schedule, subscripts, placements) is proven to stay
        inside the int64 bound, else the placements run on object
        arrays of the shared subscripts, whose exact results are cast
        to int64 (``OverflowError`` on a value past int64).

        Depends only on the mapping and the size bindings — not on the
        folding — so the result is cached **on the mapping object**,
        keyed by the bindings: every folding of the same compiled nest
        (the campaign's machine x mesh grid cells) reuses one
        evaluation.  The alignment's ``mutation_count`` is part of the
        key, so a later ``rotate_component`` invalidates this
        mapping's entries (the domain stage, which no rotation
        changes, stays).  A value past int64 is remembered under the
        same key: every later folding re-raises an equal
        ``OverflowError`` without re-running the exact lane.
        """
        key = (
            tuple(sorted(self.params.items())),
            self.mapping.alignment.mutation_count,
        )
        cache = self.mapping.__dict__.setdefault("_virtual_batch_cache", {})
        hit = cache.get(key)
        if isinstance(hit, OverflowError):
            # the exact lane already failed for these bindings
            raise OverflowError(*hit.args)
        if hit is not None:
            return hit
        al = self.mapping.alignment
        dom = domain_stage(self.mapping.schedules, self.params)
        places = [
            (al.allocation_of_stmt(s.name), al.offset_of_stmt(s.name))
            for s in dom.statements
        ]
        owners = [
            (al.allocation_of_array(acc.array), al.offset_of_array(acc.array))
            for acc in dom.accesses
        ]
        proven = dom.proven and all(
            int64_proven(idx, place) for idx, place in zip(dom.points, places)
        ) and all(
            int64_proven(dom.points[s], (acc.F, acc.c), owner)
            for s, acc, owner in zip(dom.stmt_of, dom.accesses, owners)
        )
        if not proven:
            _exact_lane.inc()
        dtype = np.int64 if proven else object
        try:
            if dom.overflow is not None:
                raise OverflowError(*dom.overflow.args)
            stmt_v = [
                affine_rows(idx.astype(dtype, copy=False), *place).astype(
                    np.int64, copy=False
                )
                for idx, place in zip(dom.points, places)
            ]
            senders, receivers = [], []
            for s, acc, subs, owner in zip(
                dom.stmt_of, dom.accesses, dom.subscripts, owners
            ):
                owner_v = affine_rows(
                    subs.astype(dtype, copy=False), *owner
                ).astype(np.int64, copy=False)
                read = acc.kind is AccessKind.READ
                senders.append(owner_v if read else stmt_v[s])
                receivers.append(stmt_v[s] if read else owner_v)
        except OverflowError as exc:
            # remembered without its traceback, which pins the arrays
            cache[key] = OverflowError(*exc.args)
            raise
        virtual = np.concatenate(
            senders + receivers + [np.empty((0, al.m), np.int64)]
        )
        # every folding's batches are views of these shared arrays
        virtual.flags.writeable = False
        stage = VirtualStage(domain=dom, virtual=virtual)
        cache[key] = stage
        return stage

    def comm_batches(self) -> Extraction:
        """The communications of :meth:`comm_events_python` as dense
        arrays: the stacked virtual stage folded with **one**
        :meth:`Folding.fold_array` call (iterating the result yields one
        :class:`CommBatch` view per access, rows in event order),
        memoized on the program instance."""
        gen = self.mapping.alignment.mutation_count
        cached = self.__dict__.get("_comm_batches")
        if cached is not None and cached[0] == gen:
            return cached[1]
        stage = self._virtual_batches()
        extraction = Extraction(
            stage=stage, phys=self.folding.fold_array(stage.virtual)
        )
        self.__dict__["_comm_batches"] = (gen, extraction)
        return extraction
