"""Analytic link-contention timing for a mesh (the Paragon-style
model).

All messages of one communication *phase* start simultaneously.  Each
message loads every link of its dimension-order route with its size;
links serve traffic at one size-unit per time-unit, so a phase cannot
finish before its most loaded link has drained.  Adding the per-message
start-up cost (paid serially by each sender for each of its messages)
and the pipeline latency of the longest route gives

    ``T = alpha * max_msgs_per_sender + beta * max_link_load
         + gamma * max_hops``

This is the standard LogGP-flavoured bottleneck bound; it reproduces
the phenomena the paper measures — serial conflicts on shared links —
without modelling flit-level detail (the event-driven simulator in
:mod:`repro.machine.eventsim` cross-checks it).

One kernel prices every phase: :func:`phase_times_segmented` takes
many phases at once, as endpoint coordinate matrices plus a segment
column, and looks up no route.  Under dimension-order routing a
message crosses each mesh axis as one straight run of links, so the
load on a line of links is a sum of intervals, and one sort of all
interval end points yields every phase's link loads and sender fanouts
(:func:`_fanout_and_load`).  One phase is a one-segment launch
(:meth:`repro.machine.machines.MeshModel.time_phase`).  The phases of
one launch may lie on different meshes of one rank (the cells of a
campaign group): each phase carries its own mesh sides, and the sort
keys every phase on the bounding mesh, where a sub-mesh route loads the
same line positions.

Every statistic is an int64 sum, exact while a phase's volume fits
int64 (a larger one raises ``OverflowError``).  The per-element
implementation lives on as the test oracle ``phase_time_python`` in
``tests/oracles/machine.py`` — the perf-core benchmark's baseline and
the differential the kernel is property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .backend import segment_max


@dataclass(frozen=True)
class CostParams:
    """Machine constants (arbitrary but consistent time units)."""

    alpha: float = 20.0  # per-message start-up at the sender
    beta: float = 1.0  # per size-unit per bottleneck link
    gamma: float = 0.5  # per hop pipeline latency

    def scaled(self, **kw) -> "CostParams":
        vals = {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}
        vals.update(kw)
        return CostParams(**vals)

    def phase_times(self, fanout, load, hops) -> np.ndarray:
        """``alpha * fanout + beta * load + gamma * hops`` over int64
        per-phase arrays (the kernel's statistics): each element takes
        the same IEEE operations, in the same order, as the scalar
        formula on one phase."""
        return (
            self.alpha * fanout.astype(np.float64)
            + self.beta * load.astype(np.float64)
            + self.gamma * hops.astype(np.float64)
        )


@dataclass
class PhaseReport:
    """Timing breakdown of one communication phase."""

    time: float
    max_link_load: int
    max_hops: int
    max_msgs_per_sender: int
    total_messages: int
    total_volume: int
    local_messages: int

    def describe(self) -> str:
        return (
            f"time={self.time:.1f} (link_load={self.max_link_load}, "
            f"hops={self.max_hops}, sender_fanout={self.max_msgs_per_sender}, "
            f"msgs={self.total_messages}, volume={self.total_volume})"
        )


@dataclass
class SegmentedPhaseReport:
    """Per-segment timing breakdown of a fused multi-phase pricing
    call: every field is an ``(S,)`` array, one entry per phase segment
    (:func:`phase_times_segmented`).  :meth:`report` rebuilds the
    :class:`PhaseReport` of one segment — the surface the property
    suite compares against the per-element oracle."""

    times: np.ndarray
    max_link_load: np.ndarray
    max_hops: np.ndarray
    max_msgs_per_sender: np.ndarray
    total_messages: np.ndarray
    total_volume: np.ndarray
    local_messages: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]

    def report(self, i: int) -> PhaseReport:
        return PhaseReport(
            time=float(self.times[i]),
            max_link_load=int(self.max_link_load[i]),
            max_hops=int(self.max_hops[i]),
            max_msgs_per_sender=int(self.max_msgs_per_sender[i]),
            total_messages=int(self.total_messages[i]),
            total_volume=int(self.total_volume[i]),
            local_messages=int(self.local_messages[i]),
        )


def _zero_report(n_phases: int, local_messages=None) -> SegmentedPhaseReport:
    def zeros():
        return np.zeros(n_phases, dtype=np.int64)

    return SegmentedPhaseReport(
        times=np.zeros(n_phases, dtype=np.float64),
        max_link_load=zeros(),
        max_hops=zeros(),
        max_msgs_per_sender=zeros(),
        total_messages=zeros(),
        total_volume=zeros(),
        local_messages=zeros() if local_messages is None else local_messages,
    )


def phase_times_segmented(
    mesh,
    senders: np.ndarray,
    receivers: np.ndarray,
    sizes: np.ndarray,
    phase_ids: np.ndarray,
    params: CostParams,
    n_phases: Optional[int] = None,
    phase_dims: Optional[np.ndarray] = None,
) -> SegmentedPhaseReport:
    """Price many phases in one call.

    All messages of all phases enter together: ``senders``/``receivers``
    are ``(n, rank)`` int64 coordinate rows, ``sizes`` the non-negative
    message sizes, and ``phase_ids`` an int64 segment column assigning
    each row to its phase (ids in ``[0, n_phases)``; segments may be
    empty).  One kernel prices every segment:

    * max fanout and max link load come from one sort of interval end
      points (:func:`_fanout_and_load`), with no route lookup;
    * message and volume counts are int64 sums over ``phase_ids`` and
      max hops a scatter-max of the Manhattan distances, exactly
      ``route length - 2`` for dimension-order routes;
    * the :class:`CostParams` cost formula evaluates vectorized across
      all segments.

    The phases may lie on different meshes of one rank: ``phase_dims``,
    an ``(n_phases, rank)`` int64 array, gives each phase the sides of
    its own mesh (``None``: every phase is on ``mesh``, which then only
    fixes the rank).  The sort keys every phase on the elementwise-max
    *bounding* mesh: a dimension-order route inside a sub-mesh loads the
    same line positions in the bounding mesh, and phase ids keep the
    meshes apart, so no per-phase statistic changes.

    An endpoint off its phase's mesh, a phase id outside ``[0,
    n_phases)`` or a negative size raises ``ValueError``; a phase whose
    volume passes int64 raises ``OverflowError``.

    Every statistic is an int64 sum whose partial sums stay between 0
    and the phase's volume, so each field equals the per-element oracle
    ``phase_time_python`` at any int64 magnitude (property-tested in
    ``tests/runtime/test_segmented_pricing.py``), and the final
    ``alpha*fanout + beta*load + gamma*hops`` arithmetic
    (:meth:`CostParams.phase_times`) performs the same IEEE operations
    in the same order.
    """
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    phase_ids = np.asarray(phase_ids, dtype=np.int64)
    n = senders.shape[0]
    if n_phases is None:
        n_phases = int(phase_ids.max()) + 1 if n else 0
    if n == 0:
        return _zero_report(n_phases)
    rank = mesh.ndim
    if senders.shape[1:] != (rank,) or receivers.shape != senders.shape:
        raise ValueError(
            f"endpoint rows must be (n, {rank}) on a rank-{rank} mesh, "
            f"got senders {senders.shape} and receivers {receivers.shape}"
        )
    ends = np.concatenate((senders, receivers), axis=1)
    dims = mesh.dims
    if phase_dims is not None:
        phase_dims = np.asarray(phase_dims, dtype=np.int64)
    _check_launch(dims, ends, sizes, phase_ids, n_phases, phase_dims)
    if phase_dims is not None:
        dims = tuple(phase_dims.max(axis=0).tolist())

    remote = np.any(senders != receivers, axis=1)
    local_messages = np.bincount(
        phase_ids[~remote], minlength=n_phases
    ).astype(np.int64)
    if not remote.all():
        ends = ends[remote]
        sizes = sizes[remote]
        phase_ids = phase_ids[remote]
    if ends.shape[0] == 0:
        return _zero_report(n_phases, local_messages)

    if int(sizes.max()) * sizes.shape[0] >= 1 << 63:
        _check_volumes(sizes, phase_ids, n_phases)
    hops = np.abs(ends[:, rank:] - ends[:, :rank]).sum(axis=1)
    total_messages = np.bincount(phase_ids, minlength=n_phases).astype(np.int64)
    total_volume = np.zeros(n_phases, dtype=np.int64)
    np.add.at(total_volume, phase_ids, sizes)
    max_hops = segment_max(hops, phase_ids, n_phases)
    max_fanout, max_load = _fanout_and_load(
        dims, ends, sizes, phase_ids, n_phases
    )
    return SegmentedPhaseReport(
        times=params.phase_times(max_fanout, max_load, max_hops),
        max_link_load=max_load,
        max_hops=max_hops,
        max_msgs_per_sender=max_fanout,
        total_messages=total_messages,
        total_volume=total_volume,
        local_messages=local_messages,
    )


def _check_launch(dims, ends, sizes, phase_ids, n_phases, phase_dims) -> None:
    """Reject what packed keys would silently alias: a phase id outside
    ``[0, n_phases)``, per-phase mesh sides that are not ``(n_phases,
    rank)`` positive ints, and an endpoint off its mesh (``dims``, or
    with ``phase_dims`` its phase's own sides); and a negative size,
    which the zero-based max reductions cannot reduce.  Viewed
    unsigned, a negative value wraps past every bound, so each one-mesh
    check is one max."""
    if int(phase_ids.view(np.uint64).max()) >= n_phases:
        raise ValueError(
            f"phase_ids must lie in [0, {n_phases}), got ids in "
            f"[{int(phase_ids.min())}, {int(phase_ids.max())}]"
        )
    smallest = int(sizes.min())
    if smallest < 0:
        raise ValueError(f"message sizes must be non-negative, got {smallest}")
    ends = ends.view(np.uint64)
    if phase_dims is None:
        off = ends.max(axis=0) >= np.array(dims * 2, dtype=np.uint64)
    else:
        shape = (n_phases, len(dims))
        if phase_dims.shape != shape or (phase_dims <= 0).any():
            raise ValueError(
                f"phase_dims must be {shape} positive mesh sides, got "
                f"{phase_dims.shape}"
            )
        off = ends >= np.tile(phase_dims, 2).view(np.uint64)[phase_ids]
    if off.any():
        raise ValueError("endpoint outside the mesh")


def _check_volumes(sizes, phase_ids, n_phases) -> None:
    """Raise ``OverflowError`` if a phase's remote volume reaches
    ``2**63``: every partial sum of the kernel is bounded by its phase's
    volume, so this one check keeps all of them in int64.  The volumes
    are summed exactly, as Python ints."""
    volumes = np.zeros(n_phases, dtype=object)
    np.add.at(volumes, phase_ids, sizes.astype(object))
    for phase, volume in enumerate(volumes.tolist()):
        if volume >= 1 << 63:
            raise OverflowError(
                f"phase {phase} moves a volume of {volume} >= 2**63, "
                "past the kernel's int64 sums"
            )


def _fanout_and_load(dims, ends, sizes, phase_ids, n_phases):
    """Per-phase max fanout and max link load of remote messages
    (``ends`` holds each message's sender then receiver coordinates),
    for a mesh of any rank, from one sort of interval end points.

    Every link class is a family of *lines* along which a message loads
    one interval of positions:

    * fanout (weight 1), injection and ejection: one line per node, the
      interval ``[0, 1)``;
    * axis ``a``, one class per direction: one line per node with
      coordinate ``a`` dropped.  Routing runs from the last axis to the
      first, so while a message crosses axis ``a`` the axes above ``a``
      hold the receiver's coordinates and those below the sender's; it
      loads ``[min(s_a, d_a), max(s_a, d_a))`` (``+`` links indexed by
      source, ``-`` links by destination, as in
      :class:`~repro.machine.routecache.RouteCache`), an empty interval
      with weight 0 when it does not move along ``a``.

    ``(phase, class, line, position, start/end)`` packs into one int64
    key, ends sorting before starts at a position, so after one
    ``argsort`` a single int64 ``cumsum`` of the ``±`` weights passes
    through every link's load and never rises above the largest one
    (each line nets to zero, so no per-line offset).  One max reduction
    per ``(phase, class)`` run of the sorted keys gives both maxima.
    """
    rank = len(dims)
    n_nodes = 1
    for side in dims:
        n_nodes *= side
    n_classes = 3 + 2 * rank
    span = 2 * (max(dims) + 1)  # positions 0 .. max side, x start/end
    if n_phases * n_classes * n_nodes * span >= 1 << 63:
        raise ValueError(
            f"contention keys overflow int64: {n_phases} phases x "
            f"{n_classes} link classes x {n_nodes} nodes x {span} "
            "position slots >= 2**63"
        )
    n = ends.shape[0]
    src, dst = ends[:, :rank], ends[:, rank:]
    # one column per line family: fanout, injection, ejection, axes
    cls = np.empty((n, 3 + rank), dtype=np.int64)
    cls[:, :3] = (0, 1, 2)
    np.add(dst < src, np.arange(3, n_classes, 2), out=cls[:, 3:])
    lo = np.zeros_like(cls)
    hi = np.ones_like(cls)
    np.minimum(src, dst, out=lo[:, 3:])
    np.maximum(src, dst, out=hi[:, 3:])
    weights = np.empty_like(cls)
    weights[:, 0] = 1
    weights[:, 1:3] = sizes[:, None]
    np.multiply(src != dst, sizes[:, None], out=weights[:, 3:])
    cls += phase_ids[:, None] * n_classes
    key = (cls * n_nodes + ends @ _line_matrix(dims)) * span
    keys = np.concatenate(((key + 2 * lo + 1).ravel(), (key + 2 * hi).ravel()))
    weights = weights.ravel()
    order = np.argsort(keys)
    run = np.cumsum(np.concatenate((weights, -weights))[order])
    group = keys[order] // (n_nodes * span)  # phase * n_classes + class
    heads = np.flatnonzero(np.diff(group)) + 1
    heads = np.concatenate(([0], heads))
    peaks = np.zeros(n_phases * n_classes, dtype=np.int64)
    peaks[group[heads]] = np.maximum.reduceat(run, heads)
    peaks = peaks.reshape(n_phases, n_classes)
    return peaks[:, 0], peaks[:, 1:].max(axis=1)


@lru_cache(maxsize=64)
def _line_matrix(dims):
    """``(2*rank, 3 + rank)`` int64 matrix taking a message's ``[sender
    | receiver]`` row to its line per family: the sender's node (fanout,
    injection), the receiver's (ejection), and for axis ``a`` the node
    with the sender's coordinates below ``a``, the receiver's above it
    and ``0`` at ``a``."""
    rank = len(dims)
    strides = [1] * rank
    for a in range(rank - 2, -1, -1):
        strides[a] = strides[a + 1] * dims[a + 1]
    out = np.zeros((2 * rank, 3 + rank), dtype=np.int64)
    out[:rank, 0] = out[:rank, 1] = out[rank:, 2] = strides
    for a in range(rank):
        out[:a, 3 + a] = strides[:a]
        out[rank + a + 1:, 3 + a] = strides[a + 1:]
    out.flags.writeable = False
    return out

