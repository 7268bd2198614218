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

:func:`phase_time` is vectorized: routes come from the per-mesh
:class:`~repro.machine.routecache.RouteCache` as integer link-id
arrays and the link-load accumulation is a single ``np.bincount`` over
all messages of the phase.  The original per-element implementation
lives on as the test oracle ``phase_time_python`` in
``tests/oracles/machine.py`` — the perf-core benchmark's baseline and
the bit-identity cross-check of ``tests/machine/test_routecache.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from .backend import segment_max, unique_rows, weighted_bincount
from .routecache import gather_route_ids, max_link_load, route_cache_for
from .topology import Message


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


def phase_time(
    mesh,
    messages: Sequence[Message],
    params: CostParams,
    cache=None,
) -> PhaseReport:
    """Time for one phase of simultaneous messages on the mesh.

    ``mesh`` is a :class:`~repro.machine.topology.Mesh` of any rank;
    message endpoints are coordinate tuples of that rank.  Vectorized:
    link loads accumulate by ``np.bincount`` over the cached link-id
    arrays of all routes at once.  ``cache`` defaults to the shared per-mesh
    :func:`~repro.machine.routecache.route_cache_for` cache; pass an
    explicit one for isolation.
    """
    if cache is None:
        cache = route_cache_for(mesh)
    sender_msgs: Dict = {}
    max_hops = 0
    total_volume = 0
    local = 0
    remote = 0
    id_arrays: List = []
    sizes: List[int] = []
    for m in messages:
        if m.src == m.dst:
            local += 1
            continue
        remote += 1
        total_volume += m.size
        sender_msgs[m.src] = sender_msgs.get(m.src, 0) + 1
        ids = cache.link_ids(m.src, m.dst)
        n = ids.shape[0]
        if n - 2 > max_hops:
            max_hops = n - 2  # == mesh.hops(m.src, m.dst) by construction
        id_arrays.append(ids)
        sizes.append(m.size)
    max_load = max_link_load(cache, id_arrays, sizes)
    max_fanout = max(sender_msgs.values(), default=0)
    time = (
        params.alpha * max_fanout
        + params.beta * max_load
        + params.gamma * max_hops
    )
    return PhaseReport(
        time=time,
        max_link_load=max_load,
        max_hops=max_hops,
        max_msgs_per_sender=max_fanout,
        total_messages=remote,
        total_volume=total_volume,
        local_messages=local,
    )


@dataclass
class SegmentedPhaseReport:
    """Per-segment timing breakdown of a fused multi-phase pricing
    call: every field is an ``(S,)`` array, one entry per phase segment
    (:func:`phase_times_segmented`).  :meth:`report` rebuilds the exact
    :class:`PhaseReport` of one segment — the surface the bit-identity
    property suite compares against the per-phase path."""

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


#: dense per-(phase, link) load matrices are capped at this many cells
#: (512 KB of float64); larger phase x link products — the norm once a
#: launch stacks every phase of a compile-key group — take the
#: compressed-key path instead
_DENSE_LOAD_CELLS = 1 << 16

#: float64 integer arithmetic is exact below this (same bound as
#: :func:`~repro.machine.routecache.max_link_load`)
_EXACT_F64 = 2 ** 53

#: segments repriced through the exact per-phase path because their
#: magnitudes could break float64 exactness
_exact_fallbacks = obs_metrics.counter("machine.contention.exact_fallbacks")


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


def _segmented_exact_fallback(
    mesh, senders, receivers, sizes, phase_ids, params, cache, n_phases, bad
) -> SegmentedPhaseReport:
    """Pathological-magnitude fallback: the segments ``bad`` are priced
    one by one through the exact :func:`phase_time` (bit-identical at
    any magnitude, never fast), every other segment by the fused
    kernel."""
    keep = ~np.isin(phase_ids, bad)
    rep = phase_times_segmented(
        mesh, senders[keep], receivers[keep], sizes[keep], phase_ids[keep],
        params, cache, n_phases,
    )
    for s in bad.tolist():
        m = phase_ids == s
        r = phase_time(
            mesh,
            [
                Message(src=tuple(a), dst=tuple(b), size=z)
                for a, b, z in zip(
                    senders[m].tolist(), receivers[m].tolist(),
                    sizes[m].tolist(),
                )
            ],
            params,
            cache,
        )
        rep.times[s] = r.time
        rep.max_link_load[s] = r.max_link_load
        rep.max_hops[s] = r.max_hops
        rep.max_msgs_per_sender[s] = r.max_msgs_per_sender
        rep.total_messages[s] = r.total_messages
        rep.total_volume[s] = r.total_volume
        rep.local_messages[s] = r.local_messages
    return rep


def phase_times_segmented(
    mesh,
    senders: np.ndarray,
    receivers: np.ndarray,
    sizes: np.ndarray,
    phase_ids: np.ndarray,
    params: CostParams,
    cache=None,
    n_phases: Optional[int] = None,
) -> SegmentedPhaseReport:
    """Fused :func:`phase_time` over many phases in one call.

    All messages of all phases enter together: ``senders``/``receivers``
    are ``(n, rank)`` int64 coordinate rows, ``sizes`` the message
    sizes, and ``phase_ids`` an int64 segment column assigning each row
    to its phase (ids in ``[0, n_phases)``; segments may be empty).
    One kernel prices every segment:

    * per-link loads come from a single weighted ``bincount`` over the
      combined key ``phase_id * num_links + link_id``, with the link
      ids of all routes gathered at once from the route cache
      (:func:`~repro.machine.routecache.gather_route_ids`);
    * per-segment max-fanout / max-hops / max-load are scatter-max
      (``np.maximum.at``-style) reductions;
    * the :class:`CostParams` cost formula evaluates vectorized across
      all segments.

    Bit-identical to calling :func:`phase_time` once per segment
    (property-tested in ``tests/runtime/test_segmented_pricing.py``):
    every float64 partial sum of a segment — its volume and each of its
    link loads, routes being simple paths — is bounded by its largest
    ``|size|`` times its message count.  A segment whose bound reaches
    ``2**53``, or that holds a negative size, is priced alone through
    the exact :func:`phase_time` (counted in
    ``machine.contention.exact_fallbacks``); the others
    stay on the kernel.  The final ``alpha*fanout + beta*load +
    gamma*hops`` arithmetic performs the same IEEE operations in the
    same order.  Max hops is the Manhattan distance, exactly
    ``route length - 2`` for the caches' dimension-order routes.
    """
    if cache is None:
        cache = route_cache_for(mesh)
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    phase_ids = np.asarray(phase_ids, dtype=np.int64)
    n = senders.shape[0]
    if n_phases is None:
        n_phases = int(phase_ids.max()) + 1 if n else 0
    if n == 0 or n_phases == 0:
        return _zero_report(n_phases)

    # per-segment exactness guard, skipped when the whole launch is
    # already in range (float products of exact integers are exact
    # below 2**53 and never round down past it); negative sizes, which
    # the zero-based scatter-max cannot reduce, also go exact
    mag = np.abs(sizes.astype(np.float64))
    negative = sizes < 0
    if float(mag.max()) * n >= _EXACT_F64 or negative.any():
        seg_bound = segment_max(mag, phase_ids, n_phases) * np.bincount(
            phase_ids, minlength=n_phases
        )
        bad = np.flatnonzero(
            (seg_bound >= _EXACT_F64)
            | (np.bincount(phase_ids[negative], minlength=n_phases) > 0)
        )
        if bad.size:
            _exact_fallbacks.inc(int(bad.size))
            return _segmented_exact_fallback(
                mesh, senders, receivers, sizes, phase_ids, params, cache,
                n_phases, bad,
            )

    nonlocal_mask = np.any(senders != receivers, axis=1)
    local_messages = np.bincount(
        phase_ids[~nonlocal_mask], minlength=n_phases
    ).astype(np.int64)
    if not nonlocal_mask.all():
        senders = senders[nonlocal_mask]
        receivers = receivers[nonlocal_mask]
        sizes = sizes[nonlocal_mask]
        phase_ids = phase_ids[nonlocal_mask]
    if senders.shape[0] == 0:
        return _zero_report(n_phases, local_messages)

    hops = np.abs(receivers - senders).sum(axis=1)
    total_messages = np.bincount(phase_ids, minlength=n_phases).astype(np.int64)
    total_volume = weighted_bincount(
        phase_ids, sizes.astype(np.float64), n_phases
    ).astype(np.int64)
    max_hops = segment_max(hops, phase_ids, n_phases)

    # max messages per sender, per segment: one group-by over the
    # (phase, sender) key, then a scatter-max of the group counts
    fan_rows = np.concatenate((phase_ids[:, None], senders), axis=1)
    ufan, fan_counts = unique_rows(fan_rows)
    max_fanout = segment_max(fan_counts.astype(np.int64), ufan[:, 0], n_phases)

    # bottleneck link load per segment: one weighted bincount over the
    # combined (phase, link) key
    flat_ids, lens = gather_route_ids(cache, senders, receivers)
    num_links = cache.num_links
    keys = np.repeat(phase_ids, lens) * num_links + flat_ids
    weights = np.repeat(sizes, lens).astype(np.float64)
    if n_phases * num_links <= _DENSE_LOAD_CELLS:
        loads = weighted_bincount(keys, weights, n_phases * num_links)
        max_load = (
            loads.reshape(n_phases, num_links).max(axis=1).astype(np.int64)
        )
    else:
        ukeys, inv = np.unique(keys, return_inverse=True)
        sums = weighted_bincount(
            np.asarray(inv).ravel(), weights, ukeys.shape[0]
        )
        max_load = segment_max(
            sums.astype(np.int64), ukeys // num_links, n_phases
        )

    times = (
        params.alpha * max_fanout.astype(np.float64)
        + params.beta * max_load.astype(np.float64)
        + params.gamma * max_hops.astype(np.float64)
    )
    return SegmentedPhaseReport(
        times=times,
        max_link_load=max_load,
        max_hops=max_hops,
        max_msgs_per_sender=max_fanout,
        total_messages=total_messages,
        total_volume=total_volume,
        local_messages=local_messages,
    )


def phased_time(
    mesh,
    phases: Iterable[Sequence[Message]],
    params: CostParams,
) -> List[PhaseReport]:
    """Time a sequence of phases executed one after the other (the
    decomposed-communication schedule: L then U, not in parallel)."""
    return [phase_time(mesh, msgs, params) for msgs in phases]


def total_time(reports: Iterable[PhaseReport]) -> float:
    return sum(r.time for r in reports)
