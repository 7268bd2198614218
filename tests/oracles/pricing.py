"""Per-phase pricing reference.

The executor prices every point-to-point phase of a call in one fused
kernel launch.  This module is what it must agree with, bit for
bit: every phase is grouped with plain Python dicts and priced alone
through :func:`phase_time_arrays` (or the scalar collective costs), and
the times are folded in the executor's order — labels sorted, phases in
ascending time order.  No phase goes through the contention kernel, so
the executor differential does not check the kernel against itself.

* :func:`phase_time_arrays` — one phase from endpoint coordinate
  matrices, priced from route-cache link ids (:func:`max_link_load`)
  with no interval sweep and no fused segments;
* :func:`execute_per_phase` / :func:`execute_group_per_phase` — the
  ``execute`` / ``execute_group`` twins;
* :func:`per_phase_pricing` — runs a block (a whole campaign, say) with
  ``repro.runtime``'s pricing entry points swapped for the twins.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

import repro.runtime as runtime
from repro.machine import PhaseReport, RouteCache, route_cache_for
from repro.machine.backend import unique_rows
from repro.runtime import AccessCommStats, CommReport
from repro.runtime.executor import _classification_of, _vectorizable


def max_link_load(cache: RouteCache, id_arrays, sizes) -> int:
    """Bottleneck link load of one phase: each message's size is added
    to every link of its id array, vectorized over all messages at once.

    Uses a float64-weighted ``np.bincount`` whenever the total volume
    bounds every partial sum below ``2**53``, where float64 integer
    arithmetic is exact; beyond that it accumulates per link in Python
    ints, so the result equals the dict sums of ``phase_time_python``
    at any magnitude.
    """
    if not id_arrays:
        return 0
    lens = [a.shape[0] for a in id_arrays]
    # exact arbitrary-precision bound on every partial sum
    total = sum(s * n for s, n in zip(sizes, lens))
    if total <= 2 ** 53:
        all_ids = np.concatenate(id_arrays)
        weights = np.repeat(
            np.asarray(sizes, dtype=np.int64), np.asarray(lens, dtype=np.int64)
        )
        loads = np.bincount(all_ids, weights=weights, minlength=cache.num_links)
        return int(loads.max())
    acc: Dict[int, int] = {}
    for ids, size in zip(id_arrays, sizes):
        for i in ids.tolist():
            acc[i] = acc.get(i, 0) + size
    return max(acc.values(), default=0)


def phase_time_arrays(
    mesh, senders, receivers, sizes, params, cache=None
) -> PhaseReport:
    """One phase given ``(n, rank)`` endpoint matrices and ``(n,)``
    sizes: fanout from one row group-by, max hops as the Manhattan
    distance (the route length minus 2 for dimension-order routes),
    link loads from the route cache's link-id arrays and the cost
    formula on Python ints, as ``phase_time_python`` computes them."""
    if cache is None:
        cache = route_cache_for(mesh)
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    nonlocal_mask = np.any(senders != receivers, axis=1)
    local = int(senders.shape[0] - nonlocal_mask.sum())
    senders = senders[nonlocal_mask]
    receivers = receivers[nonlocal_mask]
    sizes = sizes[nonlocal_mask]
    remote = senders.shape[0]
    if remote:
        max_fanout = int(unique_rows(senders)[1].max())
        max_hops = int(np.abs(receivers - senders).sum(axis=1).max())
    else:
        max_fanout = max_hops = 0
    size_list = sizes.tolist()
    max_load = max_link_load(
        cache,
        [
            cache.link_ids(tuple(s), tuple(d))
            for s, d in zip(senders.tolist(), receivers.tolist())
        ],
        size_list,
    )
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
        total_volume=sum(size_list),
        local_messages=local,
    )


def execute_per_phase(program, machine, collectives=None, payload=1):
    """The per-phase twin of ``repro.runtime.execute``."""
    per_access: Dict[str, AccessCommStats] = {}
    # label -> phase key -> (sender, receiver) -> events
    phases: Dict[str, Dict[Tuple, Dict[Tuple, int]]] = {}
    for b in program.comm_batches():
        if b.n == 0:
            continue
        label = b.access_label
        st = per_access.setdefault(
            label,
            AccessCommStats(
                label=label,
                classification=_classification_of(program, label),
            ),
        )
        virt_local = np.all(b.sender_virtual == b.receiver_virtual, axis=1)
        phys_local = ~virt_local & np.all(b.sender == b.receiver, axis=1)
        send = ~virt_local & ~phys_local
        st.events += b.n
        st.virtual_local += int(virt_local.sum())
        st.phys_local += int(phys_local.sum())
        vec = _vectorizable(program, label)
        by_phase = phases.setdefault(label, {})
        for t, s, r in zip(
            b.times[send].tolist(),
            b.sender[send].tolist(),
            b.receiver[send].tolist(),
        ):
            # vectorization merges every time step into one phase
            pairs = by_phase.setdefault(() if vec else tuple(t), {})
            key = (tuple(s), tuple(r))
            pairs[key] = pairs.get(key, 0) + 1

    total_time = 0.0
    for label in sorted(phases):
        st = per_access[label]
        macro = collectives is not None and st.classification == "macro"
        for tkey in sorted(phases[label]):
            pairs = phases[label][tkey]
            sizes = {key: n * payload for key, n in pairs.items()}
            st.messages_before_vectorization += sum(pairs.values())
            st.messages_after_vectorization += len(pairs)
            st.volume += sum(sizes.values())
            if macro:
                opt = program.mapping.residual_by_label(label)
                kind = opt.macro.kind.value if opt.macro else "broadcast"
                size = max(sizes.values())
                if kind == "reduction":
                    t = collectives.reduction_time(size)
                else:
                    t = collectives.broadcast_time(size)
                st.macro_ops += 1
            else:
                items = sorted(sizes.items())
                rank = machine.mesh.ndim
                t = phase_time_arrays(
                    machine.mesh,
                    np.array([s for (s, _d), _z in items]).reshape(-1, rank),
                    np.array([d for (_s, d), _z in items]).reshape(-1, rank),
                    np.array([z for _key, z in items]),
                    machine.params,
                ).time
            st.time += t
            total_time += t

    return CommReport(
        per_access=per_access,
        total_time=total_time,
        total_messages=sum(
            s.messages_after_vectorization for s in per_access.values()
        ),
        total_volume=sum(s.volume for s in per_access.values()),
    )


def execute_group_per_phase(cells, payload=1) -> List[CommReport]:
    """The per-phase twin of ``repro.runtime.execute_group``."""
    return [
        execute_per_phase(p, m, collectives=c, payload=payload)
        for p, m, c in cells
    ]


@contextmanager
def per_phase_pricing():
    """Swap ``repro.runtime.execute`` / ``execute_group`` for the
    per-phase twins for the duration of the block (the campaign runner
    looks both names up on :mod:`repro.runtime` at call time)."""
    saved = runtime.execute, runtime.execute_group
    runtime.execute = execute_per_phase
    runtime.execute_group = execute_group_per_phase
    try:
        yield
    finally:
        runtime.execute, runtime.execute_group = saved
