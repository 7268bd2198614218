"""Per-element references of the vectorized mesh models.

The machine layer times phases with the route-free contention kernel
(:func:`repro.machine.phase_times_segmented`, also behind
:meth:`repro.machine.MeshModel.time_phase`) and simulates them from
cached integer link-id arrays (:meth:`repro.machine.EventSimulator.run`).
These are the per-element implementations they must agree with, bit
for bit: every route is rebuilt as tuple links and every link load
lives in a dict.  ``benchmarks/bench_perf_core.py`` also times them as
the speedup baseline, so they walk routes with their own frozen copy of
dimension-order routing (:func:`route`, :func:`hops`) rather than
``Mesh.route``: a change to the production walk cannot move the
baseline's cost.

* :func:`phase_time_python` — one phase of the kernel, any mesh rank;
* :func:`simulate_python` — ``EventSimulator.run``, any mesh rank;
* :func:`route` / :func:`hops` — the reference walk and hop count
  (``tests/machine/test_routecache.py`` checks them link for link
  against ``Mesh.route``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.machine import CostParams, Mesh, Message, PhaseReport
from repro.machine.topology import Link, Node


def route(src: Node, dst: Node) -> List[Link]:
    """Dimension-order route (last axis first) with its injection and
    ejection links; empty for a local message."""
    if src == dst:
        return []
    links: List[Link] = [("inj", src)]
    cur = list(src)
    for axis in range(len(src) - 1, -1, -1):
        while cur[axis] != dst[axis]:
            here = tuple(cur)
            cur[axis] += 1 if dst[axis] > cur[axis] else -1
            links.append(("net", here, tuple(cur)))
    links.append(("eje", dst))
    return links


def hops(src: Node, dst: Node) -> int:
    """Manhattan distance."""
    return sum(abs(a - b) for a, b in zip(src, dst))


def phase_time_python(
    mesh: Mesh, messages: Sequence[Message], params: CostParams
) -> PhaseReport:
    """Pure-Python reference timing of one phase, any mesh rank (routes
    walked link by link with :func:`route`; ``mesh`` is unused, kept so
    the call reads like the kernel's)."""
    link_load: Dict[Link, int] = {}
    sender_msgs: Dict = {}
    max_hops = 0
    total_volume = 0
    local = 0
    remote = 0
    for m in messages:
        if m.is_local:
            local += 1
            continue
        remote += 1
        total_volume += m.size
        sender_msgs[m.src] = sender_msgs.get(m.src, 0) + 1
        max_hops = max(max_hops, hops(m.src, m.dst))
        for link in route(m.src, m.dst):
            link_load[link] = link_load.get(link, 0) + m.size
    max_load = max(link_load.values(), default=0)
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


def simulate_python(sim, messages: Sequence[Message]) -> float:
    """Pure-Python reference implementation of ``sim.run(messages)``
    for an :class:`~repro.machine.EventSimulator` ``sim`` (per-link
    dict probes, routes rebuilt per message)."""
    link_free: Dict[Link, float] = {}
    per_sender: Dict = {}
    pending: List[Tuple[float, int, Message, Tuple[Link, ...]]] = []
    for order, m in enumerate(messages):
        if m.is_local:
            continue
        links = tuple(route(m.src, m.dst))
        k = per_sender.get(m.src, 0)
        per_sender[m.src] = k + 1
        ready = sim.params.alpha * k
        pending.append((ready, order, m, links))
    pending.sort(key=lambda t: (t[0], t[1]))
    finish = 0.0
    for ready, _order, m, links in pending:
        start = ready
        for link in links:
            start = max(start, link_free.get(link, 0.0))
        n_hops = hops(m.src, m.dst)  # == len(links) - 2
        done = start + sim.params.beta * m.size + sim.params.gamma * n_hops
        for link in links:
            link_free[link] = done
        finish = max(finish, done)
    return finish
