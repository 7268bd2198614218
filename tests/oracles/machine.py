"""Per-element references of the vectorized mesh models.

The machine layer times a phase from cached integer link-id arrays
(:func:`repro.machine.phase_time`, :meth:`repro.machine.EventSimulator.run`).
These are the pre-vectorization implementations they must agree with,
bit for bit: every route is rebuilt as tuple links and every link load
lives in a dict.  ``benchmarks/bench_perf_core.py`` also times them as
the speedup baseline.

* :func:`phase_time_python` — ``phase_time`` on a 2-D mesh;
* :func:`phase_time_python` — ``phase_time`` on a 3-D mesh;
* :func:`simulate_python` — ``EventSimulator.run``, any mesh rank.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.machine import CostParams, Mesh, Message, PhaseReport
from repro.machine.topology import Link


def phase_time_python(
    mesh: Mesh, messages: Sequence[Message], params: CostParams
) -> PhaseReport:
    """Pure-Python reference implementation of ``phase_time``, any
    mesh rank (routes walked link by link with ``mesh.route``)."""
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
        max_hops = max(max_hops, mesh.hops(m.src, m.dst))
        for link in mesh.route(m.src, m.dst):
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
        route = tuple(sim.mesh.route(m.src, m.dst))
        k = per_sender.get(m.src, 0)
        per_sender[m.src] = k + 1
        ready = sim.params.alpha * k
        pending.append((ready, order, m, route))
    pending.sort(key=lambda t: (t[0], t[1]))
    finish = 0.0
    for ready, _order, m, route in pending:
        start = ready
        for link in route:
            start = max(start, link_free.get(link, 0.0))
        hops = sim.mesh.hops(m.src, m.dst)  # == len(route) - 2
        done = start + sim.params.beta * m.size + sim.params.gamma * hops
        for link in route:
            link_free[link] = done
        finish = max(finish, done)
    return finish
