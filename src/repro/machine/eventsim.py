"""Event-driven wormhole-style network simulator.

The analytic contention model of :mod:`repro.machine.contention` is a
bottleneck bound; this simulator executes the same message set with
explicit resource reservation and measures the actual makespan,
providing the A2 ablation (how tight is the analytic model?) and an
independent check of the orderings the benchmarks rely on.

Model: wormhole / circuit-switched semantics, as on the Paragon.  A
message needs *all* links of its dimension-order route at once; it
starts when every link is free (and its sender has finished the
per-message start-up of its earlier messages), holds the whole path
for ``beta * size + gamma * hops`` time units, then releases it.
Conflicting messages thus serialize path-wise — including the
head-of-line blocking that makes irregular affine patterns slow on
real wormhole meshes.

Scheduling is greedy in (ready time, message order): a simple but
deterministic arbitration, adequate for ordering comparisons.

Hop count: ``hops`` is :meth:`~repro.machine.topology.Mesh.hops`
(Manhattan distance), which for every remote pair equals
``len(route) - 2`` — the route is exactly injection + one network link
per hop + ejection.  An earlier revision derived hops from the route
length with a defensive ``max(0, ...)`` clamp that could silently
disagree with the mesh's definition; the two are now reconciled and
asserted equal in ``tests/machine/test_routecache.py``.

:meth:`EventSimulator.run` is vectorized: routes come from the
per-mesh :class:`~repro.machine.routecache.RouteCache` as integer
link-id arrays, and the per-link dict probes of the original become
one array ``max`` plus one slice assignment per message over a dense
``link_free`` vector.  The original lives on as the test oracle
``simulate_python`` in ``tests/oracles/machine.py`` — the perf-core
baseline and a bit-identity cross-check.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .contention import CostParams
from .routecache import route_cache_for
from .topology import Message


class EventSimulator:
    """Simulate one communication phase; returns the makespan.

    ``mesh`` is a :class:`~repro.machine.topology.Mesh` of any rank;
    the simulator works off its route cache's integer link-id arrays.
    """

    def __init__(self, mesh, params: CostParams, cache=None):
        self.mesh = mesh
        self.params = params
        self._cache = cache

    def _route_cache(self):
        if self._cache is None:
            self._cache = route_cache_for(self.mesh)
        return self._cache

    def run(self, messages: Sequence[Message]) -> float:
        cache = self._route_cache()
        per_sender: Dict = {}
        pending: List[Tuple[float, int, int, np.ndarray]] = []
        alpha = self.params.alpha
        for order, m in enumerate(messages):
            if m.is_local:
                continue
            ids = cache.link_ids(m.src, m.dst)
            k = per_sender.get(m.src, 0)
            per_sender[m.src] = k + 1
            pending.append((alpha * k, order, m.size, ids))
        pending.sort(key=lambda t: (t[0], t[1]))
        link_free = np.zeros(cache.num_links)
        beta = self.params.beta
        gamma = self.params.gamma
        finish = 0.0
        for ready, _order, size, ids in pending:
            start = float(link_free[ids].max())
            if ready > start:
                start = ready
            done = start + beta * size + gamma * (ids.shape[0] - 2)
            link_free[ids] = done
            if done > finish:
                finish = done
        return finish

    def run_phases(self, phases: Sequence[Sequence[Message]]) -> float:
        return sum(self.run(msgs) for msgs in phases)
