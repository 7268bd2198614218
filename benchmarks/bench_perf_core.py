"""Perf core — the contention kernel and the vectorized event
simulator vs the per-element Python baselines.

Not a paper artefact: this is the performance benchmark the vectorized
mesh-simulation core is held to.  It measures old-vs-new throughput of

* the analytic contention model (``MeshModel.time_phase``, a
  one-segment launch of the contention kernel, vs
  ``phase_time_python``), up to a 32x32 mesh with 10k messages;
* the event-driven wormhole simulator (``EventSimulator.run`` vs
  ``simulate_python``) on the same workloads;
* the contention kernel (``phase_times_segmented``) on five
  launch shapes, from a dense 8x8 launch to a sparse 64x64 one with
  one message per phase (timed alone, checked phase by phase against
  ``phase_time_python``);

(the baselines are the test oracles of ``tests/oracles/machine.py``)

and asserts the two implementations are **bit-identical**, both on the
random large workloads and on the paper's seed scenarios (the affine
patterns of Figure 7 and the L/U decomposition phases of Table 2).
Results go to ``BENCH_perf_core.json`` via ``record_bench``.

The speedups are records, not gates: over ten runs on a 2-vCPU host
the 32x32 analytic ratio ranged 6.2–9.0x and the event-simulator ratio
5.4–12.5x, too close to the 5x and 3x the vectorization was sized for
to make a single-sample floor, and the oracles' own cost is not
pinned.  What the vectorized core relies on is gated instead, as a
count: on each workload's pattern a ``time_phase`` call makes no
route-cache lookup at all (the kernel gathers no route), and a warm
``EventSimulator.run`` call makes no route-cache miss and exactly one
cache hit per remote message.
"""

import os
import random
import sys

import numpy as np
import pytest

from repro.distribution import BlockDistribution, CyclicDistribution, Distribution2D
from repro.linalg import IntMat, cache_stats
from repro.machine import (
    CostParams,
    EventSimulator,
    Mesh,
    MeshModel,
    Message,
    RouteCache,
    affine_pattern,
    decomposed_phases,
    phase_times_segmented,
    route_cache_for,
)

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
from oracles.machine import phase_time_python, simulate_python  # noqa: E402

from _harness import best_of, print_table, record_bench  # noqa: E402

PARAMS = CostParams(alpha=20.0, beta=1.0, gamma=0.5)

#: (mesh side, message count) workloads; the last row is the 32x32,
#: 10k-message pattern the vectorization work was sized on.
WORKLOADS = [(8, 1_000), (16, 4_000), (32, 10_000)]


def random_pattern(mesh: Mesh, nmsg: int, seed: int):
    rng = random.Random(seed)
    nodes = list(mesh.nodes())
    out = []
    for _ in range(nmsg):
        src, dst = rng.sample(nodes, 2)
        out.append(Message(src=src, dst=dst, size=rng.randint(1, 16)))
    return out


def measure_workloads():
    rows = []
    for side, nmsg in WORKLOADS:
        machine = MeshModel(side, side, params=PARAMS)
        mesh = machine.mesh
        msgs = random_pattern(mesh, nmsg, seed=side)
        # the shared cache of this mesh: a route gather by time_phase
        # would go through it
        cache = route_cache_for(mesh)
        sim = EventSimulator(mesh, PARAMS, cache=cache)

        fast_report = machine.time_phase(msgs)
        slow_report = phase_time_python(mesh, msgs, PARAMS)
        assert fast_report == slow_report, "vectorized analytic model diverged"
        t_fast = best_of(lambda: machine.time_phase(msgs))
        t_slow = best_of(lambda: phase_time_python(mesh, msgs, PARAMS))

        fast_make = sim.run(msgs)  # warm
        slow_make = simulate_python(sim, msgs)
        assert fast_make == slow_make, "vectorized event simulator diverged"
        t_fast_ev = best_of(lambda: sim.run(msgs))
        t_slow_ev = best_of(lambda: simulate_python(sim, msgs))

        rows.append(
            {
                "mesh": f"{side}x{side}",
                "messages": nmsg,
                "remote_messages": sum(m.src != m.dst for m in msgs),
                "time_phase_route_lookups": route_lookups(
                    cache, lambda: machine.time_phase(msgs)
                ),
                "warm_eventsim_route_lookups": route_lookups(
                    cache, lambda: sim.run(msgs)
                ),
                "analytic_python_s": t_slow,
                "analytic_vectorized_s": t_fast,
                "analytic_speedup": t_slow / t_fast,
                "eventsim_python_s": t_slow_ev,
                "eventsim_vectorized_s": t_fast_ev,
                "eventsim_speedup": t_slow_ev / t_fast_ev,
                "route_cache": cache.stats(),
            }
        )
    return rows


#: (mesh side, message count, phase count) launches of the segmented
#: kernel: dense ones, then two sparse ones of 1-2.5 messages per phase
LAUNCHES = [
    (8, 1_000, 10),
    (16, 4_000, 50),
    (32, 10_000, 100),
    (32, 200, 200),
    (64, 500, 500),
]


def measure_launches():
    rows = []
    for side, nmsg, n_phases in LAUNCHES:
        mesh = Mesh(side, side)
        rng = np.random.default_rng(side * n_phases)
        senders = rng.integers(0, side, (nmsg, 2))
        receivers = rng.integers(0, side, (nmsg, 2))
        sizes = rng.integers(1, 17, nmsg)
        phase_ids = rng.integers(0, n_phases, nmsg)

        def launch():
            return phase_times_segmented(
                mesh, senders, receivers, sizes, phase_ids, PARAMS,
                n_phases=n_phases,
            )

        report = launch()
        for p in range(n_phases):
            m = phase_ids == p
            msgs = [
                Message(src=tuple(a), dst=tuple(b), size=z)
                for a, b, z in zip(
                    senders[m].tolist(), receivers[m].tolist(),
                    sizes[m].tolist(),
                )
            ]
            want = phase_time_python(mesh, msgs, PARAMS)
            assert report.report(p) == want, (
                f"segmented kernel diverged on {side}x{side} phase {p}"
            )
        rows.append(
            {
                "mesh": f"{side}x{side}",
                "messages": nmsg,
                "phases": n_phases,
                "segmented_ms": best_of(launch, repeats=5) * 1e3,
            }
        )
    return rows


def route_lookups(cache: RouteCache, fn) -> dict:
    """Route-cache hits and misses of one call of ``fn``."""
    hits, misses = cache.hits, cache.misses
    fn()
    return {"hits": cache.hits - hits, "misses": cache.misses - misses}


@pytest.fixture(scope="module")
def workload_rows():
    return measure_workloads()


@pytest.fixture(scope="module")
def launch_rows():
    return measure_launches()


def test_warm_calls_hit_the_route_cache(workload_rows):
    """The analytic model looks up no route at all; a warm simulator
    call builds no route: zero misses and one hit per remote
    message."""
    for r in workload_rows:
        assert r["time_phase_route_lookups"] == {"hits": 0, "misses": 0}, (
            r["mesh"]
        )
        want = {"hits": r["remote_messages"], "misses": 0}
        assert r["warm_eventsim_route_lookups"] == want, r["mesh"]


def test_analytic_model_speedup(workload_rows):
    print_table(
        "Perf core — analytic contention model (old vs vectorized)",
        ["mesh", "msgs", "python (s)", "vectorized (s)", "speedup"],
        [
            [
                r["mesh"],
                r["messages"],
                r["analytic_python_s"],
                r["analytic_vectorized_s"],
                r["analytic_speedup"],
            ]
            for r in workload_rows
        ],
    )
    top = workload_rows[-1]
    assert top["mesh"] == "32x32" and top["messages"] >= 10_000


def test_event_simulator_speedup(workload_rows):
    print_table(
        "Perf core — event-driven simulator (old vs vectorized)",
        ["mesh", "msgs", "python (s)", "vectorized (s)", "speedup"],
        [
            [
                r["mesh"],
                r["messages"],
                r["eventsim_python_s"],
                r["eventsim_vectorized_s"],
                r["eventsim_speedup"],
            ]
            for r in workload_rows
        ],
    )


def test_segmented_kernel_launches(launch_rows):
    """The kernel on each launch shape, bit-identical to the per-phase
    ``phase_time_python`` (checked while measuring); the wall times are
    records."""
    print_table(
        "Perf core — segmented kernel launches",
        ["mesh", "msgs", "phases", "segmented (ms)"],
        [
            [r["mesh"], r["messages"], r["phases"], r["segmented_ms"]]
            for r in launch_rows
        ],
    )
    assert [(r["messages"], r["phases"]) for r in launch_rows] == [
        (nmsg, n_phases) for _side, nmsg, n_phases in LAUNCHES
    ]


def seed_scenario_phases():
    """The paper's seed scenarios: Figure 7's general affine pattern and
    the decomposed L/U phases of Table 2, on the 3x4 example mesh."""
    mesh = Mesh(3, 4)
    dist = Distribution2D(
        CyclicDistribution(12, 3), BlockDistribution(12, 4)
    )
    t_mat = IntMat([[1, 1], [0, 1]])
    lower = IntMat([[1, 0], [1, 1]])
    upper = IntMat([[1, 1], [0, 1]])
    general = affine_pattern(dist, t_mat, merge=False)
    merged = affine_pattern(dist, t_mat, merge=True)
    phases = decomposed_phases(dist, [upper, lower])
    return mesh, [general, merged] + phases


def test_seed_scenarios_bit_identical():
    """Old and new simulators agree exactly on the paper's scenarios."""
    mesh, phases = seed_scenario_phases()
    machine = MeshModel(*mesh.dims, params=PARAMS)
    sim = EventSimulator(mesh, PARAMS)
    for msgs in phases:
        assert machine.time_phase(msgs) == phase_time_python(
            mesh, msgs, PARAMS
        )
        assert sim.run(msgs) == simulate_python(sim, msgs)


def test_record_perf_core(workload_rows, launch_rows):
    """Persist the measurements (plus cache hit rates) for perf tracking."""
    # exercise the linalg cache so its hit rates are meaningful
    a = IntMat([[1, 1], [0, 1]])
    from repro.linalg import right_hermite, smith_normal_form

    for _ in range(3):
        right_hermite(a)
        smith_normal_form(a)
    path = record_bench(
        "perf_core",
        {
            "params": {"alpha": PARAMS.alpha, "beta": PARAMS.beta, "gamma": PARAMS.gamma},
            "workloads": workload_rows,
            "segmented_launches": launch_rows,
            "linalg_cache": cache_stats(),
        },
    )
    assert path.endswith("BENCH_perf_core.json")
