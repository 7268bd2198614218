"""Perf core — vectorized RouteCache simulators vs the per-element
Python baselines.

Not a paper artefact: this is the performance benchmark the vectorized
mesh-simulation core is held to.  It measures old-vs-new throughput of

* the analytic contention model (``phase_time`` vs
  ``phase_time_python``) — target >= 5x on a 32x32 mesh with 10k
  messages;
* the event-driven wormhole simulator (``EventSimulator.run`` vs
  ``simulate_python``) — target >= 3x on the same workload;

(the baselines are the test oracles of ``tests/oracles/machine.py``)

and asserts the two implementations are **bit-identical**, both on the
random large workloads and on the paper's seed scenarios (the affine
patterns of Figure 7 and the L/U decomposition phases of Table 2).
Results go to ``BENCH_perf_core.json`` via ``record_bench``.

Bit-identity always gates.  The wall-clock speedup floors are enforced
only when ``REPRO_PERF_STRICT=1`` (``run_all.py --timed`` sets it) so a
loaded CI runner cannot flake the pipeline on scheduler noise; in the
default fast mode a shortfall is reported as a warning and recorded in
the JSON artifact instead.
"""

import os
import random
import sys
import time
import warnings

import pytest

from repro.distribution import BlockDistribution, CyclicDistribution, Distribution2D
from repro.linalg import IntMat, cache_stats
from repro.machine import (
    CostParams,
    EventSimulator,
    Mesh,
    Message,
    RouteCache,
    affine_pattern,
    decomposed_phases,
    phase_time,
)

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
from oracles.machine import phase_time_python, simulate_python  # noqa: E402

from _harness import print_table, record_bench

PARAMS = CostParams(alpha=20.0, beta=1.0, gamma=0.5)
REPEATS = 3

#: (mesh side, message count) workloads; the last row carries the
#: acceptance thresholds of the vectorization work.
WORKLOADS = [(8, 1_000), (16, 4_000), (32, 10_000)]
ANALYTIC_TARGET = 5.0
EVENTSIM_TARGET = 3.0
STRICT = os.environ.get("REPRO_PERF_STRICT", "") == "1"


def check_speedup_floor(measured: float, target: float, what: str) -> None:
    """Fail in strict mode, warn otherwise (CI noise tolerance)."""
    if measured >= target:
        return
    msg = f"{what} speedup {measured:.1f}x below the {target}x floor"
    if STRICT:
        pytest.fail(msg)
    warnings.warn(msg + " (non-strict mode: recorded, not failed)")


def random_pattern(mesh: Mesh, nmsg: int, seed: int):
    rng = random.Random(seed)
    nodes = list(mesh.nodes())
    out = []
    for _ in range(nmsg):
        src, dst = rng.sample(nodes, 2)
        out.append(Message(src=src, dst=dst, size=rng.randint(1, 16)))
    return out


def best_of(fn, repeats: int = REPEATS) -> float:
    """Smallest wall time of ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_workloads():
    rows = []
    for side, nmsg in WORKLOADS:
        mesh = Mesh(side, side)
        msgs = random_pattern(mesh, nmsg, seed=side)
        cache = RouteCache(mesh)
        sim = EventSimulator(mesh, PARAMS, cache=cache)

        fast_report = phase_time(mesh, msgs, PARAMS, cache=cache)  # warm
        slow_report = phase_time_python(mesh, msgs, PARAMS)
        assert fast_report == slow_report, "vectorized analytic model diverged"
        t_fast = best_of(lambda: phase_time(mesh, msgs, PARAMS, cache=cache))
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


@pytest.fixture(scope="module")
def workload_rows():
    return measure_workloads()


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
    check_speedup_floor(
        top["analytic_speedup"], ANALYTIC_TARGET, "analytic contention model"
    )


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
    top = workload_rows[-1]
    check_speedup_floor(
        top["eventsim_speedup"], EVENTSIM_TARGET, "event-driven simulator"
    )


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
    sim = EventSimulator(mesh, PARAMS)
    for msgs in phases:
        assert phase_time(mesh, msgs, PARAMS) == phase_time_python(
            mesh, msgs, PARAMS
        )
        assert sim.run(msgs) == simulate_python(sim, msgs)


def test_record_perf_core(workload_rows):
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
            "targets": {
                "analytic_speedup": ANALYTIC_TARGET,
                "eventsim_speedup": EVENTSIM_TARGET,
            },
            "linalg_cache": cache_stats(),
        },
    )
    assert path.endswith("BENCH_perf_core.json")
