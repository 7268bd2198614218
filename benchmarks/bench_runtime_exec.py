"""Runtime execution core — vectorized vs per-element Python pricing.

Not a paper artefact: the performance benchmark the vectorized runtime
executor is held to (the PR-4 twin of ``bench_perf_core.py``).  The
reference pricing workload is the paper's motivating example at
``N = M = 14`` on a 4x4 Paragon mesh — ~28k element communications per
execution, the regime campaign pricing lives in.  It measures

* ``execute`` (stacked extraction arrays + one ``unique_rows`` group-by)
  vs ``execute_python`` (one ``CommEvent`` object per element, dict
  re-bucketing) — target >= 5x on the **cold** path: every timed run
  gets a fresh program *and* a cleared mapping-level virtual-batch
  cache, so the full extraction is inside the measurement.  The
  warm-cache time (the campaign's price-many regime, where the virtual
  stage is shared across grid cells) is recorded separately;
* ``comm_events`` (vectorized extraction, events materialized by the
  test helper ``tests/oracles/events.py``) vs ``comm_events_python``;

and asserts the two executors are **bit-identical** on the reference
workload, the paper's seed scenarios and a slice of the campaign
generator corpus.  Results go to ``BENCH_runtime_exec.json``.

Bit-identity gates, and so does the 5x floor: the cold ratio measured
158–271x over ten runs on a 2-vCPU host, far past twice its floor, so
it holds on any run.
"""

import os
import sys

import pytest

from repro import compile_nest
from repro.campaign import generate_workloads
from repro.ir import motivating_example, platonoff_example
from repro.machine import CM5Model, MeshModel
from repro.runtime import execute, execute_python
from repro.runtime.mapping import DOMAIN_CACHE

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
from oracles.events import comm_events  # noqa: E402

from _harness import (  # noqa: E402
    best_of,
    check_speedup_floor,
    print_table,
    record_bench,
)

PARAMS = {"N": 14, "M": 14}
MESH = (4, 4)
EXEC_TARGET = 5.0


@pytest.fixture(scope="module")
def reference():
    """Compiled reference workload + machine (compile cost excluded
    from every measurement below).

    Compilation uses the driver's small default legality bounds — the
    *pricing* bounds ``PARAMS`` only enter at program construction,
    exactly how the golden 2-D regression runs the same nest."""
    compiled = compile_nest(motivating_example(), m=2)
    machine = MeshModel(*MESH)
    return compiled, machine


@pytest.fixture(scope="module")
def measurements(reference):
    compiled, machine = reference

    def cold():
        """Fresh program *and* cleared virtual and domain caches: the
        timed call pays the whole extraction, not just fold + group-by."""
        compiled.mapping.__dict__.pop("_virtual_batch_cache", None)
        compiled.schedules.__dict__.pop(DOMAIN_CACHE, None)
        return compiled.program(machine, PARAMS)

    # warm + bit-identity on the reference workload itself
    vec_report = execute(cold(), machine)
    py_report = execute_python(cold(), machine)
    assert vec_report == py_report, "vectorized executor diverged"

    t_vec = best_of(lambda: execute(cold(), machine))
    t_py = best_of(lambda: execute_python(cold(), machine))
    t_events_vec = best_of(lambda: comm_events(cold()))
    t_events_py = best_of(lambda: cold().comm_events_python())

    # the price-many regime: virtual stage cached on the mapping (only
    # the per-program fold + group-by runs), as in campaign grid cells
    warm_prog = compiled.program(machine, PARAMS)
    execute(warm_prog, machine)
    t_warm = best_of(
        lambda: execute(compiled.program(machine, PARAMS), machine)
    )

    events = len(cold().comm_events_python())
    return {
        "params": dict(PARAMS),
        "mesh": "x".join(str(d) for d in MESH),
        "events": events,
        "execute_python_s": t_py,
        "execute_vectorized_s": t_vec,
        "execute_speedup": t_py / t_vec,
        "execute_vectorized_warm_s": t_warm,
        "execute_warm_speedup": t_py / t_warm,
        "comm_events_python_s": t_events_py,
        "comm_events_vectorized_s": t_events_vec,
        "comm_events_speedup": t_events_py / t_events_vec,
        "total_time": vec_report.total_time,
        "total_messages": vec_report.total_messages,
        "total_volume": vec_report.total_volume,
    }


def test_execute_speedup(measurements):
    r = measurements
    print_table(
        "Runtime exec — per-element python vs vectorized",
        ["what", "events", "python (s)", "vectorized (s)", "speedup"],
        [
            [
                "execute (cold)", r["events"], r["execute_python_s"],
                r["execute_vectorized_s"], r["execute_speedup"],
            ],
            [
                "execute (warm)", r["events"], r["execute_python_s"],
                r["execute_vectorized_warm_s"], r["execute_warm_speedup"],
            ],
            [
                "comm_events", r["events"], r["comm_events_python_s"],
                r["comm_events_vectorized_s"], r["comm_events_speedup"],
            ],
        ],
    )
    assert r["events"] >= 20_000  # the reference workload is non-trivial
    check_speedup_floor(
        r["execute_speedup"], EXEC_TARGET, "runtime executor"
    )


def test_seed_scenarios_bit_identical():
    """Both executors agree exactly on the paper's example nests, with
    and without hardware collectives."""
    cm5 = CM5Model()
    cases = [
        (motivating_example(), {"N": 3, "M": 3}),
        (platonoff_example(), {"n": 3}),
    ]
    for nest, params in cases:
        compiled = compile_nest(nest, m=2, params=params)
        for mesh in ((2, 2), (4, 4)):
            machine = MeshModel(*mesh)
            prog = compiled.program(machine, params)
            assert execute(prog, machine) == execute_python(prog, machine)
            assert execute(prog, machine, collectives=cm5) == execute_python(
                prog, machine, collectives=cm5
            )
            assert comm_events(prog) == prog.comm_events_python()


def test_generated_corpus_bit_identical():
    """A slice of the campaign generator corpus prices identically."""
    machine = MeshModel(2, 2)
    for wl in generate_workloads(seed=3, count=6):
        nest = wl.resolve()
        compiled = compile_nest(
            nest, m=2, params=dict(wl.params), name=wl.name
        )
        prog = compiled.program(machine, dict(wl.params))
        assert execute(prog, machine) == execute_python(prog, machine), wl.name


def test_record_runtime_exec(measurements):
    path = record_bench(
        "runtime_exec",
        {
            "workload": "motivating_example",
            "targets": {"execute_speedup": EXEC_TARGET},
            "reference": measurements,
        },
    )
    assert path.endswith("BENCH_runtime_exec.json")
