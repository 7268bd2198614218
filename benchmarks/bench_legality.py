"""Schedule legality — vectorized witness enumeration vs per-element Python.

Not a paper artefact: the compile-side twin of ``bench_runtime_exec.py``.
``BENCH_profile.json`` identified ``schedule_is_legal``'s bounded
dependence enumeration as the dominant compile-time cost (over half the
campaign compile stage); the polyhedral-domain refactor replaced it with
dense domain point matrices, matmul subscripts/times and ``np.unique``
label intersections.  This gate measures

* :func:`repro.ir.schedule_violations` (vectorized) vs
  ``schedule_violations_python`` (the per-element test oracle in
  ``tests/oracles/legality.py``) on the reference legality workload — the motivating example
  at ``N = M = 5`` under an outer-sequential schedule, the regime
  campaign compilation lives in — with a >= 5x floor, and

* asserts **bit-identity** (message strings and order) on the paper's
  seed nests, a triangular kernel, and 50 generated workloads (25
  rectangular + 25 triangular) under trivial, outer-sequential and
  inferred schedules.

Bit-identity gates, and so does the 5x floor: the ratio measured
541–978x over ten runs on a 2-vCPU host, far past twice its floor, so
it holds on any run.  Results go to ``BENCH_legality.json``.
"""

import os
import sys

import pytest

from repro.campaign import generate_triangular_workloads, generate_workloads
from repro.ir import (
    infer_schedules,
    motivating_example,
    outer_sequential_schedules,
    parse_nest,
    platonoff_example,
    schedule_is_legal,
    schedule_violations,
    trivial_schedules,
)

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
from oracles.legality import schedule_violations_python  # noqa: E402

from _harness import (  # noqa: E402
    best_of,
    check_speedup_floor,
    print_table,
    record_bench,
)

PARAMS = {"N": 5, "M": 5}
REPEATS = 2
SPEEDUP_TARGET = 5.0

TRI_LU_SRC = """array A(2)
for k = 1..N:
  for i = k..N:
    for j = k..N:
      S: A[i, j] = f(A[i, j], A[i, k], A[k, j])
"""


@pytest.fixture(scope="module")
def reference():
    """The reference legality workload: a legal schedule, so both paths
    scan every witness candidate (the worst case and the common one —
    campaign compilation mostly checks schedules that *are* legal)."""
    nest = motivating_example()
    sched = outer_sequential_schedules(nest, 1)
    assert schedule_is_legal(sched, PARAMS)
    return sched


@pytest.fixture(scope="module")
def measurements(reference):
    t_py = best_of(
        lambda: schedule_violations_python(reference, PARAMS, 10), REPEATS
    )
    t_vec = best_of(lambda: schedule_violations(reference, PARAMS, 10), REPEATS)
    events = sum(
        s.domain_size(PARAMS) for s in reference.nest.statements
    )
    return {
        "params": dict(PARAMS),
        "schedule": "outer:1",
        "domain_points": events,
        "legality_python_s": t_py,
        "legality_vectorized_s": t_vec,
        "legality_speedup": t_py / t_vec,
    }


def test_legality_speedup(measurements):
    r = measurements
    print_table(
        "Schedule legality — per-element python vs vectorized",
        ["what", "domain pts", "python (s)", "vectorized (s)", "speedup"],
        [
            [
                "schedule_violations", r["domain_points"],
                r["legality_python_s"], r["legality_vectorized_s"],
                r["legality_speedup"],
            ],
        ],
    )
    check_speedup_floor(
        r["legality_speedup"], SPEEDUP_TARGET, "legality checker"
    )


def _assert_identical(sched, params, limit=50):
    got = schedule_violations(sched, params, limit)
    want = schedule_violations_python(sched, params, limit)
    assert got == want, (got[:2], want[:2])
    return len(got)


def test_seed_corpus_bit_identical():
    """Seed nests + the LU triangle, under several schedules."""
    cases = [
        (motivating_example(), {"N": 3, "M": 3}),
        (platonoff_example(), {"n": 3}),
        (parse_nest(TRI_LU_SRC, name="lu"), {"N": 4}),
    ]
    for nest, params in cases:
        for sched in (
            trivial_schedules(nest),
            outer_sequential_schedules(nest, 1),
            infer_schedules(nest, params),
        ):
            _assert_identical(sched, params)


def test_generated_corpus_bit_identical():
    """50 generated workloads (25 rectangular + 25 triangular): the two
    paths agree exactly under inferred and trivial schedules."""
    workloads = generate_workloads(seed=21, count=25)
    workloads += generate_triangular_workloads(seed=21, count=25)
    assert len(workloads) == 50
    checked = 0
    for wl in workloads:
        nest = wl.resolve()
        params = dict(wl.params)
        _assert_identical(infer_schedules(nest, params), params)
        _assert_identical(trivial_schedules(nest), params)
        checked += 1
    assert checked == 50


def test_record_legality(measurements):
    path = record_bench(
        "legality",
        {
            "workload": "motivating_example outer:1",
            "targets": {"legality_speedup": SPEEDUP_TARGET},
            "bit_identity_corpus": {
                "seed_nests": 3,
                "generated_rect": 25,
                "generated_triangular": 25,
            },
            "reference": measurements,
        },
    )
    assert path.endswith("BENCH_legality.json")
