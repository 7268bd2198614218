"""Every exactness guard that drops to a slower exact path counts it.

Each test forces one guard, checks that its ``*.fallbacks`` counter
rises by exactly the number of fallbacks taken (and not at all on the
fast path), and that the fallback's answer still equals an independent
reference.  In the runtime extraction and the legality checker the
"fallback" is the exact lane: the same vectorized algorithm on object
arrays of Python ints.
"""

import dataclasses

import numpy as np

from repro import compile_nest
from repro.ir import (
    NestBuilder,
    ScheduledNest,
    motivating_example,
    outer_sequential_schedules,
    schedule_violations,
    trivial_schedules,
)
from repro.ir import domain
from repro.ir.loopnest import Statement
from repro.machine import MeshModel
from repro.machine.backend import unique_rows
from repro.obs import metrics
from repro.runtime import execute, execute_python

from oracles.legality import schedule_violations_python


def _counter(name):
    """A callable returning how much ``name`` rose since this call."""
    counter = metrics.counter(name)
    start = counter.value
    return lambda: counter.value - start


class TestUniqueRows:
    def test_wide_rows_count_once_per_call(self):
        rose = _counter("machine.unique_rows.fallbacks")
        narrow = np.array([[1, 2], [1, 2], [0, 5]], dtype=np.int64)
        unique_rows(narrow)
        unique_rows(np.empty((0, 3), dtype=np.int64))
        assert rose() == 0
        # 3 columns x 41 bits of span cannot pack into one int64 key
        wide = np.array(
            [[2**40, 1, 2**40], [2**40, 1, 2**40], [0, 0, 1]],
            dtype=np.int64,
        )
        uniq, counts, inverse = unique_rows(wide, return_inverse=True)
        assert rose() == 1
        want_u, want_i, want_c = np.unique(
            wide, axis=0, return_inverse=True, return_counts=True
        )
        assert np.array_equal(uniq, want_u)
        assert np.array_equal(counts, want_c)
        assert np.array_equal(inverse, np.asarray(want_i).ravel())


def _recurrence():
    b = NestBuilder("dep")
    b.array("x", 1)
    b.statement(
        "S",
        [("i", 1, 4)],
        writes=[("x", [[1]], [0])],
        reads=[("x", [[1]], [-1])],
    )
    return b.build()


class TestLegality:
    def test_each_exit_counts_once(self, monkeypatch):
        rose = _counter("ir.legality.fallbacks")
        nest = _recurrence()
        parallel = trivial_schedules(nest)  # theta = 0
        sequential = outer_sequential_schedules(nest, outer=1)  # theta = 1
        want = {
            id(sn): schedule_violations(sn, {}, 10)
            for sn in (parallel, sequential)
        }
        assert rose() == 0

        # a depth-0 statement (no accesses, so no new violations and
        # no schedule) rides the vectorized path: no count
        flat = ScheduledNest(
            nest=dataclasses.replace(
                nest, statements=nest.statements + [Statement("S0", [])]
            ),
            schedules=parallel.schedules,
        )
        assert schedule_violations(flat, {}, 10) == want[id(parallel)]
        assert want[id(parallel)] == schedule_violations_python(flat, {}, 10)
        assert rose() == 0

        # points 1..4: the schedule bound is 4 * |theta|, the read's
        # subscript bound 4 + |-1| = 5
        monkeypatch.setattr(domain, "INT64_SAFE", 4)
        got = schedule_violations(sequential, {}, 10)  # schedule exit
        assert got == want[id(sequential)]
        assert rose() == 1
        monkeypatch.setattr(domain, "INT64_SAFE", 5)
        got = schedule_violations(parallel, {}, 10)  # access exit
        assert got == want[id(parallel)]
        assert got == schedule_violations_python(parallel, {}, 10)
        assert rose() == 2


class TestCommBatches:
    def test_unprovable_bound_takes_the_exact_lane(self, monkeypatch):
        machine = MeshModel(2, 2)
        params = {"N": 3, "M": 3}
        rose = _counter("runtime.comm_batches.fallbacks")
        ref = compile_nest(motivating_example(), m=2, params=params)
        want = execute(ref.program(machine, params), machine)
        assert rose() == 0

        monkeypatch.setattr(domain, "INT64_SAFE", 1)
        compiled = compile_nest(motivating_example(), m=2, params=params)
        prog = compiled.program(machine, params)
        got = execute(prog, machine)
        prog.comm_batches()  # memoized on the program: no second count
        assert rose() == 1
        assert got == want == execute_python(prog, machine)
        for b in prog.comm_batches():
            for arr in (b.times, b.sender_virtual, b.sender):
                assert arr.dtype == np.int64
