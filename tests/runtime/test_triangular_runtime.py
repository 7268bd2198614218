"""Triangular domains through the vectorized runtime core.

The dense int64 matmul path of PR 4 must survive polyhedral domains
unchanged: non-rectangular nests enumerate as bounding box + membership
mask, and the vectorized executor stays bit-identical to the
per-element Python reference on every shape.
"""

import pytest

from repro import compile_nest
from repro.campaign import generate_triangular_workloads, triangular_corpus
from repro.machine import MeshModel
from repro.runtime import execute, execute_python

from oracles.events import comm_events

TRI_SRC = """array a(2), b(2), c(2)
for i = 0..N:
  for j = i..N:
    for k = 0..N:
      S: c[i, j] = f(a[i, k], b[k, j], c[i, j])
"""


class TestTriangularExtraction:
    def test_event_count_matches_domain_size(self):
        params = {"N": 4}
        c = compile_nest(TRI_SRC, m=2, params=params, name="tri")
        prog = c.program(MeshModel(4, 4), params)
        stmt = c.nest.statements[0]
        n = stmt.domain_size(params)
        assert n == sum(
            1
            for i in range(5)
            for j in range(i, 5)
            for k in range(5)
        )
        for batch in prog.comm_batches():
            assert batch.n == n

    def test_batches_match_python_events(self):
        params = {"N": 3}
        c = compile_nest(TRI_SRC, m=2, params=params, name="tri")
        prog = c.program(MeshModel(2, 2), params)
        assert comm_events(prog) == prog.comm_events_python()

    def test_execute_bit_identical_2d(self):
        params = {"N": 4}
        c = compile_nest(TRI_SRC, m=2, params=params, name="tri")
        machine = MeshModel(4, 4)
        prog = c.program(machine, params)
        assert execute(prog, machine) == execute_python(prog, machine)

    def test_execute_bit_identical_3d(self):
        params = {"N": 3}
        c = compile_nest(TRI_SRC, m=3, params=params, name="tri3")
        machine = MeshModel(2, 2, 2)
        prog = c.program(machine, params)
        assert execute(prog, machine) == execute_python(prog, machine)


class TestTriangularCorpusRuntime:
    @pytest.mark.parametrize("wl", triangular_corpus(), ids=lambda w: w.name)
    def test_corpus_bit_identical(self, wl):
        nest = wl.resolve()
        params = dict(wl.params)
        schedules = wl.resolve_schedules(nest)
        compiled = compile_nest(
            nest, m=2, schedules=schedules, params=params,
            check_legality=wl.check_legality, name=wl.name,
        )
        machine = MeshModel(2, 2)
        prog = compiled.program(machine, params)
        assert execute(prog, machine) == execute_python(prog, machine)
        assert comm_events(prog) == prog.comm_events_python()


class TestGeneratedTriangularRuntime:
    def test_generated_workloads_bit_identical(self):
        machine = MeshModel(2, 2)
        for wl in generate_triangular_workloads(seed=2, count=5):
            nest = wl.resolve()
            params = dict(wl.params)
            compiled = compile_nest(nest, m=2, params=params, name=wl.name)
            prog = compiled.program(machine, params)
            assert execute(prog, machine) == execute_python(prog, machine), wl.name
