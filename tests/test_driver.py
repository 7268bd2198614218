"""Tests for the end-to-end compiler façade."""

import pytest

from repro import CompiledNest, compile_nest
from repro.ir import motivating_example, outer_sequential_schedules, trivial_schedules
from repro.machine import CM5Model, MeshModel

from oracles.events import comm_events

EX1 = """
array a(2), b(3), c(3)
for i = 1..N:
  for j = 1..M:
    S1: b[i, j, 0] = g1(a[i+j, j+1], a[i-j, i+1], c[j, i, 0])
    for k = 1..N+M:
      S2: b[i, j, k] = g2(a[i+j+k+1, j+k])
      S3: c[i, j, j+k] = g3(a[i+j, i+j+1])
"""

RECURRENCE = """
array x(1)
for i = 1..5:
  S: x[i] = f(x[i-1])
"""


class TestCompileNest:
    def test_from_source(self):
        c = compile_nest(EX1, m=2)
        assert isinstance(c, CompiledNest)
        assert c.mapping.counts()["local"] == 5
        assert "on_processor" in c.spmd

    def test_from_ir(self):
        c = compile_nest(motivating_example(), m=2)
        assert c.mapping.counts()["local"] == 5

    def test_explicit_schedules(self):
        nest = motivating_example()
        c = compile_nest(nest, m=2, schedules=trivial_schedules(nest))
        assert c.schedules.schedule_of("S1").theta.is_zero()

    def test_inferred_schedule_sequentializes_recurrence(self):
        c = compile_nest(RECURRENCE, m=1)
        assert not c.schedules.schedule_of("S").theta.is_zero()

    def test_illegal_schedule_rejected(self):
        from repro.ir import parse_nest

        nest = parse_nest(RECURRENCE)
        with pytest.raises(ValueError):
            compile_nest(
                nest, m=1, schedules=trivial_schedules(nest)
            )

    def test_legality_check_skippable(self):
        from repro.ir import parse_nest

        nest = parse_nest(RECURRENCE)
        c = compile_nest(
            nest, m=1, schedules=trivial_schedules(nest), check_legality=False
        )
        assert c is not None

    def test_run_shortcut(self):
        c = compile_nest(EX1, m=2)
        machine = MeshModel(2, 2)
        rep = c.run(machine, params={"N": 3, "M": 3})
        assert rep.total_time > 0

    def test_run_with_collectives(self):
        c = compile_nest(EX1, m=2)
        machine = MeshModel(2, 2)
        rep = c.run(machine, params={"N": 3, "M": 3}, collectives=CM5Model())
        macro_stats = [
            s for s in rep.per_access.values() if s.classification == "macro"
        ]
        assert any(s.macro_ops > 0 for s in macro_stats)

    def test_summary(self):
        c = compile_nest(EX1, m=2)
        assert "5 local" in c.summary()


PERM3 = """array a(3), b(3)
for i = 0..7:
  for j = 0..7:
    for k = 0..7:
      S: a[i, j, k] = f(b[j, k, i])
"""


class TestMesh3DEndToEnd:
    """The m = 3 (T3D) case runs through the whole pipeline: compile,
    fold onto a cube, extract messages, price with PhaseReports."""

    def test_m3_smoke(self):
        from repro.runtime import CommReport

        c = compile_nest(PERM3, m=3)
        rep = c.run(MeshModel(2, 2, 2), params={})
        assert isinstance(rep, CommReport)
        assert rep.total_time >= 0
        # folded coordinates are 3-tuples
        program = c.program(MeshModel(2, 2, 2), params={})
        ev = comm_events(program)[0]
        assert len(ev.sender) == 3 and len(ev.receiver) == 3

    def test_m3_nonlocal_nest_prices_messages(self):
        src = """array a(3), b(3)
for i = 0..5:
  for j = 0..5:
    for k = 0..5:
      S: a[i, j, k] = f(b[i+1, j+2, k])
"""
        c = compile_nest(src, m=3)
        rep = c.run(MeshModel(2, 2, 2), params={})
        assert rep.total_time >= 0 and rep.total_messages >= 0

    def test_rank_mismatch_is_friendly(self):
        c = compile_nest(PERM3, m=2)
        with pytest.raises(ValueError, match="must match"):
            c.run(MeshModel(2, 2, 2), params={})
        c3 = compile_nest(PERM3, m=3)
        with pytest.raises(ValueError, match="must match"):
            c3.run(MeshModel(2, 2), params={})

    def test_registry_machine_runs(self):
        from repro.machine import make_machine

        c = compile_nest(PERM3, m=3)
        rep = c.run(make_machine("t3d", (2, 2, 2)), params={})
        assert rep.total_time >= 0
