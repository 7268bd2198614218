"""Vectorized runtime core vs the per-element Python baselines.

The dense-array communication extraction (`MappedProgram.comm_batches`
feeding the `np.unique`-based `execute`) must be **bit-identical** to
the original per-event path (`comm_events_python` / `execute_python`)
— on the paper's seed scenarios and on randomized generated workloads
(the campaign generator's full shape vocabulary: mixed depths, perfect
and non-perfect nests, unimodular / selection / rank-deficient
accesses).  Same old-vs-new pattern as the machine layer's oracles in
``tests/oracles/machine.py``.
"""

import pytest

from repro import compile_nest
from repro.campaign import generate_workloads
from repro.ir import motivating_example, platonoff_example
from repro.machine import CM5Model, MeshModel, machine_spec
from repro.runtime import count_nonlocal_virtual, execute, execute_python

from oracles.events import comm_events

PARAMS = {"N": 3, "M": 3}


def _compiled_program(nest_or_src, m=2, machine=None, params=None, **kw):
    params = params or PARAMS
    c = compile_nest(nest_or_src, m=m, params=params, **kw)
    machine = machine or MeshModel(2, 2)
    return c, c.program(machine, params), machine


class TestSeedScenarios:
    def test_motivating_example_bit_identical(self):
        _c, prog, machine = _compiled_program(motivating_example())
        assert comm_events(prog) == prog.comm_events_python()
        assert execute(prog, machine) == execute_python(prog, machine)

    def test_motivating_with_collectives_bit_identical(self):
        _c, prog, machine = _compiled_program(motivating_example())
        cm5 = CM5Model()
        assert execute(prog, machine, collectives=cm5) == execute_python(
            prog, machine, collectives=cm5
        )

    def test_platonoff_example_bit_identical(self):
        _c, prog, machine = _compiled_program(
            platonoff_example(), params={"n": 3}
        )
        assert comm_events(prog) == prog.comm_events_python()
        assert execute(prog, machine) == execute_python(prog, machine)

    def test_payload_scaling_bit_identical(self):
        _c, prog, machine = _compiled_program(motivating_example())
        assert execute(prog, machine, payload=7) == execute_python(
            prog, machine, payload=7
        )

    def test_3d_path_bit_identical(self):
        spec = machine_spec("t3d")
        machine = spec.make((2, 2, 2))
        src = (
            "array a(3), b(3)\n"
            "for i = 0..N:\n"
            "  for j = 0..N:\n"
            "    for k = 0..N:\n"
            "      S: a[i, j, k] = f(b[j, i, k])\n"
        )
        c = compile_nest(src, m=3, params={"N": 3})
        prog = c.program(machine, {"N": 3})
        assert comm_events(prog) == prog.comm_events_python()
        assert execute(prog, machine) == execute_python(prog, machine)


class TestGeneratedWorkloads:
    """Property check over the campaign generator's corpus: every
    (deterministic) generated nest prices identically on both paths."""

    @pytest.fixture(scope="class")
    def workloads(self):
        return generate_workloads(seed=7, count=12)

    def test_comm_events_bit_identical(self, workloads):
        for wl in workloads:
            nest = wl.resolve()
            c = compile_nest(nest, m=2, params=dict(wl.params), name=wl.name)
            prog = c.program(MeshModel(2, 2), dict(wl.params))
            assert comm_events(prog) == prog.comm_events_python(), wl.name

    def test_execute_bit_identical(self, workloads):
        cm5 = CM5Model()
        for wl in workloads:
            nest = wl.resolve()
            c = compile_nest(nest, m=2, params=dict(wl.params), name=wl.name)
            for mesh in ((2, 2), (4, 4)):
                machine = MeshModel(*mesh)
                prog = c.program(machine, dict(wl.params))
                assert execute(prog, machine) == execute_python(
                    prog, machine
                ), (wl.name, mesh)
                assert execute(prog, machine, collectives=cm5) == (
                    execute_python(prog, machine, collectives=cm5)
                ), (wl.name, mesh)

    def test_empty_domain_bit_identical(self):
        """Bindings that empty a loop range: both executors produce the
        same (empty) per-access map."""
        c = compile_nest(motivating_example(), m=2)
        machine = MeshModel(2, 2)
        prog = c.program(machine, {"N": 0, "M": 0})
        assert execute(prog, machine) == execute_python(prog, machine)
        assert comm_events(prog) == prog.comm_events_python()

    def test_count_nonlocal_virtual_matches_python(self, workloads):
        for wl in workloads[:6]:
            nest = wl.resolve()
            c = compile_nest(nest, m=2, params=dict(wl.params), name=wl.name)
            prog = c.program(MeshModel(2, 2), dict(wl.params))
            ref = {}
            for ev in prog.comm_events_python():
                if ev.sender_virtual != ev.receiver_virtual:
                    ref[ev.access_label] = ref.get(ev.access_label, 0) + 1
            assert count_nonlocal_virtual(prog) == ref, wl.name


class TestMemoization:
    def test_comm_events_memoized_on_instance(self):
        _c, prog, _machine = _compiled_program(motivating_example())
        first = comm_events(prog)
        assert comm_events(prog) is first

    def test_execute_and_count_share_batches(self):
        _c, prog, machine = _compiled_program(motivating_example())
        execute(prog, machine)
        first = prog.comm_batches()
        count_nonlocal_virtual(prog)
        assert prog.comm_batches() is first

    def test_rotation_invalidates_cached_batches(self):
        """A component rotation after pricing must not leave stale
        virtual coordinates in any cache: both executors agree before
        and after."""
        from repro.linalg import IntMat

        c = compile_nest(motivating_example(), m=2, params=PARAMS)
        machine = MeshModel(2, 2)
        prog = c.program(machine, PARAMS)
        execute(prog, machine)  # populate mapping + program caches
        al = c.mapping.alignment
        root = next(iter(set(al.component_root_of.values())))
        al.rotate_component(root, IntMat([[0, 1], [1, 0]]))
        rotated = c.program(machine, PARAMS)
        assert execute(rotated, machine) == execute_python(rotated, machine)
        # the old program instance also recomputes instead of serving
        # pre-rotation arrays
        assert execute(prog, machine) == execute_python(prog, machine)

    def test_virtual_stage_shared_across_foldings(self):
        """Two programs over the same mapping (different meshes — the
        campaign's price-many case) share one virtual-stage cache entry
        on the mapping."""
        c = compile_nest(motivating_example(), m=2, params=PARAMS)
        p1 = c.program(MeshModel(2, 2), PARAMS)
        p1.comm_batches()
        cache = c.mapping.__dict__.get("_virtual_batch_cache")
        assert cache is not None and len(cache) == 1
        p2 = c.program(MeshModel(4, 4), PARAMS)
        p2.comm_batches()
        assert len(c.mapping.__dict__["_virtual_batch_cache"]) == 1

    def test_distinct_programs_price_identically(self):
        """Memoization never leaks across different foldings."""
        c = compile_nest(motivating_example(), m=2, params=PARAMS)
        m_small, m_big = MeshModel(2, 2), MeshModel(4, 4)
        r_small = execute(c.program(m_small, PARAMS), m_small)
        r_big = execute(c.program(m_big, PARAMS), m_big)
        assert r_small == execute_python(c.program(m_small, PARAMS), m_small)
        assert r_big == execute_python(c.program(m_big, PARAMS), m_big)


class TestDomainStage:
    """The domain stage (``repro.ir.domain.domain_stage``) is computed
    once per scheduled nest and size bindings and shared by the
    legality check of a compile and the extraction of the heuristic
    and the baseline mapping."""

    @staticmethod
    def _mappings():
        from repro.alignment import optimize_residuals
        from repro.baselines import feautrier_align

        c = compile_nest(motivating_example(), m=2, params=PARAMS)
        base = optimize_residuals(
            feautrier_align(c.nest, 2), c.schedules, allow_rotations=False
        )
        return c, base

    def test_mappings_of_one_compile_share_the_domain_stage(self):
        from repro.runtime import MappedProgram

        c, base = self._mappings()
        heur = c.program(MeshModel(2, 2), PARAMS)
        other = MappedProgram(base, heur.folding, PARAMS)
        h, b = heur.comm_batches().stage, other.comm_batches().stage
        assert h is not b
        assert h.domain is b.domain
        assert not (h.virtual == b.virtual).all()

    def test_point_matrix_once_per_statement_per_group(self, monkeypatch):
        """A cold compile-key group — the compile with its legality
        check, then the heuristic and baseline pricing of every cell —
        enumerates each statement with accesses once."""
        from repro.campaign import (
            clear_baseline_cache,
            clear_compile_cache,
            default_spec,
            run_task_group,
        )
        from repro.campaign import runner
        from repro.campaign.sweep import group_by_compile_key
        from repro.ir.domain import Domain

        spec = default_spec(
            seed=0, nests=2, include_corpus=False,
            machines=("paragon", "cm5"), meshes=((4, 4), (2, 2)),
        )
        clear_compile_cache()
        clear_baseline_cache()
        calls = []
        point_matrix = Domain.point_matrix

        def counted(domain, params):
            calls.append(domain)
            return point_matrix(domain, params)

        for group in group_by_compile_key(spec.expand()):
            assert len(group) == 4 and group[0].workload.check_legality
            calls.clear()
            monkeypatch.setattr(Domain, "point_matrix", counted)
            results = run_task_group(group)
            monkeypatch.undo()
            assert all(r.status == "ok" for r in results)
            assert results[0].compile_cache_hit is False
            assert not any(r.baseline_cache_hit for r in results)
            cw, hit = runner._compile_for_task(group[0])
            assert hit
            active = [s for s in cw.compiled.nest.statements if s.accesses]
            assert sorted(map(id, calls)) == sorted(id(s.domain) for s in active)

    def test_legality_and_extraction_in_either_order(self):
        """``schedule_violations`` gives the same messages before and
        after the extraction on one scheduled nest, whichever of the
        two filled the stage."""
        from repro.ir import (
            parse_nest,
            schedule_violations,
            trivial_schedules,
        )
        from repro.ir.domain import DOMAIN_CACHE

        from oracles.legality import schedule_violations_python

        machine = MeshModel(2, 2)
        nest = parse_nest(
            "array a(2), b(2)\n"
            "for i = 1..N:\n"
            "  for j = 1..N:\n"
            "    S: a[i, j] = f(a[i - 1, j], b[j, i])\n"
        )
        want = schedule_violations_python(trivial_schedules(nest), PARAMS)
        assert want  # theta = 0 puts every dependent pair on one step
        legality_first, extraction_first = (
            trivial_schedules(nest), trivial_schedules(nest)
        )
        got = [schedule_violations(legality_first, PARAMS)]
        for sched in (legality_first, extraction_first):
            c = compile_nest(
                nest, m=2, schedules=sched, params=PARAMS,
                check_legality=False,
            )
            prog = c.program(machine, PARAMS)
            assert execute(prog, machine) == execute_python(prog, machine)
            got.append(schedule_violations(sched, PARAMS))
            [stage] = sched.__dict__[DOMAIN_CACHE].values()
            assert prog.comm_batches().stage.domain is stage
        assert got == [want] * 3

    def test_rotation_invalidates_only_the_placement_stage(self):
        from repro.linalg import IntMat
        from repro.runtime import MappedProgram
        from repro.ir.domain import DOMAIN_CACHE

        c, base = self._mappings()
        machine = MeshModel(2, 2)
        heur = c.program(machine, PARAMS)
        other = MappedProgram(base, heur.folding, PARAMS)
        h, b = heur.comm_batches().stage, other.comm_batches().stage
        domain = c.schedules.__dict__[DOMAIN_CACHE]
        [stage] = domain.values()
        al = c.mapping.alignment
        root = next(iter(set(al.component_root_of.values())))
        al.rotate_component(root, IntMat([[0, 1], [1, 0]]))
        rotated = c.program(machine, PARAMS)
        h2 = rotated.comm_batches().stage
        assert h2 is not h and h2.domain is h.domain is stage
        [after] = domain.values()
        assert after is stage
        assert other.comm_batches().stage is b
        assert execute(rotated, machine) == execute_python(rotated, machine)

    def test_domain_stage_stays_out_of_pickles(self):
        import pickle

        from repro.ir.domain import DOMAIN_CACHE

        c, _ = self._mappings()
        execute(c.program(MeshModel(2, 2), PARAMS), MeshModel(2, 2))
        assert c.schedules.__dict__[DOMAIN_CACHE]
        copy = pickle.loads(pickle.dumps(c))
        assert DOMAIN_CACHE not in copy.schedules.__dict__
        assert copy.schedules == c.schedules
        assert copy.mapping.schedules is copy.schedules

    def test_batches_are_built_on_demand(self):
        """Pricing reads the stacked arrays only; the per-access views
        are made when the extraction is iterated, each time afresh."""
        _c, prog, machine = _compiled_program(motivating_example())
        execute(prog, machine)
        extraction = prog.comm_batches()
        assert "batches" not in vars(extraction)
        first, again = list(extraction), list(extraction)
        assert len(first) == len(extraction) == len(again)
        assert all(x is not y for x, y in zip(first, again))
        assert [b.access_label for b in first] == list(
            extraction.stage.domain.labels
        )


class TestFoldArray:
    def test_fold_array_matches_scalar_fold(self):
        import numpy as np

        from repro.machine import Mesh
        from repro.runtime import Folding

        for schemes in (None, ("block", "grouped"), ("cyclic_block", "cyclic")):
            kw = {}
            if schemes == ("block", "grouped"):
                kw = {"scheme_kw": ({}, {"k": 3})}
            elif schemes == ("cyclic_block", "cyclic"):
                kw = {"scheme_kw": ({"block": 2}, {})}
            f = Folding(
                mesh=Mesh(3, 4), extent=12,
                **({"schemes": schemes, **kw} if schemes else {}),
            )
            virt = np.array(
                [[v, w] for v in range(-15, 16, 3) for w in range(-5, 20, 4)],
                dtype=np.int64,
            )
            folded = f.fold_array(virt)
            for row, out in zip(virt.tolist(), folded.tolist()):
                assert tuple(out) == f.fold(tuple(row))

    def test_fold_array_shape_mismatch_rejected(self):
        import numpy as np

        from repro.machine import Mesh
        from repro.runtime import Folding

        f = Folding(mesh=Mesh(2, 2), extent=4)
        with pytest.raises(ValueError, match="expected"):
            f.fold_array(np.zeros((3, 3), dtype=np.int64))
