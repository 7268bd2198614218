"""Batched whole-group pricing: ``execute_group`` must be bit-identical
to K per-cell ``execute()`` runs — over rectangular *and* triangular
corpora, generated workloads, 2-D and 3-D machines.

``CommReport``/``AccessCommStats`` are plain dataclasses with default
equality, so ``report_a == report_b`` compares every float exactly —
the comparisons below are bit-identity checks, not tolerance checks.
"""

import numpy as np
import pytest

from repro import compile_nest
from repro.alignment import optimize_residuals
from repro.baselines import feautrier_align
from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import motivating_example
from repro.machine import machine_spec
from repro.runtime import MappedProgram, execute, execute_group

#: 2-D grid cells shared by the property tests: two machine models,
#: square and non-square meshes
CELLS_2D = [
    ("paragon", (4, 4)),
    ("paragon", (3, 2)),
    ("cm5", (4, 4)),
    ("cm5", (2, 2)),
]
CELLS_3D = [
    ("t3d", (2, 2, 2)),
    ("t3d", (3, 2, 2)),
]


def baseline_of(compiled):
    """The Feautrier baseline mapping of a compile, built the way the
    campaign runner builds it: over the compile's own scheduled nest."""
    return optimize_residuals(
        feautrier_align(compiled.nest, compiled.mapping.alignment.m),
        compiled.schedules,
        allow_rotations=False,
    )


def compile_cells(workload, m, grid, baseline=False):
    """Compile a workload once and fold it onto every (machine, mesh)
    cell — the campaign's compile-key group invariant.  With
    ``baseline`` the baseline mapping's cells on the same foldings
    follow the heuristic's, as in a group whose baselines all miss the
    price memo."""
    nest = workload.resolve()
    schedules = workload.resolve_schedules(nest)
    params = dict(workload.params)
    compiled = compile_nest(
        nest,
        m=m,
        schedules=schedules,
        params=params,
        check_legality=workload.check_legality,
        name=workload.name,
    )
    cells = []
    for name, mesh in grid:
        spec = machine_spec(name)
        machine = spec.make(mesh)
        cells.append(
            (
                compiled.program(machine, params),
                machine,
                spec.make_collectives(mesh),
            )
        )
    if baseline:
        mapping = baseline_of(compiled)
        cells += [
            (MappedProgram(mapping, p.folding, params), machine, coll)
            for p, machine, coll in cells
        ]
    return cells


def assert_group_matches_per_cell(cells):
    batched = execute_group(cells)
    for (program, machine, coll), got in zip(cells, batched):
        want = execute(program, machine, collectives=coll)
        assert got == want, (machine, program.folding.mesh.dims)


class TestBitIdentityRect:
    @pytest.mark.parametrize(
        "workload", corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_group_matches_per_cell(
            compile_cells(workload, 2, CELLS_2D)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_2d(self, seed):
        for workload in generate_workloads(seed, 3):
            assert_group_matches_per_cell(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestBitIdentityTriangular:
    @pytest.mark.parametrize(
        "workload", triangular_corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_group_matches_per_cell(
            compile_cells(workload, 2, CELLS_2D)
        )

    def test_generated_2d(self):
        for workload in generate_triangular_workloads(0, 3):
            assert_group_matches_per_cell(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestBitIdentity3D:
    def test_generated_t3d(self):
        for workload in generate_workloads(0, 2):
            assert_group_matches_per_cell(
                compile_cells(workload, 3, CELLS_3D)
            )

    def test_triangular_t3d(self):
        for workload in generate_triangular_workloads(0, 2):
            assert_group_matches_per_cell(
                compile_cells(workload, 3, CELLS_3D)
            )


class TestBitIdentityMixed:
    """The same corpora priced in mixed calls: every heuristic cell and
    the baseline's cells on the same foldings in one call."""

    @pytest.mark.parametrize(
        "workload", corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_group_matches_per_cell(
            compile_cells(workload, 2, CELLS_2D, baseline=True)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_2d(self, seed):
        for workload in generate_workloads(seed, 3):
            assert_group_matches_per_cell(
                compile_cells(workload, 2, CELLS_2D, baseline=True)
            )

    @pytest.mark.parametrize(
        "workload", triangular_corpus(), ids=lambda w: w.name
    )
    def test_triangular_corpus_2d(self, workload):
        assert_group_matches_per_cell(
            compile_cells(workload, 2, CELLS_2D, baseline=True)
        )

    def test_generated_t3d(self):
        workloads = generate_workloads(0, 2)
        for workload in workloads + generate_triangular_workloads(0, 2):
            assert_group_matches_per_cell(
                compile_cells(workload, 3, CELLS_3D, baseline=True)
            )


class TestMixedMappings:
    """One call prices the heuristic and the baseline cells of one
    compile together, field for field like per-cell ``execute``."""

    def test_mixed_call_covers_twins_and_macro_lanes(self):
        """The corpus' mixed calls hold twin cells (paragon and cm5 on
        one mesh) of both mappings and CM-5 collectives cells; the two
        mappings classify some label differently, so per-mapping tables
        matter."""
        seen = set()
        for workload in corpus():
            cells = compile_cells(workload, 2, CELLS_2D, baseline=True)
            heur, base = cells[0][0].mapping, cells[-1][0].mapping
            reports = execute_group(cells)
            for (p, _, coll), rep in zip(cells, reports):
                for st in rep.per_access.values():
                    if coll is not None and st.macro_ops:
                        seen.add("macro-" + ("heur" if p.mapping is heur else "base"))
            for label in reports[0].per_access:
                k = len(CELLS_2D)
                if (
                    reports[0].per_access[label].classification
                    != reports[k].per_access[label].classification
                ):
                    seen.add("classes-differ")
            assert heur is not base
            assert heur.schedules is base.schedules
        assert {"macro-heur", "classes-differ"} <= seen

    def test_only_one_mapping_on_the_exact_lane(self, monkeypatch):
        """The baseline's placements forced onto the exact (object)
        lane, the heuristic's left on int64: the mixed call still
        equals per-cell pricing of an unforced compile, and the lane
        counter rises once (one mapping, however many foldings)."""
        from repro.obs import metrics
        from repro.runtime import mapping as runtime_mapping

        workload = corpus()[0]
        want = [
            execute(p, m, collectives=c)
            for p, m, c in compile_cells(workload, 2, CELLS_2D, True)
        ]
        cells = compile_cells(workload, 2, CELLS_2D, baseline=True)
        base = cells[-1][0].mapping
        forced = {id(m) for m in base.alignment.allocations.values()}
        proven = runtime_mapping.int64_proven

        def int64_proven(points, *stages):
            if any(id(mat) in forced for mat, _ in stages):
                return False
            return proven(points, *stages)

        monkeypatch.setattr(runtime_mapping, "int64_proven", int64_proven)
        lane = metrics.counter("runtime.comm_batches.fallbacks")
        before = lane.value
        assert execute_group(cells) == want
        assert lane.value - before == 1
        for p, _, _ in cells:
            for b in p.comm_batches():
                assert b.sender_virtual.dtype == np.int64


class TestGroupContract:
    def test_empty_group(self):
        assert execute_group([]) == []

    def test_single_cell_delegates_to_execute(self):
        compiled = compile_nest(motivating_example(), m=2)
        params = {"N": 8, "M": 8}
        spec = machine_spec("paragon")
        machine = spec.make((4, 4))
        cell = (
            compiled.program(machine, params),
            machine,
            spec.make_collectives((4, 4)),
        )
        [got] = execute_group([cell])
        assert got == execute(cell[0], cell[1], collectives=cell[2])

    def test_mismatched_mappings_rejected(self):
        params = {"N": 8, "M": 8}
        spec = machine_spec("paragon")
        machine = spec.make((4, 4))
        cells = []
        for _ in range(2):  # two separate compiles: distinct mappings
            compiled = compile_nest(motivating_example(), m=2)
            cells.append(
                (
                    compiled.program(machine, params),
                    machine,
                    spec.make_collectives((4, 4)),
                )
            )
        with pytest.raises(ValueError, match="share one ScheduledNest"):
            execute_group(cells)

    def test_heuristic_and_baseline_of_one_compile_accepted(self):
        compiled = compile_nest(motivating_example(), m=2)
        params = {"N": 8, "M": 8}
        spec = machine_spec("cm5")
        machine = spec.make((4, 4))
        heur = compiled.program(machine, params)
        base = MappedProgram(baseline_of(compiled), heur.folding, params)
        cells = [
            (p, machine, spec.make_collectives((4, 4))) for p in (heur, base)
        ]
        got = execute_group(cells)
        assert got == [execute(p, m, collectives=c) for p, m, c in cells]
        assert got[0] != got[1]

    def test_mismatched_mesh_ranks_rejected(self):
        nest = motivating_example()
        compiled = compile_nest(nest, m=2)
        params = {"N": 8, "M": 8}
        flat = compiled.program(machine_spec("paragon").make((4, 4)), params)
        cube = compile_nest(nest, m=3, schedules=compiled.schedules)
        t3d = machine_spec("t3d").make((2, 2, 2))
        cells = [
            (flat, machine_spec("paragon").make((4, 4)), None),
            (cube.program(t3d, params), t3d, None),
        ]
        with pytest.raises(ValueError, match="one mesh rank"):
            execute_group(cells)

    def test_mismatched_params_rejected(self):
        compiled = compile_nest(motivating_example(), m=2)
        spec = machine_spec("paragon")
        machine = spec.make((4, 4))
        cells = [
            (compiled.program(machine, {"N": 8, "M": 8}), machine, None),
            (compiled.program(machine, {"N": 9, "M": 9}), machine, None),
        ]
        with pytest.raises(ValueError, match="size bindings"):
            execute_group(cells)
