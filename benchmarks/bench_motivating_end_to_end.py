"""Sections 2.3 and 3 — the worked mapping of the motivating example.

Paper's summary: "we finally obtain on the access graph 5 local
communications, one broadcast and one residual communication that can
be decomposed into two elementary communications"; the rank-deficient
access also becomes an axis-parallel broadcast under the same
unimodular rotation (the footnote's lucky coincidence).
"""

from repro.alignment import two_step_heuristic, var_node
from repro.ir import motivating_example
from repro.linalg import IntMat
from repro.machine import CM5Model, MeshModel
from repro.macrocomm import Extent, MacroKind
from repro.runtime import Folding, MappedProgram, execute

from _harness import print_table


def run():
    return two_step_heuristic(
        motivating_example(),
        m=2,
        root_allocations={var_node("a"): IntMat.identity(2)},
    )


def test_motivating_example_outcome():
    result = run()
    rows = []
    for o in result.optimized:
        desc = o.classification
        if o.macro is not None and o.classification == "macro":
            desc += f" ({o.macro.kind.value}/{o.macro.extent.value})"
        if o.decomposition is not None:
            desc += f" ({o.decomposition.num_phases} phases)"
        rows.append([o.label, desc])
    print_table(
        "Sections 2.3/3 — residual optimization outcome",
        ["access", "result"],
        [["F1/F2/F4/F5/F7", "local (5 communications)"]] + rows,
    )
    counts = result.counts()
    assert counts["local"] == 5
    f6 = result.residual_by_label("F6")
    assert f6.classification == "macro"
    assert f6.macro.kind is MacroKind.BROADCAST
    assert f6.macro.extent is Extent.PARTIAL and f6.macro.axis_parallel
    f3 = result.residual_by_label("F3")
    assert f3.classification == "decomposed"
    assert f3.decomposition.num_phases == 2
    f8 = result.residual_by_label("F8")
    assert f8.macro is not None and f8.macro.axis_parallel


def test_motivating_example_execution_cost():
    """End-to-end costing: the optimized mapping on the mesh, with
    collective hardware for the broadcasts."""
    result = run()
    machine = MeshModel(4, 4)
    folding = Folding(mesh=machine.mesh, extent=12)
    program = MappedProgram(
        mapping=result, folding=folding, params={"N": 5, "M": 5}
    )

    rep = execute(program, machine, collectives=CM5Model())
    assert rep.stats("F2").time == 0.0
    assert rep.stats("F6").macro_ops > 0
    assert rep.total_time > 0
