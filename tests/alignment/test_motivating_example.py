"""End-to-end validation of the paper's motivating example (Sections
2 and 3) on our reconstruction: access graph shape, maximum branching,
residual classification, broadcast rotation and 2-factor decomposition.
"""

import pytest

from repro.alignment import (
    build_access_graph,
    stmt_node,
    two_step_heuristic,
    var_node,
)
from repro.ir import motivating_example, trivial_schedules
from repro.ir.examples import F2, F6
from repro.linalg import IntMat
from repro.macrocomm import Extent, MacroKind


@pytest.fixture(scope="module")
def nest():
    return motivating_example()


@pytest.fixture(scope="module")
def result(nest):
    # the paper picks M_a freely; identity reproduces Section 3's walk
    return two_step_heuristic(
        nest, m=2, root_allocations={var_node("a"): IntMat.identity(2)}
    )


class TestAccessGraph:
    def test_seven_edges(self, nest):
        ag = build_access_graph(nest, m=2)
        # F2, F3 are square-unimodular (2 directed edges each), F5, F7
        # square unimodular (2 each), F1, F4 narrow (1 each), F6 flat
        # (1): 10 directed edges representing 7 paper edges.
        labels = {e.payload.ref.label for e in ag.graph.edges()}
        assert labels == {"F1", "F2", "F3", "F4", "F5", "F6", "F7"}

    def test_f8_excluded(self, nest):
        ag = build_access_graph(nest, m=2)
        assert [r.label for r in ag.excluded] == ["F8"]

    def test_weights_are_ranks(self, nest):
        ag = build_access_graph(nest, m=2)
        by_label = {}
        for e in ag.graph.edges():
            by_label.setdefault(e.payload.ref.label, set()).add(e.weight)
        assert by_label["F5"] == {3}
        assert by_label["F7"] == {3}
        for lab in ("F1", "F2", "F3", "F4", "F6"):
            assert by_label[lab] == {2}


class TestBranching:
    def test_five_edges_weight_12(self, result):
        g = result.alignment.access_graph.graph
        chosen = result.alignment.branching
        assert len(chosen) == 5
        assert g.total_weight(chosen) == 12

    def test_max_weight_edges_zeroed(self, result):
        # both weight-3 accesses (F5, F7) are local
        assert "F5" in result.alignment.local_labels
        assert "F7" in result.alignment.local_labels

    def test_five_local_two_graph_residuals(self, result):
        assert result.alignment.local_labels == {"F1", "F2", "F4", "F5", "F7"}
        labels = {r.ref.label for r in result.alignment.residuals}
        assert labels == {"F3", "F6", "F8"}

    def test_single_component_root(self, result):
        # the paper's Figure 3 roots the branching at vertex a; our
        # Edmonds implementation may pick the tied weight-12 branching
        # rooted at S1 (the paper itself says "a *possible* maximum
        # branching") — either way, the whole graph is one component
        # with a unique input vertex
        roots = {
            result.alignment.component_root_of[n]
            for n in result.alignment.component_root_of
        }
        assert len(roots) == 1
        assert roots <= {var_node("a"), stmt_node("S1")}


class TestStepTwo:
    def test_f6_becomes_axis_parallel_broadcast(self, result):
        opt = result.residual_by_label("F6")
        assert opt.classification == "macro"
        assert opt.macro.kind is MacroKind.BROADCAST
        assert opt.macro.extent is Extent.PARTIAL
        assert opt.macro.axis_parallel
        assert opt.macro.p == 1

    def test_component_was_rotated(self, result):
        # pre-rotation M_S2 v = (1,1)^T is not axis parallel, so the
        # heuristic must have spent the component rotation
        assert result.rotations, "expected a unimodular rotation"

    def test_f3_decomposes_into_two_elementary(self, result):
        opt = result.residual_by_label("F3")
        assert opt.classification == "decomposed"
        assert opt.decomposition is not None
        assert opt.decomposition.num_phases == 2

    def test_f8_lucky_broadcast(self, result):
        # the rank-deficient access also ends up an axis-parallel
        # partial broadcast after the same rotation (paper's footnote)
        opt = result.residual_by_label("F8")
        assert opt.macro is not None
        assert opt.macro.kind is MacroKind.BROADCAST
        assert opt.macro.extent is Extent.PARTIAL
        assert opt.macro.axis_parallel

    def test_summary_counts(self, result):
        counts = result.counts()
        assert counts["local"] == 5
        assert counts.get("macro", 0) >= 2
        assert counts.get("decomposed", 0) == 1

    def test_allocations_full_rank(self, result):
        from repro.linalg import rank

        for node, m in result.alignment.allocations.items():
            assert rank(m) == min(m.shape), f"allocation of {node} lost rank"

    def test_local_equations_hold(self, result, nest):
        al = result.alignment
        for stmt, acc in nest.all_accesses():
            if (acc.label or "") in al.local_labels:
                ms = al.allocation_of_stmt(stmt.name)
                mx = al.allocation_of_array(acc.array)
                assert mx @ acc.F == ms


class TestPreRotationGeometry:
    def test_f6_kernel_direction(self):
        from repro.linalg import integer_kernel_basis

        basis = integer_kernel_basis(F6)
        assert len(basis) == 1
        assert basis[0] == IntMat.col([0, 1, -1])

    def test_pre_rotation_some_direction_not_axis(self, nest):
        """Before step 2's rotation at least one residual broadcast
        direction is not parallel to an axis (Section 3's situation
        that forces the unimodular V), and after the rotation all of
        them are."""
        from repro.alignment import align
        from repro.alignment.heuristic import _detect_macro
        from repro.ir import trivial_schedules
        from repro.macrocomm import Extent

        al = align(nest, 2, root_allocations={var_node("a"): IntMat.identity(2)})
        sched = trivial_schedules(nest)
        partials = [
            _detect_macro(r, sched)
            for r in al.residuals
        ]
        partials = [
            p for p in partials if p is not None and p.extent is Extent.PARTIAL
        ]
        assert partials, "expected partial broadcasts among the residuals"
        assert any(not p.axis_parallel for p in partials)
