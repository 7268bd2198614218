"""Property-based tests on the two-step heuristic: invariants that must
hold for *any* affine loop nest, exercised on a randomized family."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import (
    align,
    build_access_graph,
    is_branching,
    maximum_branching,
    stmt_node,
    two_step_heuristic,
    var_node,
)
from repro.decomp import verify_factors
from repro.ir import NestBuilder, trivial_schedules
from repro.linalg import IntMat, rank


def _random_full_rank(rng: random.Random, rows: int, cols: int) -> IntMat:
    for _ in range(60):
        cand = IntMat(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        if rank(cand) == min(rows, cols):
            return cand
    return IntMat(
        [[1 if i == j else 0 for j in range(cols)] for i in range(rows)]
    )


def random_nest(seed: int):
    rng = random.Random(seed)
    b = NestBuilder(f"prop{seed}")
    arrays = {}
    for name in ("x", "y", "z"):
        arrays[name] = rng.choice([2, 3])
        b.array(name, arrays[name])
    n_stmts = rng.randint(1, 3)
    for si in range(n_stmts):
        depth = rng.choice([2, 3])
        loops = [("ijk"[d] + str(si), 0, "N") for d in range(depth)]
        target = rng.choice(list(arrays))
        reads = []
        for _ in range(rng.randint(1, 2)):
            src = rng.choice(list(arrays))
            reads.append(
                (src, _random_full_rank(rng, arrays[src], depth).tolist(), None)
            )
        b.statement(
            f"S{si}",
            loops,
            writes=[(target, _random_full_rank(rng, arrays[target], depth).tolist(), None)],
            reads=reads,
        )
    return b.build()


class TestAlignmentInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_allocations_full_rank_or_best(self, seed):
        nest = random_nest(seed)
        al = align(nest, 2)
        for node, m in al.allocations.items():
            # allocation rank is min(m, node dimension)
            assert rank(m) == min(m.shape)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_local_labels_satisfy_equation(self, seed):
        nest = random_nest(seed)
        al = align(nest, 2)
        for stmt, acc in nest.all_accesses():
            if (acc.label or "") in al.local_labels:
                ms = al.allocation_of_stmt(stmt.name)
                mx = al.allocation_of_array(acc.array)
                assert mx @ acc.F == ms

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_branching_valid_and_residual_partition(self, seed):
        nest = random_nest(seed)
        al = align(nest, 2)
        g = al.access_graph.graph
        assert is_branching(g, al.branching)
        labels = {acc.label for _s, acc in nest.all_accesses()}
        residual_labels = {r.ref.label for r in al.residuals}
        assert al.local_labels | residual_labels == labels
        assert not (al.local_labels & residual_labels)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_step2_decompositions_verify(self, seed):
        nest = random_nest(seed)
        result = two_step_heuristic(nest, m=2)
        for o in result.optimized:
            if o.decomposition is not None and o.dataflow is not None:
                t = o.dataflow
                if o.decomposition.conjugator is not None:
                    from repro.linalg import unimodular_inverse

                    m = o.decomposition.conjugator
                    t = m @ t @ unimodular_inverse(m)
                assert verify_factors(t, o.decomposition.factors)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rotations_are_unimodular(self, seed):
        from repro.linalg import is_unimodular

        nest = random_nest(seed)
        result = two_step_heuristic(nest, m=2)
        for v in result.rotations.values():
            assert is_unimodular(v)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rotation_never_loses_locality(self, seed):
        """Rotating a component preserves every local equation (the
        whole point of the unimodular freedom)."""
        nest = random_nest(seed)
        result = two_step_heuristic(nest, m=2)
        al = result.alignment
        for stmt, acc in nest.all_accesses():
            if (acc.label or "") in al.local_labels:
                assert al.allocation_of_array(acc.array) @ acc.F == \
                    al.allocation_of_stmt(stmt.name)


class TestStep1cInvariants:
    def test_deficient_rank_constraint_used(self):
        """A nest engineered so two parallel paths differ by a rank-1
        matrix: step 1c(ii) must zero out both."""
        b = NestBuilder("deficient")
        b.array("x", 3).array("y", 3)
        # S reads x twice with F and F' where F - F' has rank 1 and a
        # 2-dimensional left kernel
        f1 = [[1, 0], [0, 1], [0, 0]]
        f2 = [[1, 0], [0, 1], [1, 1]]
        b.statement(
            "S",
            [("i", 0, "N"), ("j", 0, "N")],
            writes=[("y", [[1, 0], [0, 1], [0, 0]], None, "W")],
            reads=[("x", f1, None, "R1"), ("x", f2, None, "R2")],
        )
        nest = b.build()
        al = align(nest, 2)
        # both reads can be local simultaneously: M_x rows in the left
        # kernel of (F1 - F2) = [[0,0],[0,0],[-1,-1]]
        assert {"R1", "R2"} <= al.local_labels


@pytest.mark.parametrize("seed", [10, 475, 1752])
def test_heuristic_finishes_where_the_word_search_once_hung(seed):
    """These nests reach ``shortest_decomposition`` with residual
    matrices like ``[[-57, -32], [98, 55]]``, on which a plain BFS over
    six-factor words ran for tens of seconds at GBs of RSS."""
    start = time.perf_counter()
    result = two_step_heuristic(random_nest(seed), 2)
    assert time.perf_counter() - start < 5.0
    plans = [o.decomposition for o in result.optimized if o.decomposition]
    assert plans
    for o in result.optimized:
        if o.decomposition is not None and o.decomposition.strategy == "search":
            assert verify_factors(o.dataflow, o.decomposition.factors)
