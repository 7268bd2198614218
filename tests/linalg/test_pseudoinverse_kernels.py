"""Tests for pseudo-inverses, kernels, Diophantine solvers and
unimodular utilities — the appendix machinery of the paper."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IntMat,
    best_left_inverse,
    integer_kernel_basis,
    is_unimodular,
    kernel_difference_directions,
    kernel_intersection_basis,
    left_kernel_basis,
    rank,
    solve_axb,
    unimodular_completion,
)

from oracles.linalg import (
    FracMat,
    compatibility_condition,
    left_pseudoinverse,
    pseudoinverse,
    right_pseudoinverse,
    solve_xf_eq_s,
    solve_xf_eq_s_family,
)
from unimodular_gen import random_unimodular

# The paper's Example 1 access matrices (Section 2.1).
F1 = IntMat([[1, 0], [0, 1], [1, 1]])  # narrow 3x2
F2 = IntMat([[1, 1]])  # flat-ish 1x2 (array c is 1-D? no: 2x2 in paper)
F5 = IntMat([[1, 0, 0], [0, 1, 0]])  # flat 2x3 (Id truncated)


class TestPseudoInverses:
    def test_right_inverse_identity(self):
        f = IntMat([[1, 0, 0], [0, 1, 0]])
        fp = right_pseudoinverse(f)
        assert FracMat.from_int(f) @ fp == FracMat.identity(2)

    def test_left_inverse_identity(self):
        f = IntMat([[1, 0], [0, 1], [1, 1]])
        fp = left_pseudoinverse(f)
        assert fp @ FracMat.from_int(f) == FracMat.identity(2)

    def test_square_dispatch(self):
        f = IntMat([[2, 1], [1, 1]])
        assert pseudoinverse(f) @ FracMat.from_int(f) == FracMat.identity(2)

    def test_flat_requires_flat(self):
        with pytest.raises(ValueError):
            right_pseudoinverse(IntMat([[1], [2]]))

    def test_narrow_requires_narrow(self):
        with pytest.raises(ValueError):
            left_pseudoinverse(IntMat([[1, 2]]))

    def test_integer_left_inverse(self):
        # G F = Id, solved transposed: F^T G^T = Id
        sol = solve_axb(F1.T, IntMat.identity(2))
        assert sol is not None
        assert sol.particular.T @ F1 == IntMat.identity(2)

    def test_integer_left_inverse_none(self):
        # F = (2, 0)^T has invariant factor 2: no integer G with G F = 1
        f = IntMat([[2], [0]])
        assert solve_axb(f.T, IntMat.identity(1)) is None
        assert best_left_inverse(f) is None

    def test_integer_right_inverse(self):
        f = IntMat([[1, 0, 1], [0, 1, 1]])
        sol = solve_axb(f, IntMat.identity(2))
        assert sol is not None
        assert f @ sol.particular == IntMat.identity(2)

    def test_integer_right_inverse_none(self):
        assert solve_axb(IntMat([[2, 0]]), IntMat.identity(1)) is None

    def test_left_inverse_family(self):
        # every G0 + M K, K a left-kernel basis, is a left inverse
        g0 = solve_axb(F1.T, IntMat.identity(2)).particular.T
        kernel = left_kernel_basis(F1)
        assert g0 @ F1 == IntMat.identity(2)
        assert len(kernel) == 1
        # any member of the family is also a left inverse
        g = g0 + IntMat([[3], [-2]]) @ kernel[0]
        assert g @ F1 == IntMat.identity(2)

    def test_best_left_inverse_small(self):
        g = best_left_inverse(F1)
        assert g is not None
        assert g @ F1 == IntMat.identity(2)
        assert g.max_abs() <= 1


class TestKernels:
    def test_kernel_basis(self):
        # F7 of the paper: kernel generated by (1, 1, -1)^T
        f7 = IntMat([[1, 0, 1], [0, 1, 1]])
        basis = integer_kernel_basis(f7)
        assert len(basis) == 1
        assert (f7 @ basis[0]).is_zero()

    def test_kernel_dim(self):
        assert len(integer_kernel_basis(IntMat([[1, 0, 1], [0, 1, 1]]))) == 1
        assert integer_kernel_basis(IntMat.identity(3)) == ()

    def test_left_kernel(self):
        f = IntMat([[1, 0], [0, 1], [1, 1]])
        basis = left_kernel_basis(f)
        assert len(basis) == 1
        assert (basis[0] @ f).is_zero()

    def test_primitive_vectors(self):
        f = IntMat([[2, -2]])
        basis = integer_kernel_basis(f)
        assert basis[0] == IntMat([[1], [1]])

    def test_intersection(self):
        a = IntMat([[1, 0, 0]])
        b = IntMat([[0, 1, 0]])
        inter = kernel_intersection_basis([a, b])
        assert len(inter) == 1
        assert inter[0] == IntMat([[0], [0], [1]])

    def test_difference_directions(self):
        # ker(a) = span(e2, e3); ker(outside) contains e3 but not e2:
        # the visible directions should be 1-dimensional.
        a = IntMat([[1, 0, 0]])
        outside = IntMat([[0, 1, 0]])
        dirs = kernel_difference_directions([a], outside)
        assert len(dirs) == 1
        assert not (outside @ dirs[0]).is_zero()

    def test_difference_all_hidden(self):
        a = IntMat([[1, 0]])
        outside = IntMat([[1, 0]])
        assert kernel_difference_directions([a], outside) == []

    def test_restrict_to_left_kernel(self):
        # diff of rank 1 in a 3-row space: its left kernel holds a
        # 2-row full-rank M with M diff = 0
        diff = IntMat([[1, 1], [1, 1], [1, 1]])  # 3x2 rank 1
        basis = left_kernel_basis(diff)
        assert len(basis) == 2
        m = IntMat([b[0] for b in basis])
        assert (m @ diff).is_zero()
        assert rank(m) == 2

    def test_restrict_impossible(self):
        assert left_kernel_basis(IntMat.identity(2)) == []


class TestDiophantine:
    def test_solve_simple(self):
        a = IntMat([[2, 3]])
        b = IntMat([[7]])
        sol = solve_axb(a, b)
        assert sol is not None
        assert (a @ sol.particular) == b
        for h in sol.homogeneous:
            assert (a @ h).is_zero()

    def test_solution_lattice(self):
        a = IntMat([[2, 3]])
        sol = solve_axb(a, IntMat([[7]]))
        x = sol.particular + 5 * sol.homogeneous[0]
        assert (a @ x) == IntMat([[7]])

    def test_no_solution(self):
        assert solve_axb(IntMat([[2, 4]]), IntMat([[3]])) is None

    def test_inconsistent_zero_row(self):
        a = IntMat([[1, 1], [1, 1]])
        assert solve_axb(a, IntMat([[0], [1]])) is None

    def test_compatibility_condition_flat(self):
        # X F = S with flat F needs S in the row space of F
        f = IntMat([[1, 0, 0], [0, 1, 0]])
        assert compatibility_condition(IntMat([[5, 7, 0]]), f)
        assert not compatibility_condition(IntMat([[5, 7, 9]]), f)
        assert solve_axb(f.T, IntMat([[5, 7, 9]]).T) is None

    def test_solve_xf_eq_s(self):
        # narrow F with integral structure
        f = IntMat([[1, 0], [0, 1], [1, 1]])
        s = IntMat([[2, 3], [4, 5]])
        x = solve_xf_eq_s(s, f)
        assert x is not None
        assert (x @ FracMat.from_int(f)) == FracMat.from_int(s)

    def test_solve_xf_eq_s_family(self):
        f = IntMat([[1, 0], [0, 1], [1, 1]])
        s = IntMat([[2, 3], [4, 5]])
        x0, proj = solve_xf_eq_s_family(s, f)
        # adding any Y @ proj stays a solution
        y = FracMat([[1, 2, 3], [0, 1, 0]])
        x = x0 + y @ proj
        assert (x @ FracMat.from_int(f)) == FracMat.from_int(s)

    def test_solve_integer_xf_eq_s(self):
        f = IntMat([[1, 0], [0, 1], [1, 1]])
        s = IntMat([[2, 3], [4, 5]])
        sol = solve_axb(f.T, s.T)  # X F = S, transposed
        assert sol is not None
        assert sol.particular.T @ f == s

    def test_solve_integer_xf_eq_s_infeasible(self):
        f = IntMat([[2], [0]])
        s = IntMat([[1]])
        assert solve_axb(f.T, s.T) is None


class TestUnimodular:
    def test_random_unimodular(self):
        rng = random.Random(42)
        for _ in range(10):
            u = random_unimodular(3, rng)
            assert is_unimodular(u)

    def test_completion(self):
        rows = IntMat([[1, 0, 1]])
        full = unimodular_completion(rows)
        assert full is not None
        assert is_unimodular(full)
        assert full.row_vector(0) == rows

    def test_completion_two_rows(self):
        rows = IntMat([[1, 0, 0], [0, 1, 1]])
        full = unimodular_completion(rows)
        assert full is not None
        assert is_unimodular(full)
        assert IntMat([full[0], full[1]]) == rows

    def test_completion_impossible(self):
        assert unimodular_completion(IntMat([[2, 0]])) is None

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_unimodular_property(self, seed):
        u = random_unimodular(2, random.Random(seed))
        assert is_unimodular(u)
