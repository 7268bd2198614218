"""Hypothesis property tests on the Diophantine and pseudo-inverse
machinery: completeness and correctness of solution lattices, one-sided
inverse identities, compatibility conditions."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.linalg import (
    FracMat,
    IntMat,
    compatibility_condition,
    has_integer_solution,
    integer_kernel_basis,
    integer_left_inverse,
    integer_right_inverse,
    left_inverse_family,
    pseudoinverse,
    rank,
    solve_axb,
    solve_integer_xf_eq_s,
    solve_xf_eq_s,
)

from oracles.linalg import rank as fracmat_rank


def small_matrix(rows, cols, bound=4):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(IntMat)


class TestSolveAxb:
    @given(small_matrix(2, 3), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_constructed_solutions_verify(self, a, xs):
        """b := A x is always solvable and the particular solution
        reproduces b."""
        x = IntMat.col(xs)
        b = a @ x
        sol = solve_axb(a, b)
        assert sol is not None
        assert a @ sol.particular == b
        for h in sol.homogeneous:
            assert (a @ h).is_zero()

    @given(small_matrix(2, 3), st.lists(st.integers(-3, 3), min_size=3, max_size=3),
           st.lists(st.integers(-2, 2), min_size=0, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_lattice_samples_are_solutions(self, a, xs, coeffs):
        x = IntMat.col(xs)
        b = a @ x
        sol = solve_axb(a, b)
        assume(sol is not None)
        cs = (coeffs + [0] * len(sol.homogeneous))[: len(sol.homogeneous)]
        y = sol.sample(cs)
        assert a @ y == b

    def test_unsolvable_detected(self):
        assert not has_integer_solution(IntMat([[2, 0], [0, 2]]), IntMat.col([1, 0]))


class TestOneSidedInverses:
    @given(small_matrix(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_right_inverse_identity(self, f):
        assume(rank(f) == 2)
        r = integer_right_inverse(f)
        if r is not None:
            assert f @ r == IntMat.identity(2)

    @given(small_matrix(3, 2))
    @settings(max_examples=60, deadline=None)
    def test_left_inverse_identity(self, f):
        assume(rank(f) == 2)
        g = integer_left_inverse(f)
        if g is not None:
            assert g @ f == IntMat.identity(2)

    @given(small_matrix(3, 2), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_family_members_are_inverses(self, f, ys):
        assume(rank(f) == 2)
        fam = left_inverse_family(f)
        assume(fam is not None)
        g0, kernel = fam
        # every G = G0 + M K (rows of K span the left kernel) works
        g = g0
        for kb in kernel:
            g = g + IntMat([[ys[0]], [ys[1]]]) @ kb
        assert g @ f == IntMat.identity(2)

    @given(small_matrix(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_moore_penrose_identity(self, f):
        assume(rank(f) == 2)
        fp = pseudoinverse(f)
        assert fp @ FracMat.from_int(f) == FracMat.identity(2)


class TestXFEqS:
    @given(small_matrix(2, 3), small_matrix(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_constructed_xf_solvable(self, x, f):
        """S := X F is always compatible and the solver reproduces a
        valid solution."""
        assume(rank(f) == 2)
        # X (2x3) @ F (3x2) = S (2x2): compatible by construction
        s = x @ f
        assert compatibility_condition(s, f)
        sol = solve_xf_eq_s(s, f)
        assert sol is not None
        assert sol @ FracMat.from_int(f) == FracMat.from_int(s)

    @given(small_matrix(2, 3), small_matrix(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_integer_solver_agrees(self, x, f):
        assume(rank(f) == 2)
        s = x @ f
        xi = solve_integer_xf_eq_s(s, f)
        assert xi is not None
        assert xi @ f == s


class TestKernelProperties:
    @given(small_matrix(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_kernel_dimension_theorem(self, a):
        basis = integer_kernel_basis(a)
        assert len(basis) == a.ncols - rank(a)
        for v in basis:
            assert (a @ v).is_zero()

    @given(small_matrix(3, 3))
    @settings(max_examples=40, deadline=None)
    def test_kernel_vectors_independent(self, a):
        basis = integer_kernel_basis(a)
        if len(basis) >= 2:
            cols = [v.column_tuple(0) for v in basis]
            stacked = FracMat(list(zip(*cols)))
            assert fracmat_rank(stacked) == len(basis)
