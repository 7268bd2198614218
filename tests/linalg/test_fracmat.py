"""Tests for the exact rational matrix type of the linalg oracle."""

from fractions import Fraction

import pytest

from repro.linalg import IntMat

from oracles.linalg import FracMat, nullspace, rank


class TestBasics:
    def test_from_int_round_trip(self):
        m = IntMat([[1, 2], [3, 4]])
        f = FracMat.from_int(m)
        assert f.to_int() == m

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            FracMat([[1.5]])

    def test_fraction_entries(self):
        f = FracMat([[Fraction(1, 2)]])
        assert f[0, 0] == Fraction(1, 2)
        assert not f.is_integral()

    def test_scale_to_int(self):
        f = FracMat([[Fraction(1, 2), Fraction(1, 3)]])
        a, s = f.scale_to_int()
        assert s == 6
        assert a == IntMat([[3, 2]])

    def test_matmul(self):
        a = FracMat([[Fraction(1, 2), 0], [0, 2]])
        b = FracMat([[2], [1]])
        assert (a @ b) == FracMat([[1], [2]])

    def test_eq_with_intmat(self):
        assert FracMat([[1, 0], [0, 1]]) == IntMat.identity(2)


class TestElimination:
    def test_rank(self):
        assert rank(FracMat([[1, 2], [2, 4]])) == 1
        assert rank(FracMat([[1, 2], [3, 4]])) == 2

    def test_rref_pivots(self):
        _, pivots = FracMat([[0, 1], [0, 0]]).rref()
        assert pivots == [1]

    def test_nullspace(self):
        ns = nullspace(FracMat([[1, 2]]))
        assert len(ns) == 1
        v = ns[0]
        assert v[0, 0] * 1 + v[1, 0] * 2 == 0

    def test_nullspace_trivial(self):
        assert nullspace(FracMat([[1, 0], [0, 1]])) == []

    def test_inverse(self):
        a = FracMat([[2, 1], [1, 1]])
        assert a @ a.inverse() == FracMat.identity(2)

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            FracMat([[1, 1], [1, 1]]).inverse()

    def test_solve_consistent(self):
        a = FracMat([[1, 0], [0, 2]])
        b = FracMat([[3], [4]])
        x = a.solve(b)
        assert a @ x == b

    def test_solve_inconsistent(self):
        a = FracMat([[1, 1], [1, 1]])
        b = FracMat([[0], [1]])
        assert a.solve(b) is None

    def test_solve_underdetermined(self):
        a = FracMat([[1, 1]])
        b = FracMat([[5]])
        x = a.solve(b)
        assert (a @ x) == b

    def test_solve_multi_column(self):
        a = FracMat([[2, 0], [0, 4]])
        b = FracMat([[2, 4], [4, 8]])
        x = a.solve(b)
        assert a @ x == b
