"""Unit tests for the exact integer matrix type."""

from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest

from repro.linalg import IntMat


class TestConstruction:
    def test_basic(self):
        m = IntMat([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m[0, 1] == 2
        assert m[1] == (3, 4)

    def test_identity(self):
        assert IntMat.identity(3) == IntMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_zeros(self):
        assert IntMat.zeros(2, 3).is_zero()

    def test_row_col(self):
        assert IntMat.row([1, 2, 3]).shape == (1, 3)
        assert IntMat.col([1, 2, 3]).shape == (3, 1)

    def test_diag(self):
        d = IntMat.diag([2, 3])
        assert d == IntMat([[2, 0], [0, 3]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMat([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMat([])

    def test_rejects_fractional_float(self):
        with pytest.raises(ValueError):
            IntMat([[1.5]])

    def test_accepts_integral_float(self):
        assert IntMat([[2.0]])[0, 0] == 2

    def test_accepts_integral_fraction(self):
        m = IntMat([[Fraction(6, 3), Fraction(-4, 1)]])
        assert m == IntMat([[2, -4]])
        assert all(type(x) is int for x in m[0])

    def test_rejects_fractional_fraction(self):
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
            IntMat([[1, Fraction(1, 2)]])

    def test_from_numpy(self):
        import numpy as np

        m = IntMat.from_numpy(np.array([[1, 2], [3, 4]]))
        assert m == IntMat([[1, 2], [3, 4]])

    def test_from_numpy_1d(self):
        import numpy as np

        assert IntMat.from_numpy(np.array([1, 2])).shape == (1, 2)


class TestArithmetic:
    def test_add_sub(self):
        a = IntMat([[1, 2], [3, 4]])
        b = IntMat([[5, 6], [7, 8]])
        assert a + b == IntMat([[6, 8], [10, 12]])
        assert b - a == IntMat([[4, 4], [4, 4]])

    def test_neg(self):
        assert -IntMat([[1, -2]]) == IntMat([[-1, 2]])

    def test_matmul(self):
        a = IntMat([[1, 2], [3, 4]])
        b = IntMat([[0, 1], [1, 0]])
        assert a @ b == IntMat([[2, 1], [4, 3]])

    def test_matmul_rectangular(self):
        a = IntMat([[1, 0, 2]])  # 1x3
        b = IntMat([[1], [2], [3]])  # 3x1
        assert a @ b == IntMat([[7]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntMat([[1, 2]]) @ IntMat([[1, 2]])

    def test_scalar_mul(self):
        assert 2 * IntMat([[1, 2]]) == IntMat([[2, 4]])
        assert IntMat([[1, 2]]) * 3 == IntMat([[3, 6]])

    def test_transpose(self):
        assert IntMat([[1, 2, 3]]).T == IntMat([[1], [2], [3]])

    def test_big_integers_no_overflow(self):
        big = 10**30
        m = IntMat([[big]])
        assert (m @ m)[0, 0] == big * big

    def test_matrix_product(self):
        mats = [IntMat([[1, 1], [0, 1]])] * 3
        assert reduce(matmul, mats) == IntMat([[1, 3], [0, 1]])


class TestDeterminant:
    def test_2x2(self):
        assert IntMat([[1, 2], [3, 4]]).det() == -2

    def test_identity(self):
        assert IntMat.identity(4).det() == 1

    def test_singular(self):
        assert IntMat([[1, 2], [2, 4]]).det() == 0

    def test_needs_pivot_swap(self):
        assert IntMat([[0, 1], [1, 0]]).det() == -1

    def test_3x3(self):
        m = IntMat([[2, 0, 1], [1, 1, 0], [0, 3, 1]])
        assert m.det() == 2 * (1 * 1 - 0 * 3) - 0 + 1 * (1 * 3 - 0)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            IntMat([[1, 2]]).det()

    def test_bareiss_large(self):
        # Bareiss must stay exact on entries that overflow int64 products
        m = IntMat([[10**12, 1], [1, 10**12]])
        assert m.det() == 10**24 - 1


class TestStructure:
    def test_is_identity(self):
        assert IntMat.identity(2).is_identity()
        assert not IntMat([[1, 1], [0, 1]]).is_identity()
        assert not IntMat([[1, 0, 0], [0, 1, 0]]).is_identity()

    def test_triangular(self):
        assert IntMat([[1, 0], [5, 1]]).is_lower_triangular()
        assert IntMat([[1, 5], [0, 1]]).is_upper_triangular()
        assert not IntMat([[1, 5], [5, 1]]).is_lower_triangular()

    def test_stack(self):
        a = IntMat([[1], [2]])
        b = IntMat([[3], [4]])
        assert a.hstack(b) == IntMat([[1, 3], [2, 4]])
        assert a.vstack(b) == IntMat([[1], [2], [3], [4]])

    def test_submatrix(self):
        m = IntMat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.submatrix([0, 2], [1, 2]) == IntMat([[2, 3], [8, 9]])

    def test_trace(self):
        assert IntMat([[1, 2], [3, 4]]).trace() == 5

    def test_gcd_content(self):
        assert IntMat([[4, 6], [8, 10]]).gcd_content() == 2
        assert IntMat.zeros(2, 2).gcd_content() == 0

    def test_max_abs(self):
        assert IntMat([[-7, 3]]).max_abs() == 7

    def test_hashable(self):
        s = {IntMat([[1]]), IntMat([[1]]), IntMat([[2]])}
        assert len(s) == 2

    def test_column_accessors(self):
        m = IntMat([[1, 2], [3, 4]])
        assert m.col_vector(1) == IntMat([[2], [4]])
        assert m.column_tuple(0) == (1, 3)
        assert m.row_vector(1) == IntMat([[3, 4]])

    def test_pretty(self):
        text = IntMat([[1, 22], [333, 4]]).pretty()
        assert "22" in text and "\n" in text

    def test_to_numpy_roundtrip(self):
        m = IntMat([[1, -2], [3, 4]])
        assert IntMat.from_numpy(m.to_numpy()) == m
