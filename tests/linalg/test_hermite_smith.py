"""Tests for Hermite and Smith normal forms, including hypothesis
properties on random integer matrices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IntMat,
    is_unimodular,
    rank,
    right_hermite,
    right_hermite_narrow,
    smith_normal_form,
    unimodular_inverse,
)


def int_matrices(max_dim=4, max_entry=6):
    """Strategy for small integer matrices as IntMat."""

    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_dim))
        n = draw(st.integers(1, max_dim))
        rows = draw(
            st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
        return IntMat(rows)

    return build()


def full_col_rank_matrices(max_dim=4, max_entry=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_dim))
        m = draw(st.integers(n, max_dim))
        for _ in range(50):
            rows = draw(
                st.lists(
                    st.lists(
                        st.integers(-max_entry, max_entry), min_size=n, max_size=n
                    ),
                    min_size=m,
                    max_size=m,
                )
            )
            cand = IntMat(rows)
            if rank(cand) == n:
                return cand
        # fall back: identity padded with zeros always has full column rank
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(m)]
        return IntMat(rows)

    return build()


def invariant_factors(a):
    """The non-zero diagonal of the Smith form of ``a``."""
    _, d, _ = smith_normal_form(a)
    return tuple(x for x in (d[k, k] for k in range(min(d.shape))) if x)


def flat_hermite(f):
    """``(H, Q)`` with ``F = [H | 0] Q`` for flat full-row-rank ``F``:
    the transpose of ``right_hermite(F^T) = (Q^T, [H^T ; 0])``."""
    qt, ht = right_hermite(f.T)
    return IntMat([row[: f.nrows] for row in zip(*ht.rows())]), qt.T


class TestRightHermite:
    def test_square_example(self):
        a = IntMat([[3, 1], [1, 2]])
        q, h = right_hermite(a)
        assert is_unimodular(q)
        assert q @ h == a
        assert h.is_lower_triangular()
        assert h[0, 0] > 0 and h[1, 1] > 0

    def test_narrow(self):
        d = IntMat([[2], [1]])
        q, h = right_hermite_narrow(d)
        assert is_unimodular(q)
        assert h.shape == (1, 1)
        # Q^{-1} D = [H ; 0]
        qinv = unimodular_inverse(q)
        prod = qinv @ d
        assert prod[0, 0] == h[0, 0]
        assert prod[1, 0] == 0

    def test_broadcast_rotation_use_case(self):
        # Section 3: M_S v = (1, 1)^T must be rotated onto an axis.
        d = IntMat([[1], [1]])
        q, h = right_hermite_narrow(d)
        qinv = unimodular_inverse(q)
        rotated = qinv @ d
        # axis-parallel: a single non-zero in the top block, zeros below
        assert rotated[1, 0] == 0
        assert rotated[0, 0] != 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            right_hermite(IntMat([[1, 2], [2, 4]]))

    @given(full_col_rank_matrices())
    @settings(max_examples=60, deadline=None)
    def test_property(self, a):
        q, h = right_hermite(a)
        assert is_unimodular(q)
        assert q @ h == a
        n = a.ncols
        # lower-triangular top block, zero bottom block
        for i in range(a.nrows):
            for j in range(n):
                if i < n and j > i:
                    assert h[i, j] == 0
                if i >= n:
                    assert h[i, j] == 0
        for j in range(n):
            assert h[j, j] > 0
            # sub-diagonal entries reduced modulo the column pivot
            for i in range(j + 1, n):
                assert 0 <= h[i, j] < h[j, j]


class TestFlatHermite:
    def test_example(self):
        f = IntMat([[1, 0, 1], [0, 1, 1]])
        h, q = flat_hermite(f)
        assert is_unimodular(q)
        a = f.nrows
        # F == [H | 0] @ Q
        h0 = h.hstack(IntMat.zeros(a, f.ncols - a))
        assert h0 @ q == f

    @given(int_matrices())
    @settings(max_examples=40, deadline=None)
    def test_property(self, m):
        # restrict to flat full-row-rank inputs
        if m.nrows > m.ncols or rank(m) != m.nrows:
            return
        h, q = flat_hermite(m)
        a = m.nrows
        pad = (
            h.hstack(IntMat.zeros(a, m.ncols - a)) if m.ncols > a else h
        )
        assert pad @ q == m
        assert is_unimodular(q)


class TestSmith:
    def test_identity(self):
        u, d, v = smith_normal_form(IntMat.identity(3))
        assert d == IntMat.identity(3)

    def test_classic(self):
        a = IntMat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        u, d, v = smith_normal_form(a)
        assert is_unimodular(u) and is_unimodular(v)
        assert u @ a @ v == d
        assert invariant_factors(a) == (2, 2, 156)

    def test_zero_matrix(self):
        u, d, v = smith_normal_form(IntMat.zeros(2, 3))
        assert d.is_zero()

    def test_rectangular(self):
        a = IntMat([[2, 0], [0, 3], [0, 0]])
        u, d, v = smith_normal_form(a)
        assert u @ a @ v == d
        assert invariant_factors(a) == (1, 6)

    @given(int_matrices())
    @settings(max_examples=80, deadline=None)
    def test_property(self, a):
        u, d, v = smith_normal_form(a)
        assert is_unimodular(u) and is_unimodular(v)
        assert u @ a @ v == d
        # diagonal with divisibility chain
        m, n = d.shape
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i, j] == 0
        diag = [d[k, k] for k in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0


class TestUnimodularInverse:
    def test_round_trip(self):
        u = IntMat([[2, 1], [1, 1]])
        ui = unimodular_inverse(u)
        assert u @ ui == IntMat.identity(2)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            unimodular_inverse(IntMat([[2, 0], [0, 1]]))
