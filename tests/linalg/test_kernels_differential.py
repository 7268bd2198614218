"""Differential suite: the fraction-free, memoized kernel layer against
the ``Fraction`` oracle of ``tests/oracles/linalg.py``.

Generated integer matrices (up to 6 x 6, with zero rows and columns,
duplicated rows and entries near +-2**62) must give exactly the
oracle's ranks, kernel bases and difference directions, and the four
macro detectors must reach the same verdicts (kind, extent, directions)
as when they compute every kernel through ``FracMat``.  ``IntMat``
products and determinants (up to 8 x 8) and ``unimodular_inverse`` (up
to 6 x 6, entries past 2**62) must match the oracle's object-dtype
product, ``Fraction`` elimination and ``FracMat`` inverse.  The second
half checks memo safety and accounting, and the trusted ``IntMat._wrap``
constructor.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IntMat,
    cache_stats,
    get_cache,
    integer_kernel_basis,
    kernel_difference_directions,
    rank,
    unimodular_inverse,
)
from repro.macrocomm import (
    detect_broadcast,
    detect_gather,
    detect_reduction,
    detect_scatter,
)

from oracles import linalg as oracle

BIG = 2 ** 62

# mostly small entries, sometimes within a few units of +-2**62
entries = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(BIG - 3, BIG + 3),
    st.integers(-BIG - 3, -BIG + 3),
)


@st.composite
def int_matrices(draw, max_rows=6, max_cols=6, ncols=None, elems=entries):
    """An integer matrix, optionally with a zero row, a zero column or a
    duplicated row."""
    n = ncols if ncols is not None else draw(st.integers(1, max_cols))
    m = draw(st.integers(1, max_rows))
    rows = [[draw(elems) for _ in range(n)] for _ in range(m)]
    tweak = draw(st.sampled_from(["none", "zero_row", "zero_col", "dup_row"]))
    if tweak == "zero_row":
        rows[draw(st.integers(0, m - 1))] = [0] * n
    elif tweak == "zero_col":
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    elif tweak == "dup_row":
        dup = list(rows[draw(st.integers(0, m - 1))])
        if m < max_rows:
            rows.append(dup)
        else:
            rows[draw(st.integers(0, m - 1))] = dup
    return IntMat(rows)


class TestKernelsAgainstOracle:
    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_kernel_basis_rank_dim(self, a):
        assert list(integer_kernel_basis(a)) == oracle.integer_kernel_basis(a)
        assert integer_kernel_basis.__wrapped__(a) == integer_kernel_basis(a)
        assert rank(a) == oracle.rank(a)
        assert len(integer_kernel_basis(a)) == oracle.kernel_dim(a)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_difference_directions(self, data):
        n = data.draw(st.integers(1, 6))
        inside = data.draw(
            st.lists(int_matrices(max_rows=3, ncols=n), min_size=1, max_size=3)
        )
        outside = data.draw(int_matrices(max_rows=4, ncols=n))
        got = kernel_difference_directions(inside, outside)
        assert got == oracle.kernel_difference_directions(inside, outside)


# detector inputs: d loop dims, k array dims, an m-dim virtual grid
small = st.integers(-3, 3)
detector_entries = st.one_of(small, small, small, small, entries)


@st.composite
def detector_args(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))

    def mat(rows, cols):
        return draw(
            int_matrices(max_rows=rows, ncols=cols, elems=detector_entries)
        )

    theta = mat(2, d)
    f = mat(k, d)
    m_x = mat(m, f.nrows)
    row = st.lists(detector_entries, min_size=d, max_size=d)
    m_s = draw(st.lists(row, min_size=m_x.nrows, max_size=m_x.nrows))
    return theta, f, m_x, IntMat(m_s)


class TestDetectorsAgainstOracle:
    @given(detector_args())
    @settings(max_examples=300, deadline=None)
    def test_verdicts(self, args):
        theta, f, m_x, m_s = args
        calls = [
            (detect_broadcast, (theta, f, m_s)),
            (detect_scatter, (theta, f, m_x, m_s)),
            (detect_gather, (theta, f, m_x, m_s)),
            (detect_reduction, (theta, f, m_x, m_s)),
        ]
        got = [fn(*a) for fn, a in calls]
        with oracle.fracmat_kernels():
            want = [fn(*a) for fn, a in calls]
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is None:
                continue
            assert (g.kind, g.extent) == (w.kind, w.extent)
            assert g.iteration_directions == w.iteration_directions
            assert g.grid_directions == w.grid_directions


# ---------------------------------------------------------------------------
# exact arithmetic: products, determinants, unimodular inverses
# ---------------------------------------------------------------------------


@st.composite
def unimodular_matrices(draw, max_n=6):
    """An ``n x n`` unimodular matrix: the identity under random row
    additions (multipliers include +-2**62, so entries pass it), swaps
    and negations."""
    n = draw(st.integers(1, max_n))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "add", "swap", "negate"]))
        if op == "add" and i != j:
            k = draw(entries)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-x for x in rows[i]]
    return IntMat(rows)


def _rows(m, n):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
    )


class TestExactArithmeticAgainstOracle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matmul(self, data):
        k = data.draw(st.integers(1, 8))
        p = data.draw(st.integers(1, 8))
        a = data.draw(int_matrices(max_rows=8, ncols=k))
        b = IntMat(data.draw(_rows(k, p)))
        assert a @ b == oracle.matmul(a, b)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_det(self, data):
        n = data.draw(st.integers(1, 8))
        a = IntMat(data.draw(_rows(n, n)))
        assert a.det() == oracle.det(a)

    @given(unimodular_matrices())
    @settings(max_examples=200, deadline=None)
    def test_unimodular_inverse(self, u):
        got = unimodular_inverse.__wrapped__(u)
        assert got == oracle.unimodular_inverse(u)
        assert (u @ got).is_identity()
        _same_as_validated(got)

    @given(unimodular_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_non_unimodular_raises(self, u, data):
        n = u.nrows
        i = data.draw(st.integers(0, n - 1))
        rows = u.tolist()
        if n > 1 and data.draw(st.booleans()):
            rows[i] = list(rows[(i + 1) % n])  # singular
        else:
            rows[i] = [data.draw(st.sampled_from([2, -3, 5])) * x for x in rows[i]]
        with pytest.raises(ValueError):
            unimodular_inverse.__wrapped__(IntMat(rows))


# ---------------------------------------------------------------------------
# memo safety and accounting
# ---------------------------------------------------------------------------


class TestKernelMemo:
    def test_returned_list_is_private(self):
        inside = [IntMat([[1, 0, 0]])]
        outside = IntMat([[0, 1, 0]])
        first = kernel_difference_directions(inside, outside)
        want = list(first)
        first.append(IntMat.col([9, 9, 9]))
        first.clear()
        assert kernel_difference_directions(inside, outside) == want
        # a list or a tuple for `inside` hits the same entry
        assert kernel_difference_directions(tuple(inside), outside) == want

    def test_kernel_basis_is_immutable(self):
        basis = integer_kernel_basis(IntMat([[1, 2, 3]]))
        assert isinstance(basis, tuple)
        assert all(isinstance(v, IntMat) for v in basis)

    def test_caches_registered(self):
        stats = cache_stats()
        assert "integer_kernel_basis" in stats
        assert "kernel_difference_directions" in stats
        assert "rank" in stats

    def test_kernel_basis_counters(self):
        integer_kernel_basis.cache_clear()
        a = IntMat([[3, 1, 4], [1, 5, 9]])
        integer_kernel_basis(a)
        integer_kernel_basis(IntMat([[3, 1, 4], [1, 5, 9]]))  # equal copy
        integer_kernel_basis(a)
        s = get_cache("integer_kernel_basis").stats()
        assert (s["misses"], s["hits"], s["size"]) == (1, 2, 1)

    def test_difference_directions_counters(self):
        integer_kernel_basis.cache_clear()
        get_cache("kernel_difference_directions").clear()
        inside = [IntMat([[1, 0, 0]])]
        outside = IntMat([[0, 1, 0]])
        kernel_difference_directions(inside, outside)
        kd = get_cache("kernel_difference_directions")
        kb = get_cache("integer_kernel_basis")
        # one miss here; two kernel bases (the intersection and the
        # coefficient kernel of `outside` restricted to it) below
        assert (kd.misses, kd.hits) == (1, 0)
        assert (kb.misses, kb.hits) == (2, 0)
        kernel_difference_directions(inside, outside)
        assert (kd.misses, kd.hits) == (1, 1)
        assert (kb.misses, kb.hits) == (2, 0)

    def test_memo_matches_uncached(self):
        inside = (IntMat([[1, 1, 0, 0]]), IntMat([[0, 0, 1, -1]]))
        outside = IntMat([[1, 0, 0, 0], [0, 0, 1, 0]])
        from repro.linalg.kernels import _kernel_difference_directions

        cached = _kernel_difference_directions(inside, outside)
        assert _kernel_difference_directions.__wrapped__(inside, outside) == cached


# ---------------------------------------------------------------------------
# the trusted constructor
# ---------------------------------------------------------------------------


def _same_as_validated(x: IntMat) -> None:
    ref = IntMat(x.tolist())
    assert x == ref
    assert hash(x) == hash(ref)
    assert x.shape == ref.shape
    assert type(x.rows()) is tuple
    assert all(type(r) is tuple for r in x.rows())
    assert all(type(v) is int for r in x.rows() for v in r)


class TestWrap:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ops_match_validated_construction(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 6))
        cells = st.one_of(st.integers(-9, 9), st.booleans(), entries)
        rows = st.lists(
            st.lists(cells, min_size=n, max_size=n), min_size=m, max_size=m
        )
        a = IntMat(data.draw(rows))
        b = IntMat(data.draw(rows))
        k = data.draw(st.integers(-5, 5))
        for x in (
            a + b,
            a - b,
            -a,
            a * k,
            k * a,
            a * True,
            a.T,
            a @ b.T,
            a.hstack(b),
            a.vstack(b),
            a.row_vector(0),
            a.col_vector(n - 1),
            IntMat.identity(n),
            IntMat.zeros(m, n),
        ):
            _same_as_validated(x)
        for v in integer_kernel_basis(a):
            _same_as_validated(v)

    def test_numpy_product_matches(self):
        a = IntMat([[i - j for j in range(8)] for i in range(6)])
        b = IntMat([[i * j - 3 for j in range(6)] for i in range(8)])
        prod = a @ b
        _same_as_validated(prod)
        assert prod == IntMat.from_numpy(a.to_numpy() @ b.to_numpy())
        assert prod == oracle.matmul(a, b)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            IntMat([[Fraction(1, 2)]])
        with pytest.raises(ValueError):
            IntMat([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMat([[0.5]])
        with pytest.raises(ValueError):
            IntMat([])
        assert IntMat([[Fraction(4, 2)]]) == IntMat([[2]])
