"""Hermite normal forms over the integers.

The paper (appendix A.1) uses the *right Hermite form*: for a
non-singular ``A`` in :math:`M_n(\\mathbb{Z})` there is a unimodular
``Q`` and a lower-triangular ``H`` with positive diagonal and reduced
off-diagonal entries such that ``A = Q H``.  For a narrow rectangular
``A`` (more rows than columns, full column rank) the decomposition is
``A = Q [H ; 0]``; Section 4.1 applies it to the broadcast-direction
matrix ``D`` to rotate partial broadcasts parallel to the grid axes.

The flat decomposition ``F = [H | 0] Q`` used in the proof of Lemma 1
is the transpose of ``right_hermite(F^T)``.  :func:`_xgcd` is the
extended gcd shared with the Smith form.
"""

from __future__ import annotations

from typing import List, Tuple

from .cache import memoize_normal_form
from .intmat import IntMat
from .kernels import integer_rref


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended gcd: returns ``(g, s, t)`` with ``s*a + t*b == g >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@memoize_normal_form("unimodular_inverse")
def unimodular_inverse(u: IntMat) -> IntMat:
    """Exact integer inverse of a unimodular matrix.

    Fraction-free Gauss–Jordan on ``[U | I]``: row ``i`` of the result
    is ``R[i][n:]`` divided by its pivot ``R[i][i]``, which is exact
    because ``U^-1`` is integral."""
    d = u.det()
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det={d})")
    n = u.nrows
    eye = IntMat.identity(n).rows()
    red, _ = integer_rref([row + e for row, e in zip(u.rows(), eye)])
    return IntMat._wrap(
        tuple(tuple(x // row[i] for x in row[n:]) for i, row in enumerate(red))
    )


def is_unimodular(u: IntMat) -> bool:
    """True iff ``u`` is square with determinant +-1."""
    return u.is_square and u.det() in (1, -1)


# ---------------------------------------------------------------------------
# row-operation primitives on mutable list-of-list matrices
# ---------------------------------------------------------------------------

def _rows_combine(a: List[List[int]], u: List[List[int]], i: int, j: int, col: int) -> None:
    """Unimodularly combine rows ``i`` and ``j`` of ``a`` so that
    ``a[j][col]`` becomes ``gcd`` and ``a[i][col]`` becomes 0; mirror the
    operation on the transform accumulator ``u``."""
    ai, aj = a[i][col], a[j][col]
    if ai == 0:
        return
    if aj == 0:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        return
    g, s, t = _xgcd(aj, ai)
    # new row j = s*row_j + t*row_i  (pivot g)
    # new row i = -(ai//g)*row_j + (aj//g)*row_i  (zero in col)
    p, q = ai // g, aj // g
    row_j = [s * y + t * x for x, y in zip(a[i], a[j])]
    row_i = [q * x - p * y for x, y in zip(a[i], a[j])]
    a[j], a[i] = row_j, row_i
    urow_j = [s * y + t * x for x, y in zip(u[i], u[j])]
    urow_i = [q * x - p * y for x, y in zip(u[i], u[j])]
    u[j], u[i] = urow_j, urow_i


def _row_addmul(a: List[List[int]], u: List[List[int]], dst: int, src: int, k: int) -> None:
    if k == 0:
        return
    a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]


def _row_negate(a: List[List[int]], u: List[List[int]], i: int) -> None:
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


@memoize_normal_form("rank")
def rank(a_mat: IntMat) -> int:
    """Rank of an integer matrix over Q (fraction-free elimination)."""
    return len(integer_rref(a_mat.rows())[1])


# ---------------------------------------------------------------------------
# the paper's right Hermite form: A = Q H, H lower triangular
# ---------------------------------------------------------------------------

@memoize_normal_form("right_hermite")
def right_hermite(a_mat: IntMat) -> Tuple[IntMat, IntMat]:
    """Right Hermite form of the paper's Definition 1.

    For ``A`` (``m x n``, ``m >= n``, full column rank ``n``), returns
    ``(Q, H)`` with ``Q`` unimodular ``m x m`` and ``H`` an ``m x n``
    matrix whose top ``n x n`` block is lower triangular with positive
    diagonal (rows below are zero), such that ``A = Q @ H``.

    For square non-singular ``A`` this is exactly ``A = Q H`` with ``H``
    lower triangular, non-negative reduced sub-diagonal entries.
    """
    m, n = a_mat.shape
    if rank(a_mat) != n:
        raise ValueError("right_hermite requires full column rank")
    a = a_mat.tolist()
    u = IntMat.identity(m).tolist()  # accumulates Q^{-1}
    # Work columns right-to-left so the result is lower triangular: the
    # pivot of column j sits at row j; rows above it (0..j-1) and rows
    # below the triangular block (n..m-1) are cleared, while rows
    # j+1..n-1 keep their (allowed) sub-diagonal entries, merely reduced
    # modulo the pivot.  Rows 0..j-1 have support in columns 0..j at
    # this point, so combinations cannot reintroduce cleared entries.
    for j in range(n - 1, -1, -1):
        pivot_row = j
        for i in list(range(j)) + list(range(n, m)):
            if a[i][j] != 0:
                _rows_combine(a, u, i, pivot_row, j)
        if a[pivot_row][j] == 0:
            # Unreachable for full-column-rank input: if the pivot set
            # were all zero here, rows {0..j} u {n..m-1} would span at
            # most j columns and the total rank would drop below n.
            raise ValueError("unexpected rank deficiency in right_hermite")
        if a[pivot_row][j] < 0:
            _row_negate(a, u, pivot_row)
        # reduce sub-diagonal entries of column j (rows j+1..n-1) mod pivot
        piv = a[pivot_row][j]
        for i in range(j + 1, n):
            q = a[i][j] // piv
            _row_addmul(a, u, i, pivot_row, -q)
    h = IntMat(a)
    q_inv = IntMat(u)
    q = unimodular_inverse(q_inv)
    return q, h


def right_hermite_narrow(a_mat: IntMat) -> Tuple[IntMat, IntMat]:
    """Decompose a narrow full-column-rank ``A`` (``m x p``, ``m >= p``)
    as ``A = Q [H ; 0]``.

    Returns ``(Q, H)`` where ``Q`` is ``m x m`` unimodular and ``H`` is
    the ``p x p`` lower-triangular top block; the remaining ``m - p``
    rows of ``Q^{-1} A`` are zero.  This is the operation of Section 4.1
    used to make a partial broadcast parallel to the processor axes.
    """
    q, h_full = right_hermite(a_mat)
    p = a_mat.ncols
    h = IntMat([list(h_full[i]) for i in range(p)])
    return q, h
