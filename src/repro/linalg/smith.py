"""Smith normal form over the integers.

For any integer matrix ``A`` (``m x n``) there exist unimodular ``U``
(``m x m``) and ``V`` (``n x n``) such that ``U A V = D`` is diagonal
with non-negative invariant factors ``d_1 | d_2 | ... | d_r`` followed
by zeros.  It drives the one integer solve of the package,
:func:`repro.linalg.diophantine.solve_axb` (dependence lattices,
``X F = S`` and integer left inverses ``G F = Id``), and the
unimodular completion of Section 4.1.
"""

from __future__ import annotations

from typing import Tuple

from .cache import memoize_normal_form
from .hermite import _xgcd
from .intmat import IntMat


@memoize_normal_form("smith_normal_form")
def smith_normal_form(a_mat: IntMat) -> Tuple[IntMat, IntMat, IntMat]:
    """Compute ``(U, D, V)`` with ``U @ A @ V == D`` in Smith form.

    ``U`` and ``V`` are unimodular; ``D`` is diagonal (same shape as
    ``A``) with ``d_1 | d_2 | ...`` and all diagonal entries >= 0.
    """
    m, n = a_mat.shape
    a = a_mat.tolist()
    u = IntMat.identity(m).tolist()
    v = IntMat.identity(n).tolist()

    def row_combine(i: int, j: int, col: int) -> None:
        """Put gcd at (j, col), zero at (i, col) via unimodular row ops."""
        ai, aj = a[i][col], a[j][col]
        if ai == 0:
            return
        if aj == 0:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            return
        if ai % aj == 0:
            # plain shear: leaves the pivot row untouched, which is what
            # guarantees the row/column cleanup loop terminates
            q = ai // aj
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]
            return
        g, s, t = _xgcd(aj, ai)
        p, q = ai // g, aj // g
        a[j], a[i] = (
            [s * y + t * x for x, y in zip(a[i], a[j])],
            [q * x - p * y for x, y in zip(a[i], a[j])],
        )
        u[j], u[i] = (
            [s * y + t * x for x, y in zip(u[i], u[j])],
            [q * x - p * y for x, y in zip(u[i], u[j])],
        )

    def col_combine(i: int, j: int, row: int) -> None:
        """Put gcd at (row, j), zero at (row, i) via unimodular col ops."""
        ai, aj = a[row][i], a[row][j]
        if ai == 0:
            return
        if aj == 0:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]
            return
        if ai % aj == 0:
            q = ai // aj
            for r in a:
                r[i] = r[i] - q * r[j]
            for r in v:
                r[i] = r[i] - q * r[j]
            return
        g, s, t = _xgcd(aj, ai)
        p, q = ai // g, aj // g
        for r in a:
            new_j = s * r[j] + t * r[i]
            new_i = q * r[i] - p * r[j]
            r[j], r[i] = new_j, new_i
        for r in v:
            new_j = s * r[j] + t * r[i]
            new_i = q * r[i] - p * r[j]
            r[j], r[i] = new_j, new_i

    k = 0
    limit = min(m, n)
    while k < limit:
        # find a non-zero pivot in the trailing block
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for r in a:
                r[k], r[pj] = r[pj], r[k]
            for r in v:
                r[k], r[pj] = r[pj], r[k]
        # iterate until row k and column k are clean
        while True:
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    row_combine(i, k, k)
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    col_combine(j, k, k)
            if all(a[i][k] == 0 for i in range(k + 1, m)) and all(
                a[k][j] == 0 for j in range(k + 1, n)
            ):
                break
        # enforce divisibility d_k | a[i][j] for the trailing block
        piv = a[k][k]
        bad = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if a[i][j] % piv != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad is not None:
            bi, _ = bad
            # add the offending row to row k and restart this pivot
            a[k] = [x + y for x, y in zip(a[k], a[bi])]
            u[k] = [x + y for x, y in zip(u[k], u[bi])]
            continue
        if piv < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1

    return IntMat(u), IntMat(a), IntMat(v)
