"""Linear Diophantine systems: the one integer solve of the package.

:func:`solve_axb` solves ``A X = B`` over the integers through the
Smith normal form ``U A V = D`` (Schrijver, *Theory of Linear and
Integer Programming*, 1986).  The system becomes ``D Y = U B`` with
``X = V Y``: row ``i`` is solvable iff ``d_i`` divides all of row ``i``
of ``U B`` (a zero ``d_i`` needs a zero row).  Every integer system of
the paper is one call:

* ``A x = b`` for dependence analysis (one column);
* ``X F = S`` of Lemma 2, as ``F^T X^T = S^T``;
* an integer weight ``G`` with ``G F = Id`` (Section 2.2.2), as
  ``F^T G^T = Id`` — :func:`best_left_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .cache import memoize_normal_form
from .intmat import IntMat
from .kernels import left_kernel_basis
from .smith import smith_normal_form


@dataclass(frozen=True)
class DiophantineSolution:
    """Solutions of ``A X = B`` over Z: ``X = particular + H`` where
    every column of ``H`` is a Z-combination of the homogeneous basis
    columns."""

    particular: IntMat  # n x k
    homogeneous: List[IntMat]  # list of n x 1 lattice basis columns


def solve_axb(a_mat: IntMat, b_mat: IntMat) -> Optional[DiophantineSolution]:
    """Solve ``A X = B`` over the integers, ``B`` being ``m x k``.

    Returns ``None`` when no integer solution exists; otherwise an
    ``n x k`` particular solution together with a basis of the integer
    kernel lattice of ``A`` (the columns of ``V`` over the zero
    invariant factors), so *all* integer solutions are representable.
    """
    m, n = a_mat.shape
    if b_mat.nrows != m:
        raise ValueError(f"right-hand side must have {m} rows")
    u, d, v = smith_normal_form(a_mat)
    c = (u @ b_mat).rows()
    r = min(m, n)
    y = [[0] * b_mat.ncols for _ in range(n)]
    for i in range(m):
        di = d[i, i] if i < r else 0
        if di == 0:
            if any(c[i]):
                return None
        elif any(x % di for x in c[i]):
            return None
        else:
            y[i] = [x // di for x in c[i]]
    hom = [v.col_vector(j) for j in range(n) if j >= r or d[j, j] == 0]
    return DiophantineSolution(particular=v @ IntMat(y), homogeneous=hom)


@memoize_normal_form("best_left_inverse")
def best_left_inverse(f_mat: IntMat) -> Optional[IntMat]:
    """An integer left inverse (``G F = Id``) of a narrow full-column-rank
    ``F`` with small entries, or ``None`` when none exists.

    The compiler prefers small allocation coefficients (they become
    processor-index arithmetic).  We take ``G0`` from the Smith solve
    and greedily reduce each row by integer multiples of the
    left-kernel basis rows, minimizing the sum of squares: every
    ``G0 + M K`` is a left inverse (the remark of Section 2.2.2).
    """
    u, v = f_mat.shape
    if u < v:
        raise ValueError("best_left_inverse requires a narrow matrix")
    sol = solve_axb(f_mat.T, IntMat.identity(v))
    if sol is None:
        return None
    rows = [list(r) for r in sol.particular.T.rows()]
    for kb in left_kernel_basis(f_mat):
        kv = list(kb[0])
        weight = sum(x * x for x in kv)
        if weight == 0:
            continue
        for ri, row in enumerate(rows):
            # best integer multiple to subtract (least-squares rounding)
            dot = sum(a * b for a, b in zip(row, kv))
            t = round(dot / weight)
            if t:
                rows[ri] = [a - t * b for a, b in zip(row, kv)]
    return IntMat(rows)
