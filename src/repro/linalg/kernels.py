"""Kernel (nullspace) computations used by the macro-communication
detectors of Section 4.

The broadcast/scatter/gather/reduction conditions are all statements
about kernels of integer matrices and their intersections, e.g. a
broadcast exists iff ``ker(theta_S) ∩ ker(F_a) \\ ker(M_S)`` is
non-empty.  We work with the *rational* kernels (the relevant dimension
counts are over Q) but return primitive integer direction vectors, which
are what the allocation matrices are applied to.

Everything runs on one fraction-free Gauss–Jordan pass over Python ints
(:func:`integer_rref`), and the kernel entry points are memoized on
their ``IntMat`` arguments, so the detectors of one compile share work.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import List, Sequence, Tuple

from .cache import memoize_normal_form
from .intmat import IntMat


def _primitive(col: Sequence[int]) -> List[int]:
    """Divide an integer vector by the gcd of its entries and normalize
    the sign of the first non-zero entry to be positive."""
    g = 0
    for x in col:
        g = gcd(g, abs(x))
    if g == 0:
        return list(col)
    vec = [x // g for x in col]
    lead = next((x for x in vec if x != 0), 0)
    if lead < 0:
        vec = [-x for x in vec]
    return vec


def integer_rref(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss–Jordan elimination on Python ints.

    Returns ``(R, pivots)``: ``R`` holds one row per pivot column, and
    dividing row ``r`` by ``R[r][pivots[r]]`` gives row ``r`` of the
    reduced row-echelon form of ``rows`` over Q.  Each row update is a
    cross-multiplication ``pv * row_i - f * row_r`` (a non-zero scaling
    of the rational step) followed by division by the row's gcd, so the
    entries stay small and every operation is on Python ints.
    """
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0])
    pivots: List[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                row = [pv * x - f * y for x, y in zip(a[i], prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a[:r], pivots


@memoize_normal_form("integer_kernel_basis")
def integer_kernel_basis(a_mat: IntMat) -> Tuple[IntMat, ...]:
    """A basis of the rational right kernel of ``A`` given as primitive
    integer column vectors (each an ``n x 1`` :class:`IntMat`).

    Vector ``k`` belongs to the ``k``-th free column ``fc`` of the RREF:
    it is 1 there and ``-RREF[r][fc]`` at pivot column ``pivots[r]``.
    Scaling by the lcm of the pivot entries makes it integral, and
    :func:`_primitive` fixes its gcd and sign, so the result is the
    same as reading the basis off the rational RREF."""
    red, pivots = integer_rref(a_mat.rows())
    n = a_mat.ncols
    scale = lcm(*(abs(row[pc]) for row, pc in zip(red, pivots)))
    pivot_set = set(pivots)
    out = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        vec = [0] * n
        vec[fc] = scale
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc] * (scale // row[pc])
        out.append(IntMat._wrap(tuple((x,) for x in _primitive(vec))))
    return tuple(out)


def left_kernel_basis(a_mat: IntMat) -> List[IntMat]:
    """A basis of the rational left kernel of ``A`` (vectors ``w`` with
    ``w A = 0``) as primitive integer ``1 x m`` row vectors."""
    return [v.T for v in integer_kernel_basis(a_mat.T)]


def stacked(mats: Sequence[IntMat]) -> IntMat:
    """Stack matrices with equal column counts vertically."""
    if not mats:
        raise ValueError("nothing to stack")
    acc = mats[0]
    for m in mats[1:]:
        acc = acc.vstack(m)
    return acc


def kernel_intersection_basis(mats: Sequence[IntMat]) -> Tuple[IntMat, ...]:
    """Basis of ``ker(A_1) ∩ ker(A_2) ∩ ...`` as primitive integer
    columns.  All matrices must have the same number of columns."""
    return integer_kernel_basis(stacked(mats))


def kernel_difference_directions(
    inside: Sequence[IntMat], outside: IntMat
) -> List[IntMat]:
    """Directions in ``∩ ker(inside)`` that are *not* in ``ker(outside)``.

    Returns a (possibly empty) list of primitive integer columns
    ``v_1..v_p`` such that ``span(v_i) + (∩ker(inside) ∩ ker(outside))``
    equals ``∩ ker(inside)``; i.e. the ``v_i`` complete a basis of the
    intersection-with-outside kernel into a basis of the inside kernel.
    The paper uses these as the broadcast (scatter, ...) directions.

    Memoized on ``(tuple(inside), outside)``; every call returns a fresh
    list.
    """
    return list(_kernel_difference_directions(tuple(inside), outside))


@memoize_normal_form("kernel_difference_directions")
def _kernel_difference_directions(
    inside: Tuple[IntMat, ...], outside: IntMat
) -> Tuple[IntMat, ...]:
    inter = kernel_intersection_basis(inside)
    if not inter:
        return ()
    # basis of the subspace of `inter` that also lies in ker(outside):
    # solve outside @ (B y) = 0 where B has the inter vectors as columns.
    b_mat = IntMat._wrap(tuple(zip(*(v.column_tuple(0) for v in inter))))
    small_kernel = integer_kernel_basis(outside @ b_mat)  # coefficients y
    p = len(inter)
    q = len(small_kernel)
    if q == p:
        return ()  # everything is hidden by `outside`
    # Complete the coefficient vectors of the sub-kernel into a basis of
    # Q^p with coordinate vectors e_i, taken greedily in index order.
    chosen: List[int] = []
    current = [v.column_tuple(0) for v in small_kernel]
    for i in range(p):
        cand = tuple(1 if k == i else 0 for k in range(p))
        if len(integer_rref(current + [cand])[1]) == len(current) + 1:
            current.append(cand)
            chosen.append(i)
            if len(chosen) == p - q:
                break
    return tuple(inter[i] for i in chosen)
