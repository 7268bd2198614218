"""Unimodular matrices: completion and enumeration.

Allocation matrices within one connected component of the branching are
determined *up to left multiplication by a unimodular matrix* (remark in
Section 3); the residual-communication optimizations exploit exactly
this freedom — rotating a broadcast parallel to an axis, or conjugating
a data-flow matrix into a decomposable one.  This module provides the
unimodular completion and enumeration those steps need.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .hermite import is_unimodular, unimodular_inverse
from .intmat import IntMat
from .smith import smith_normal_form

__all__ = [
    "is_unimodular",
    "unimodular_inverse",
    "unimodular_completion",
    "enumerate_unimodular_2x2",
]


def unimodular_completion(rows_mat: IntMat) -> Optional[IntMat]:
    """Complete ``m`` integer rows into an ``n x n`` unimodular matrix.

    Given a full-row-rank ``m x n`` matrix ``R`` (``m <= n``), returns an
    ``n x n`` unimodular matrix whose *first m rows are R*, or ``None``
    when impossible — the completion exists iff the lattice spanned by
    the rows is a direct summand of Z^n, i.e. all invariant factors of
    ``R`` are 1.
    """
    m, n = rows_mat.shape
    if m > n:
        raise ValueError("more rows than columns")
    u, d, v = smith_normal_form(rows_mat)
    for i in range(m):
        if d[i, i] != 1:
            return None
    # R = U^{-1} [Id_m 0] V^{-1}.  Take W = [[U^{-1}, 0], [0, Id_{n-m}]]
    # acting on V^{-1}: its first m rows are exactly R, and it is a
    # product of unimodular matrices.
    u_inv = unimodular_inverse(u)
    v_inv = unimodular_inverse(v)
    top = [
        [u_inv[i][j] if j < m else 0 for j in range(n)] for i in range(m)
    ]
    bottom = [
        [1 if j == i else 0 for j in range(n)] for i in range(m, n)
    ]
    w = IntMat(top + bottom)
    out = w @ v_inv
    if not is_unimodular(out):  # pragma: no cover - defensive
        raise AssertionError("completion produced a non-unimodular matrix")
    return out


def enumerate_unimodular_2x2(bound: int) -> Iterator[IntMat]:
    """All 2x2 integer matrices with entries in ``[-bound, bound]`` and
    determinant +-1.  Used by the bounded similarity search of
    Section 5.2.2."""
    rng = range(-bound, bound + 1)
    for a, b, c, d in product(rng, rng, rng, rng):
        if a * d - b * c in (1, -1):
            yield IntMat([[a, b], [c, d]])
