"""Unimodular matrices: generation, completion, enumeration.

Allocation matrices within one connected component of the branching are
determined *up to left multiplication by a unimodular matrix* (remark in
Section 3); the residual-communication optimizations exploit exactly
this freedom — rotating a broadcast parallel to an axis, or conjugating
a data-flow matrix into a decomposable one.  This module provides the
unimodular toolbox those steps need.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator, Optional

from .hermite import is_unimodular, rank, unimodular_inverse
from .intmat import IntMat
from .smith import smith_normal_form

__all__ = [
    "is_unimodular",
    "unimodular_inverse",
    "random_unimodular",
    "unimodular_completion",
    "enumerate_unimodular_2x2",
    "elementary_row_matrix",
    "swap_matrix",
]


def elementary_row_matrix(n: int, dst: int, src: int, k: int) -> IntMat:
    """The unimodular matrix adding ``k`` times row ``src`` to row
    ``dst`` when applied on the left."""
    if dst == src:
        raise ValueError("dst and src must differ")
    rows = IntMat.identity(n).tolist()
    rows[dst][src] = k
    return IntMat(rows)


def swap_matrix(n: int, i: int, j: int) -> IntMat:
    """The permutation matrix exchanging rows ``i`` and ``j``."""
    rows = IntMat.identity(n).tolist()
    rows[i][i] = rows[j][j] = 0
    rows[i][j] = rows[j][i] = 1
    return IntMat(rows)


def random_unimodular(
    n: int, rng: Optional[random.Random] = None, steps: int = 8, coeff: int = 2
) -> IntMat:
    """A random unimodular matrix, as a product of random elementary row
    operations and swaps.  ``coeff`` bounds the added multiples so the
    entries stay small."""
    rng = rng or random.Random()
    m = IntMat.identity(n)
    for _ in range(steps):
        if n >= 2 and rng.random() < 0.3:
            i, j = rng.sample(range(n), 2)
            m = swap_matrix(n, i, j) @ m
        else:
            i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            if i == j:
                continue
            k = rng.randint(-coeff, coeff)
            if k:
                m = elementary_row_matrix(n, i, j, k) @ m
    return m


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


def full_rank(m: IntMat) -> bool:
    """True iff ``m`` has full rank ``min(shape)``."""
    return rank(m) == min(m.shape)
