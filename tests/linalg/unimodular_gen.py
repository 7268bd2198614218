"""Test-data generators: random unimodular matrices built from
elementary row operations."""

import random
from typing import Optional

from repro.linalg import IntMat


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
