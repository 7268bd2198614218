"""Exhaustive shortest-product search over elementary matrices.

Used (a) to validate the analytic 1/2/3/4-factor conditions of
Section 5.2.1, (b) to exercise the paper's observation that every 2x2,
``det = 1`` matrix with entries of absolute value at most 5 is a product
of at most four elementary factors, and (c) as a fallback decomposer
for the rare residual matrices the analytic rules miss.

The search runs meet in the middle over reduced words in
``{L(l), U(k)}`` with coefficients bounded by ``coeff_bound`` (words
alternate L/U because adjacent same-type factors merge), under a hard
state budget.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..linalg import IntMat
from ..obs import traced
from .elementary import L, U

#: most states one search may store (forward plus backward); a search
#: that would exceed it gives up and returns ``None``.  The default
#: ``max_len=6, coeff_bound=8`` search stores at most 2 x 8736.
STATE_BUDGET = 1 << 16

# a 2x2 matrix is the tuple (a, b, c, d) of [[a, b], [c, d]]; a factor
# is (coefficient, kind) with kind 0 for L and 1 for U, so tuple order
# is the search's neighbour order (coefficients ascending, L before U)
_Mat = Tuple[int, int, int, int]
_Word = Tuple[Tuple[int, int], ...]


def _times(m: _Mat, coeff: int, kind: int) -> _Mat:
    """``m @ L(coeff)`` (kind 0) or ``m @ U(coeff)`` (kind 1)."""
    a, b, c, d = m
    if kind == 0:
        return (a + b * coeff, b, c + d * coeff, d)
    return (a, a * coeff + b, c, c * coeff + d)


@traced("decomp.search")
def shortest_decomposition(
    t: IntMat, max_len: int = 6, coeff_bound: int = 8
) -> Optional[List[IntMat]]:
    """Shortest product of elementary matrices equal to ``T`` (2x2,
    ``det = 1``), with word length at most ``max_len`` and coefficients
    bounded by ``coeff_bound``; ``None`` when no such word exists within
    the bounds (or the search would store more than
    :data:`STATE_BUDGET` states).

    The word is the one a breadth-first search over reduced words would
    return: the first in neighbour order among the shortest words whose
    proper prefixes all stay within ``(max|T| + 2) (coeff_bound + 1)``.
    Meet in the middle finds it from ``ceil(len/2)``-factor prefixes
    grown from the identity and suffixes grown back from ``T``, so the
    default search stores thousands of states instead of millions.
    """
    if t.shape != (2, 2) or t.det() != 1:
        raise ValueError("search expects a 2x2 determinant-1 matrix")
    if t.is_identity():
        return []
    (a, b), (c, d) = t.tolist()
    target: _Mat = (a, b, c, d)
    bound = (t.max_abs() + 2) * (coeff_bound + 1)
    factors = [
        (coeff, kind)
        for coeff in range(-coeff_bound, coeff_bound + 1)
        if coeff
        for kind in (0, 1)
    ]
    # forward level k: (prefix product, last kind) -> first prefix of
    # length k reaching it, in neighbour order (dict order is word order)
    forward: List[Dict[Tuple[_Mat, Optional[int]], _Word]] = [
        {((1, 0, 0, 1), None): ()}
    ]
    # backward level k: (T times the inverse suffix, first kind) -> the
    # least suffix of length k reaching it
    backward: List[Dict[Tuple[_Mat, Optional[int]], _Word]] = [
        {(target, None): ()}
    ]
    stored = 0
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        rest = length - half
        if len(forward) <= half:
            nxt: Dict[Tuple[_Mat, Optional[int]], _Word] = {}
            for (mat, last), word in forward[-1].items():
                for coeff, kind in factors:
                    if kind == last:
                        continue
                    key = (_times(mat, coeff, kind), kind)
                    if key in nxt or max(map(abs, key[0])) > bound:
                        continue
                    nxt[key] = word + ((coeff, kind),)
                    stored += 1
                    if stored > STATE_BUDGET:
                        return None
            forward.append(nxt)
        if len(backward) <= rest:
            prev: Dict[Tuple[_Mat, Optional[int]], _Word] = {}
            for (mat, first), word in backward[-1].items():
                for coeff, kind in factors:
                    if kind == first:
                        continue
                    key = (_times(mat, -coeff, kind), kind)
                    cand = ((coeff, kind),) + word
                    if key in prev:
                        prev[key] = min(prev[key], cand)
                        continue
                    if max(map(abs, key[0])) > bound:
                        continue
                    prev[key] = cand
                    stored += 1
                    if stored > STATE_BUDGET:
                        return None
            backward.append(prev)
        meet = backward[rest]
        for (mat, last), word in forward[half].items():
            if rest == 0:
                found = () if mat == target else None
            else:
                found = meet.get((mat, 1 - last))
            if found is not None:
                return [L(c) if kind == 0 else U(c) for c, kind in word + found]
        if not forward[half] or not meet:
            return None
    return None


def enumerate_det1(bound: int):
    """All 2x2 integer matrices with ``det == 1`` and entries in
    ``[-bound, bound]`` (the exhaustive-coverage experiment of
    Section 5.2.1)."""
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1:
                        yield IntMat([[a, b], [c, d]])
