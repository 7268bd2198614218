"""Data-distribution schemes: BLOCK, CYCLIC, CYCLIC(B) and the paper's
grouped partition (Section 5.3).

A 1-D scheme folds ``n`` virtual processor indices onto ``P`` physical
processors.  The *grouped partition* is tailored to an elementary
communication ``U(k)``: virtual processor ``(i, j)`` sends to
``(i + k j, j)``, which splits each row into ``k`` independent residue
classes modulo ``k``.  Grouping the members of each class contiguously
(class-major order) and block-partitioning the result keeps every
class-internal translation within few physical processors, eliminating
the link conflicts that BLOCK and CYCLIC(B) suffer.

Figure 6 of the paper (12 virtual, k = 3, P = 4)::

    virtual order   0 3 6 9 | 1 4 7 10 | 2 5 8 11
    physical        p0: 0 3 6   p1: 9 1 4   p2: 7 10 2   p3: 5 8 11
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Distribution1D:
    """Base class: a map from ``n`` virtual indices onto ``P`` physical
    processors."""

    name = "abstract"

    def __init__(self, n: int, p: int):
        if n <= 0 or p <= 0:
            raise ValueError("sizes must be positive")
        self.n = n
        self.p = p

    def phys(self, v: int) -> int:
        """Physical processor owning virtual index ``v``."""
        raise NotImplementedError

    def phys_array(self, v):
        """Vectorized :meth:`phys` over a numpy integer array.

        The built-in schemes override this with closed-form array
        arithmetic; the fallback loops so third-party subclasses only
        have to implement the scalar map.
        """
        import numpy as np

        self.check_array(v)
        return np.array([self.phys(int(x)) for x in np.ravel(v)]).reshape(
            np.shape(v)
        )

    def check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"virtual index {v} out of range [0, {self.n})")

    def check_array(self, v) -> None:
        if v.size and (int(v.min()) < 0 or int(v.max()) >= self.n):
            bad = int(v.min()) if int(v.min()) < 0 else int(v.max())
            raise IndexError(f"virtual index {bad} out of range [0, {self.n})")

    def cells(self, proc: int) -> List[int]:
        """All virtual indices owned by ``proc`` (ascending)."""
        return [v for v in range(self.n) if self.phys(v) == proc]

    def describe(self) -> str:
        return f"{self.name}(n={self.n}, P={self.p})"


class BlockDistribution(Distribution1D):
    """Contiguous blocks of size ``ceil(n / P)`` (HPF ``BLOCK``)."""

    name = "BLOCK"

    def phys(self, v: int) -> int:
        self.check(v)
        return min(v // _ceil_div(self.n, self.p), self.p - 1)

    def phys_array(self, v):
        import numpy as np

        self.check_array(v)
        return np.minimum(v // _ceil_div(self.n, self.p), self.p - 1)


class CyclicDistribution(Distribution1D):
    """Round-robin (HPF ``CYCLIC`` = ``CYCLIC(1)``)."""

    name = "CYCLIC"

    def phys(self, v: int) -> int:
        self.check(v)
        return v % self.p

    def phys_array(self, v):
        self.check_array(v)
        return v % self.p


class BlockCyclicDistribution(Distribution1D):
    """Blocks of size ``B`` dealt round-robin (HPF ``CYCLIC(B)``)."""

    name = "CYCLIC(B)"

    def __init__(self, n: int, p: int, block: int):
        super().__init__(n, p)
        if block <= 0:
            raise ValueError("block size must be positive")
        self.block = block

    def phys(self, v: int) -> int:
        self.check(v)
        return (v // self.block) % self.p

    def phys_array(self, v):
        self.check_array(v)
        return (v // self.block) % self.p

    def describe(self) -> str:
        return f"CYCLIC({self.block})(n={self.n}, P={self.p})"


class GroupedDistribution(Distribution1D):
    """The paper's grouped partition for a ``U(k)``/``L(k)`` pattern.

    Virtual indices are re-ordered class-major (class = ``v mod k``,
    position within class = ``v div k``), then block-partitioned.
    With ``k = 1`` this degenerates to ``BLOCK``; the paper notes that
    plain ``CYCLIC`` behaves like the grouped partition of its own
    stride, which is why CYCLIC is competitive in Figure 8.
    """

    name = "GROUPED"

    def __init__(self, n: int, p: int, k: int):
        super().__init__(n, p)
        if k <= 0:
            raise ValueError("class modulus k must be positive")
        self.k = k

    def position(self, v: int) -> int:
        """Rank of ``v`` in the class-major order."""
        self.check(v)
        c = v % self.k
        # class sizes differ by at most one when k does not divide n
        full = self.n // self.k
        extra = self.n % self.k
        before = c * full + min(c, extra)
        return before + v // self.k

    def phys(self, v: int) -> int:
        pos = self.position(v)
        return min(pos // _ceil_div(self.n, self.p), self.p - 1)

    def phys_array(self, v):
        import numpy as np

        self.check_array(v)
        c = v % self.k
        full = self.n // self.k
        extra = self.n % self.k
        pos = c * full + np.minimum(c, extra) + v // self.k
        return np.minimum(pos // _ceil_div(self.n, self.p), self.p - 1)

    def describe(self) -> str:
        return f"GROUPED(k={self.k})(n={self.n}, P={self.p})"


@dataclass
class Distribution2D:
    """Product distribution mapping a 2-D virtual grid onto a 2-D
    physical mesh; rows and columns fold independently, matching the
    paper's use (Figure 7 partitions the two dimensions with the two
    factors ``L`` and ``U`` of the data-flow matrix)."""

    rows: Distribution1D
    cols: Distribution1D

    @property
    def virtual_shape(self) -> Tuple[int, int]:
        return (self.rows.n, self.cols.n)

    @property
    def phys_shape(self) -> Tuple[int, int]:
        return (self.rows.p, self.cols.p)

    def phys(self, v: Tuple[int, int]) -> Tuple[int, int]:
        return (self.rows.phys(v[0]), self.cols.phys(v[1]))

    def __iter__(self) -> Iterator[Distribution1D]:
        """The per-axis distributions, ``rows`` then ``cols`` — the
        form the rank-generic pattern generators take."""
        return iter((self.rows, self.cols))

    def describe(self) -> str:
        return f"{self.rows.describe()} x {self.cols.describe()}"


def make_1d(scheme: str, n: int, p: int, **kw) -> Distribution1D:
    """Factory: ``"block" | "cyclic" | "cyclic_block" | "grouped"``."""
    scheme = scheme.lower()
    if scheme == "block":
        return BlockDistribution(n, p)
    if scheme == "cyclic":
        return CyclicDistribution(n, p)
    if scheme in ("cyclic_block", "block_cyclic"):
        return BlockCyclicDistribution(n, p, kw.get("block", 1))
    if scheme == "grouped":
        return GroupedDistribution(n, p, kw.get("k", 1))
    raise ValueError(f"unknown scheme {scheme!r}")
