"""Exact rational matrices built on :class:`fractions.Fraction`.

Pseudo-inverses (paper appendix A.2), rational solves and exact inverses
are rational in general; this module provides the small exact-arithmetic
matrix type used for them.  Ranks and kernels are computed without
fractions (:mod:`repro.linalg.kernels`).  :class:`FracMat` mirrors the
relevant part of the :class:`~repro.linalg.intmat.IntMat` API and
converts to/from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .intmat import IntMat


def _as_frac(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # floats are rejected: exactness is the whole point
        raise TypeError("floats are not allowed in FracMat; use Fraction")
    return Fraction(x)  # type: ignore[arg-type]


class FracMat:
    """An immutable matrix of :class:`~fractions.Fraction` entries."""

    __slots__ = ("_rows", "_shape")

    def __init__(self, rows: Iterable[Iterable[object]]):
        data = tuple(tuple(_as_frac(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("FracMat must be non-empty")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows in FracMat")
        self._rows: Tuple[Tuple[Fraction, ...], ...] = data
        self._shape = (len(data), ncols)

    # ------------------------------------------------------------------
    @staticmethod
    def from_int(m: IntMat) -> "FracMat":
        return FracMat(m.tolist())

    @staticmethod
    def identity(n: int) -> "FracMat":
        return FracMat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(m: int, n: int) -> "FracMat":
        return FracMat([[0] * n for _ in range(m)])

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return self._rows

    def tolist(self) -> List[List[Fraction]]:
        return [list(r) for r in self._rows]

    def __getitem__(self, idx):
        if isinstance(idx, tuple):
            i, j = idx
            return self._rows[i][j]
        return self._rows[idx]

    def is_integral(self) -> bool:
        """True iff every entry has denominator 1."""
        return all(x.denominator == 1 for r in self._rows for x in r)

    def to_int(self) -> IntMat:
        """Convert to :class:`IntMat`; raises if any entry is fractional."""
        if not self.is_integral():
            raise ValueError("matrix has non-integral entries")
        return IntMat([[x.numerator for x in r] for r in self._rows])

    def denominator_lcm(self) -> int:
        """LCM of all entry denominators (1 for an integral matrix)."""
        from math import lcm

        out = 1
        for r in self._rows:
            for x in r:
                out = lcm(out, x.denominator)
        return out

    def scale_to_int(self) -> Tuple[IntMat, int]:
        """Return ``(A, s)`` with integral ``A`` and ``self == A / s``."""
        s = self.denominator_lcm()
        return (
            IntMat([[int(x * s) for x in r] for r in self._rows]),
            s,
        )

    # ------------------------------------------------------------------
    def __add__(self, other: "FracMat") -> "FracMat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return FracMat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "FracMat") -> "FracMat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return FracMat(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __neg__(self) -> "FracMat":
        return FracMat([[-x for x in r] for r in self._rows])

    def __matmul__(self, other: "FracMat") -> "FracMat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        ot = list(zip(*other._rows))
        return FracMat(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self._rows]
        )

    def __mul__(self, other):
        if isinstance(other, FracMat):
            return self @ other
        if isinstance(other, (int, Fraction)):
            return FracMat([[x * other for x in r] for r in self._rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracMat([[other * x for x in r] for r in self._rows])
        return NotImplemented

    def transpose(self) -> "FracMat":
        return FracMat(list(zip(*self._rows)))

    @property
    def T(self) -> "FracMat":
        return self.transpose()

    def __eq__(self, other) -> bool:
        if isinstance(other, IntMat):
            other = FracMat.from_int(other)
        if not isinstance(other, FracMat):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self._rows
        )
        return f"FracMat([{body}])"

    # ------------------------------------------------------------------
    # elimination-based queries
    # ------------------------------------------------------------------
    def rref(self) -> Tuple["FracMat", List[int]]:
        """Reduced row-echelon form and the list of pivot columns."""
        a = [list(r) for r in self._rows]
        m, n = self.shape
        pivots: List[int] = []
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            pv = a[r][c]
            a[r] = [x / pv for x in a[r]]
            for i in range(m):
                if i != r and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return FracMat(a), pivots

    def inverse(self) -> "FracMat":
        """Exact inverse of a square non-singular matrix."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = FracMat(
            [list(self._rows[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
        )
        rref, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return FracMat([list(rref[i])[n:] for i in range(n)])

    def solve(self, b: "FracMat") -> Optional["FracMat"]:
        """One solution ``x`` of ``self @ x = b`` or ``None`` if infeasible.

        ``b`` may have several columns; a solution is returned iff the
        system is consistent for *all* columns.
        """
        m, n = self.shape
        if b.nrows != m:
            raise ValueError("right-hand side has wrong number of rows")
        aug = self.hstack(b)
        rref, pivots = aug.rref()
        # any pivot in the RHS block means inconsistency
        if any(p >= n for p in pivots):
            return None
        x = [[Fraction(0)] * b.ncols for _ in range(n)]
        for r_idx, pc in enumerate(pivots):
            for j in range(b.ncols):
                x[pc][j] = rref[r_idx, n + j]
        return FracMat(x) if n > 0 else None

    def hstack(self, other: "FracMat") -> "FracMat":
        if self.nrows != other.nrows:
            raise ValueError("hstack requires matching row counts")
        return FracMat(
            [list(ra) + list(rb) for ra, rb in zip(self._rows, other._rows)]
        )

    def vstack(self, other: "FracMat") -> "FracMat":
        if self.ncols != other.ncols:
            raise ValueError("vstack requires matching column counts")
        return FracMat(self._rows + other._rows)
