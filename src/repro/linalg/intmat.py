"""Arbitrary-precision integer matrices.

The whole alignment machinery of the paper works over :math:`\\mathbb{Z}`
(access matrices, allocation matrices, unimodular transforms), and
the matrix equations it solves (``X F = S`` of Lemma 2, weights with
``G F = Id``) are solved for integer unknowns.  Fixed-width dtypes are
unsafe for Hermite/Smith eliminations, whose intermediate entries can
grow quickly, so :class:`IntMat` stores Python ints in an immutable
tuple-of-tuples.  ``Fraction`` entries are accepted on input when they
are integral.

Matrices in the paper's examples are small (at most 3x4), so clarity
and exactness come first: every operation, products and determinants
included, runs on Python ints.  Conversion helpers to ``numpy`` are
provided for the simulator side, which *is* numeric.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple


def _as_int(x: object) -> int:
    """Coerce ``x`` to a Python int, rejecting non-integral values."""
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integral entry {x!r} in integer matrix")
        return x.numerator
    if isinstance(x, float):
        if not x.is_integer():
            raise ValueError(f"non-integral entry {x!r} in integer matrix")
        return int(x)
    # numpy integer scalars and the like
    try:
        ix = int(x)  # type: ignore[call-overload]
    except (TypeError, ValueError) as exc:
        raise TypeError(f"cannot coerce {x!r} to int") from exc
    if ix != x:
        raise ValueError(f"non-integral entry {x!r} in integer matrix")
    return ix


class IntMat:
    """An immutable matrix of Python integers.

    Supports the exact operations the alignment algorithms need:
    multiplication, addition, transpose, determinant (Bareiss), equality
    and hashing (so matrices can be graph-edge weights and dict keys).
    """

    __slots__ = ("_rows", "_shape")

    def __init__(self, rows: Iterable[Iterable[object]]):
        data = tuple(tuple(_as_int(x) for x in row) for row in rows)
        if not data:
            raise ValueError("IntMat must have at least one row")
        ncols = len(data[0])
        if ncols == 0:
            raise ValueError("IntMat must have at least one column")
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows in IntMat")
        self._rows: Tuple[Tuple[int, ...], ...] = data
        self._shape = (len(data), ncols)

    @classmethod
    def _wrap(cls, rows: Tuple[Tuple[int, ...], ...]) -> "IntMat":
        """Trusted constructor: ``rows`` must already be a non-empty,
        rectangular tuple of tuples of Python ints (a result computed
        from validated matrices), so the per-entry checks of
        ``__init__`` are skipped."""
        self = object.__new__(cls)
        self._rows = rows
        self._shape = (len(rows), len(rows[0]))
        return self

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n: int) -> "IntMat":
        """The ``n`` x ``n`` identity matrix."""
        if n <= 0:
            raise ValueError("identity size must be positive")
        return IntMat._wrap(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zeros(m: int, n: int) -> "IntMat":
        """The ``m`` x ``n`` zero matrix."""
        if m <= 0 or n <= 0:
            raise ValueError("matrix dimensions must be positive")
        return IntMat._wrap(((0,) * n,) * m)

    @staticmethod
    def row(entries: Sequence[object]) -> "IntMat":
        """A 1 x n row vector."""
        return IntMat([list(entries)])

    @staticmethod
    def col(entries: Sequence[object]) -> "IntMat":
        """An n x 1 column vector."""
        return IntMat([[e] for e in entries])

    @staticmethod
    def diag(entries: Sequence[object]) -> "IntMat":
        """A square diagonal matrix."""
        n = len(entries)
        return IntMat(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_numpy(arr) -> "IntMat":
        """Build from a 2-D numpy array of integral values.

        Accepts integer, boolean and object dtypes directly, and float
        arrays only when every entry is finite and exactly integral;
        anything else (complex, strings, NaN/inf, fractional floats) is
        rejected with an explicit error instead of being silently
        truncated entry-by-entry.
        """
        import numpy as np

        a = np.asarray(arr)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        kind = a.dtype.kind
        if kind == "f":
            if not np.all(np.isfinite(a)):
                raise ValueError(
                    "from_numpy: float array contains non-finite entries "
                    "(NaN or inf); an integer matrix cannot represent them"
                )
            frac = a != np.floor(a)
            if np.any(frac):
                i, j = (int(x) for x in np.argwhere(frac)[0])
                raise ValueError(
                    f"from_numpy: non-integral entry {a[i, j]!r} at "
                    f"({i}, {j}); pass an exactly-integral array or round "
                    "explicitly before converting"
                )
        elif kind not in "iubO":
            raise TypeError(
                f"from_numpy: unsupported dtype {a.dtype!r}; expected an "
                "integer, boolean, integral-float or object array"
            )
        # __init__ runs every entry through _as_int, which validates
        # object-dtype payloads (Fractions, numpy scalars) exactly.
        return IntMat(a.tolist())

    # ------------------------------------------------------------------
    # basic properties
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

    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The tuple-of-tuples payload (immutable)."""
        return self._rows

    def tolist(self):
        """A fresh list-of-lists copy of the entries."""
        return [list(r) for r in self._rows]

    def to_numpy(self, dtype=None):
        """Convert to a numpy array (default dtype ``int64``)."""
        import numpy as np

        return np.array(self.tolist(), dtype=dtype if dtype is not None else np.int64)

    def __getitem__(self, idx):
        if isinstance(idx, tuple):
            i, j = idx
            return self._rows[i][j]
        return self._rows[idx]

    def row_vector(self, i: int) -> "IntMat":
        """Row ``i`` as a 1 x n matrix."""
        return IntMat._wrap((self._rows[i],))

    def col_vector(self, j: int) -> "IntMat":
        """Column ``j`` as an m x 1 matrix."""
        return IntMat._wrap(tuple((r[j],) for r in self._rows))

    def column_tuple(self, j: int) -> Tuple[int, ...]:
        """Column ``j`` as a plain tuple of ints."""
        return tuple(r[j] for r in self._rows)

    # ------------------------------------------------------------------
    # structure predicates
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def is_identity(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self._rows[i][j] == (1 if i == j else 0)
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    def is_lower_triangular(self) -> bool:
        return all(
            self._rows[i][j] == 0
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_upper_triangular(self) -> bool:
        return all(
            self._rows[i][j] == 0 for i in range(self.nrows) for j in range(min(i, self.ncols))
        )

    def max_abs(self) -> int:
        """The largest absolute value of any entry."""
        return max(abs(x) for r in self._rows for x in r)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "IntMat") -> "IntMat":
        self._check_same_shape(other)
        return IntMat._wrap(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self._rows, other._rows)
            )
        )

    def __sub__(self, other: "IntMat") -> "IntMat":
        self._check_same_shape(other)
        return IntMat._wrap(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self._rows, other._rows)
            )
        )

    def __neg__(self) -> "IntMat":
        return IntMat._wrap(tuple(tuple(-x for x in r) for r in self._rows))

    def __mul__(self, other):
        if isinstance(other, IntMat):
            return self.matmul(other)
        if isinstance(other, int):
            return IntMat._wrap(
                tuple(tuple(x * other for x in r) for r in self._rows)
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return IntMat._wrap(
                tuple(tuple(other * x for x in r) for r in self._rows)
            )
        return NotImplemented

    def __matmul__(self, other: "IntMat") -> "IntMat":
        return self.matmul(other)

    def matmul(self, other: "IntMat") -> "IntMat":
        """Exact matrix product ``self @ other`` (any magnitude)."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch for matmul: {self.shape} @ {other.shape}"
            )
        ot = list(zip(*other._rows))  # columns of other
        return IntMat._wrap(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self._rows
            )
        )

    def transpose(self) -> "IntMat":
        return IntMat._wrap(tuple(zip(*self._rows)))

    @property
    def T(self) -> "IntMat":
        return self.transpose()

    def hstack(self, other: "IntMat") -> "IntMat":
        """Concatenate columns: ``[self | other]``."""
        if self.nrows != other.nrows:
            raise ValueError("hstack requires matching row counts")
        return IntMat._wrap(
            tuple(ra + rb for ra, rb in zip(self._rows, other._rows))
        )

    def vstack(self, other: "IntMat") -> "IntMat":
        """Concatenate rows: ``[self ; other]``."""
        if self.ncols != other.ncols:
            raise ValueError("vstack requires matching column counts")
        return IntMat._wrap(self._rows + other._rows)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "IntMat":
        """Select the given rows and columns, in order."""
        return IntMat([[self._rows[i][j] for j in cols] for i in rows])

    def det(self) -> int:
        """Exact determinant: cofactor expansion for ``n <= 3``, the
        Bareiss fraction-free elimination above."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        r = self._rows
        if n == 1:
            return r[0][0]
        if n == 2:
            return r[0][0] * r[1][1] - r[0][1] * r[1][0]
        if n == 3:
            return (
                r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
            )
        a = [list(row) for row in r]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum(self._rows[i][i] for i in range(self.nrows))

    def gcd_content(self) -> int:
        """GCD of all entries (0 for the zero matrix)."""
        from math import gcd

        g = 0
        for r in self._rows:
            for x in r:
                g = gcd(g, abs(x))
        return g

    # ------------------------------------------------------------------
    # comparisons / hashing / repr
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMat):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join(repr(list(r)) for r in self._rows)
        return f"IntMat([{body}])"

    def pretty(self, indent: str = "") -> str:
        """Aligned multi-line rendering, for reports and error messages."""
        cells = [[str(x) for x in r] for r in self._rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = []
        for r in cells:
            padded = "  ".join(s.rjust(w) for s, w in zip(r, widths))
            lines.append(f"{indent}[ {padded} ]")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _check_same_shape(self, other: "IntMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
