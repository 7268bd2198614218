"""Rational (``Fraction``) references for the exact linear algebra.

``repro.linalg`` runs on Python ints only.  This module holds what it
must agree with: textbook rational arithmetic on :class:`FracMat`, with
no cache.

* :class:`FracMat` — an immutable matrix of ``Fraction`` entries with
  Gauss–Jordan ``rref``, ``inverse`` and ``solve``;
* :func:`rank` / :func:`nullspace` — rank and right-nullspace basis of a
  :class:`FracMat` (or :class:`IntMat`);
* :func:`integer_kernel_basis`, :func:`kernel_dim`,
  :func:`kernel_difference_directions` — the ``repro.linalg`` twins;
* :func:`fracmat_kernels` — runs a block with the macro detectors of
  ``repro.macrocomm.detect`` looking up these twins instead;
* :func:`matmul`, :func:`det`, :func:`unimodular_inverse` — references
  for ``IntMat.matmul``, ``IntMat.det`` and
  ``repro.linalg.unimodular_inverse``: an object-dtype NumPy product,
  ``Fraction`` Gaussian elimination and ``FracMat.inverse``;
* the rational side of Lemma 2 (paper appendix A.2):
  :func:`pseudoinverse` with its :func:`right_pseudoinverse` /
  :func:`left_pseudoinverse` cases, :func:`compatibility_condition`
  (``X F = S`` has a rational solution iff ``S F^+ F = S``),
  :func:`solve_xf_eq_s` and :func:`solve_xf_eq_s_family`.  The integer
  solve ``repro.linalg.solve_axb`` is checked against them.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.macrocomm.detect as detect
from repro.linalg import IntMat
from repro.linalg.kernels import _primitive


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


def _frac(m: Union[FracMat, IntMat]) -> FracMat:
    return FracMat.from_int(m) if isinstance(m, IntMat) else m


def rank(m: Union[FracMat, IntMat]) -> int:
    """Rank over Q: the number of RREF pivots."""
    return len(_frac(m).rref()[1])


def nullspace(m: Union[FracMat, IntMat]) -> List[FracMat]:
    """Basis of the right nullspace, as ``n x 1`` rational columns: one
    per free column of the RREF."""
    rref, pivots = _frac(m).rref()
    n = rref.ncols
    basis: List[FracMat] = []
    for fc in (j for j in range(n) if j not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r_idx, pc in enumerate(pivots):
            vec[pc] = -rref[r_idx, fc]
        basis.append(FracMat([[v] for v in vec]))
    return basis


def integer_kernel_basis(a_mat: IntMat) -> List[IntMat]:
    """The nullspace scaled to primitive integer columns."""
    out = []
    for b in nullspace(a_mat):
        ints, _ = b.scale_to_int()
        out.append(IntMat.col(_primitive(ints.column_tuple(0))))
    return out


def kernel_dim(a_mat: IntMat) -> int:
    return a_mat.ncols - rank(a_mat)


def kernel_intersection_basis(mats: Sequence[IntMat]) -> List[IntMat]:
    acc = mats[0]
    for m in mats[1:]:
        acc = acc.vstack(m)
    return integer_kernel_basis(acc)


def kernel_difference_directions(
    inside: Sequence[IntMat], outside: IntMat
) -> List[IntMat]:
    """Basis vectors of ``∩ ker(inside)`` completing its intersection
    with ``ker(outside)``: coordinate directions of the coefficient
    space added greedily in index order while the rank rises."""
    inter = kernel_intersection_basis(inside)
    if not inter:
        return []
    b_mat = IntMat(list(zip(*(v.column_tuple(0) for v in inter))))
    small_kernel = integer_kernel_basis(outside @ b_mat)
    p, q = len(inter), len(small_kernel)
    if q == p:
        return []
    chosen: List[int] = []
    current = [list(v.column_tuple(0)) for v in small_kernel]
    for i in range(p):
        cand = [1 if k == i else 0 for k in range(p)]
        if rank(FracMat(current + [cand])) == len(current) + 1:
            current.append(cand)
            chosen.append(i)
            if len(chosen) == p - q:
                break
    return [inter[i] for i in chosen]


@contextmanager
def fracmat_kernels():
    """Run a block with ``repro.macrocomm.detect`` computing every
    kernel and rank through the ``Fraction`` twins above."""
    names = {
        "kernel_difference_directions": kernel_difference_directions,
        "kernel_intersection_basis": kernel_intersection_basis,
        "rank": rank,
    }
    saved = {name: getattr(detect, name) for name in names}
    for name, fn in names.items():
        setattr(detect, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(detect, name, fn)


def matmul(a: IntMat, b: IntMat) -> IntMat:
    """``a @ b`` as a NumPy product of Python-int (object) arrays."""
    prod = np.array(a.tolist(), dtype=object) @ np.array(b.tolist(), dtype=object)
    return IntMat(prod.tolist())


def det(m: IntMat) -> int:
    """Determinant by Gaussian elimination over ``Fraction``: the
    product of the pivots, negated once per row swap."""
    a = [[Fraction(x) for x in row] for row in m.rows()]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert out.denominator == 1
    return out.numerator


def unimodular_inverse(u: IntMat) -> IntMat:
    """The rational inverse of ``u``, which is integral when ``u`` is
    unimodular."""
    return FracMat.from_int(u).inverse().to_int()


# ---------------------------------------------------------------------------
# Lemma 2: one-sided pseudo-inverses and X F = S over Q
# ---------------------------------------------------------------------------

def right_pseudoinverse(x_mat: IntMat) -> FracMat:
    """Moore–Penrose right inverse ``X^T (X X^T)^-1`` of a flat
    full-row-rank matrix."""
    u, v = x_mat.shape
    if u > v:
        raise ValueError("right_pseudoinverse requires a flat matrix (u <= v)")
    xf = FracMat.from_int(x_mat)
    return xf.T @ (xf @ xf.T).inverse()


def left_pseudoinverse(x_mat: IntMat) -> FracMat:
    """Moore–Penrose left inverse ``(X^T X)^-1 X^T`` of a narrow
    full-column-rank matrix."""
    u, v = x_mat.shape
    if u < v:
        raise ValueError("left_pseudoinverse requires a narrow matrix (u >= v)")
    xf = FracMat.from_int(x_mat)
    return (xf.T @ xf).inverse() @ xf.T


def pseudoinverse(x_mat: IntMat) -> FracMat:
    """The (pseudo-)inverse of a full-rank matrix: ordinary inverse if
    square, right inverse if flat, left inverse if narrow."""
    u, v = x_mat.shape
    if u == v:
        return FracMat.from_int(x_mat).inverse()
    if u < v:
        return right_pseudoinverse(x_mat)
    return left_pseudoinverse(x_mat)


def compatibility_condition(s_mat: IntMat, f_mat: IntMat) -> bool:
    """Lemma 2: ``X F = S`` has a rational solution iff ``S F^+ F = S``.

    ``F`` (``a x d``) has full rank.  ``F^+ F`` projects onto the row
    space of ``F``: it is ``Id`` when ``F`` is narrow or square (always
    solvable), and a proper projection when ``F`` is flat.
    """
    sf = FracMat.from_int(s_mat)
    return sf @ pseudoinverse(f_mat) @ FracMat.from_int(f_mat) == sf


def solve_xf_eq_s(s_mat: IntMat, f_mat: IntMat) -> Optional[FracMat]:
    """The rational solution ``X = S F^+`` of ``X F = S``, or ``None``
    when the compatibility condition fails."""
    if not compatibility_condition(s_mat, f_mat):
        return None
    return FracMat.from_int(s_mat) @ pseudoinverse(f_mat)


def solve_xf_eq_s_family(
    s_mat: IntMat, f_mat: IntMat
) -> Optional[Tuple[FracMat, FracMat]]:
    """``(X0, P)`` with every solution of ``X F = S`` equal to
    ``X0 + Y P`` for some ``Y`` (``P = Id - F F^+`` projects onto the
    left kernel of ``F``), or ``None`` when there is none."""
    x0 = solve_xf_eq_s(s_mat, f_mat)
    if x0 is None:
        return None
    ff = FracMat.from_int(f_mat)
    proj = FracMat.identity(f_mat.nrows) - ff @ pseudoinverse(f_mat)
    return x0, proj
