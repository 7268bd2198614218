"""Rational (``Fraction``) reference for the exact-kernel layer.

``repro.linalg.kernels`` computes ranks and kernels with fraction-free
integer elimination and memoizes them.  This module is what they must
agree with, bit for bit: the textbook Gauss–Jordan reduction over
:class:`~fractions.Fraction` (``FracMat.rref``), with no cache.

* :func:`rank` / :func:`nullspace` — rank and right-nullspace basis of a
  :class:`FracMat` (or :class:`IntMat`);
* :func:`integer_kernel_basis`, :func:`kernel_dim`,
  :func:`kernel_difference_directions` — the ``repro.linalg`` twins;
* :func:`fracmat_kernels` — runs a block with the macro detectors of
  ``repro.macrocomm.detect`` looking up these twins instead;
* :func:`matmul`, :func:`det`, :func:`unimodular_inverse` — references
  for ``IntMat.matmul``, ``IntMat.det`` and
  ``repro.linalg.unimodular_inverse``: an object-dtype NumPy product,
  ``Fraction`` Gaussian elimination and ``FracMat.inverse``.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import List, Sequence, Union

import numpy as np

import repro.macrocomm.detect as detect
from repro.linalg import FracMat, IntMat
from repro.linalg.kernels import _primitive


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
