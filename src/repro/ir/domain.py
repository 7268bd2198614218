"""Polyhedral iteration domains ``A·i + B·p + c >= 0``.

The paper states the mapping problem for general affine loop nests, but
until this layer existed the repository hard-coded *rectangular*
iteration domains: every :class:`~repro.ir.loopnest.LoopDim` bound was
an affine form over the symbolic size parameters only.  A
:class:`Domain` is a statement's iteration set as a conjunction of
affine inequality constraints over the loop variables ``i`` *and* the
size parameters ``p``:

    ``a_1·i_1 + ... + a_d·i_d + b_1·p_1 + ... + b_k·p_k + c >= 0``

which admits the classic triangular/trapezoidal kernels (LU, Cholesky,
back-substitution: ``for j = i..N``) while keeping rectangular nests as
the trivial special case — a rectangular loop contributes exactly the
two one-variable constraints ``i - lo >= 0`` and ``hi - i >= 0``, so
every pre-existing nest is representable unchanged.

The two consumers shape the API:

* **analysis** (dependence, legality) wants the constraint system —
  :meth:`Domain.halfspaces` returns the ``(A, off)`` pair that turns
  membership of a dense ``(n, d)`` int64 point matrix into one matmul
  plus a comparison (:meth:`Domain.mask`);
* **enumeration** (runtime extraction, bounded legality witnesses)
  wants the points — :meth:`Domain.point_matrix` materializes the
  rectangular *bounding box* (``np.meshgrid``, ``itertools.product``
  row order — the PR-4 dense path) and filters it with the vectorized
  membership mask, so the int64-matmul pipeline downstream survives
  intact.  Extraction and legality enumerate only through it, and
  evaluate their affine maps over it with :func:`affine_rows` — on
  int64 when :func:`int64_proven` holds, else exactly on object
  arrays of Python ints.
  :meth:`Domain.enumerate_points` yields the same points in the same
  order one tuple at a time; only the per-element test oracles walk it
  (through ``Statement.iteration_domain``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Constraint:
    """One affine half-space ``var_coeffs·i + param_coeffs·p + const >= 0``.

    ``var_coeffs`` has one entry per domain variable (in domain order);
    ``param_coeffs`` names the symbolic size parameters it involves.
    """

    var_coeffs: Tuple[int, ...]
    param_coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    def offset(self, params: Dict[str, int]) -> int:
        """The constant part ``param_coeffs·p + const`` under a binding."""
        total = self.const
        for name, k in self.param_coeffs:
            if name not in params:
                raise KeyError(f"unbound size parameter {name!r}")
            total += k * params[name]
        return total

    def holds(self, point: Sequence[int], params: Dict[str, int]) -> bool:
        return (
            sum(a * x for a, x in zip(self.var_coeffs, point))
            + self.offset(params)
            >= 0
        )

    def describe(self, variables: Sequence[str]) -> str:
        terms: List[str] = []
        for name, k in list(zip(variables, self.var_coeffs)) + list(
            self.param_coeffs
        ):
            if k == 0:
                continue
            if k == 1:
                terms.append(name)
            elif k == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{k}*{name}")
        if self.const or not terms:
            terms.append(str(self.const))
        expr = terms[0]
        for t in terms[1:]:
            expr += t if t.startswith("-") else "+" + t
        return f"{expr} >= 0"


class Domain:
    """A statement's iteration set as affine inequality constraints.

    Built from the statement's loop structure by :meth:`from_loops`:
    each loop bound may reference size parameters *and outer loop
    variables*, which is how triangular/trapezoidal nests enter the IR.
    The loop structure is retained so the rectangular bounding box (and
    the exact ``itertools.product`` enumeration order of the
    rectangular special case) can be derived without a general
    projection step.
    """

    def __init__(
        self,
        variables: Sequence[str],
        constraints: Sequence[Constraint],
        loops: Sequence = (),
    ):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self._loops = tuple(loops)
        for con in self.constraints:
            if len(con.var_coeffs) != len(self.variables):
                raise ValueError(
                    f"constraint {con} has {len(con.var_coeffs)} variable "
                    f"coefficient(s), domain has {len(self.variables)} "
                    "variable(s)"
                )

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_loops(loops: Sequence) -> "Domain":
        """The domain of a loop nest: ``lower_k <= i_k <= upper_k`` where
        each bound is affine in the size parameters and the *outer* loop
        variables ``i_1 .. i_{k-1}``.

        A bound referencing the loop's own variable or an inner one is
        rejected — that is not an affine iteration domain.
        """
        variables = tuple(l.var for l in loops)
        index = {v: k for k, v in enumerate(variables)}
        constraints: List[Constraint] = []
        for k, loop in enumerate(loops):
            for bound, sign in ((loop.lower, -1), (loop.upper, 1)):
                # sign=-1: i_k - lower >= 0 ; sign=+1: upper - i_k >= 0
                var_coeffs = [0] * len(variables)
                var_coeffs[k] = -sign
                param_coeffs: List[Tuple[str, int]] = []
                for name, coeff in bound.coeffs:
                    pos = index.get(name)
                    if pos is None:
                        param_coeffs.append((name, sign * coeff))
                    elif pos < k:
                        var_coeffs[pos] += sign * coeff
                    else:
                        raise ValueError(
                            f"bound of loop {loop.var!r} references "
                            f"{name!r}, which is not an outer loop "
                            "variable (affine domains may only look "
                            "outward)"
                        )
                constraints.append(
                    Constraint(
                        var_coeffs=tuple(var_coeffs),
                        param_coeffs=tuple(sorted(param_coeffs)),
                        const=sign * bound.const,
                    )
                )
        return Domain(variables, constraints, loops)

    # -- shape ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def is_rectangular(self) -> bool:
        """True when no constraint couples two loop variables — every
        bound is a pure parameter/constant form (the pre-domain-layer
        special case, kept on the historical fast paths)."""
        return all(
            sum(1 for a in con.var_coeffs if a != 0) <= 1
            for con in self.constraints
        )

    # -- bounding box ---------------------------------------------------

    def box(self, params: Dict[str, int]) -> List[Tuple[int, int]]:
        """Per-variable ``(lo, hi)`` rectangular hull under a binding.

        Computed by interval arithmetic over the loop structure, outer
        to inner: a triangular bound like ``j = i..N`` widens to the
        extreme values its outer intervals allow.  Exact (tight) for
        rectangular domains; a conservative hull otherwise.  An empty
        dimension is returned as an inverted interval ``(lo, lo - 1)``.
        """
        index = {v: k for k, v in enumerate(self.variables)}
        box: List[Tuple[int, int]] = []

        def interval(bound) -> Tuple[int, int]:
            lo = hi = bound.const
            for name, coeff in bound.coeffs:
                pos = index.get(name)
                if pos is None:
                    v = coeff * _param(params, name)
                    lo += v
                    hi += v
                else:
                    a, b = box[pos]
                    lo += coeff * (a if coeff > 0 else b)
                    hi += coeff * (b if coeff > 0 else a)
            return lo, hi

        for loop in self._loops:
            lo = interval(loop.lower)[0]
            hi = interval(loop.upper)[1]
            # an empty dimension is kept as an inverted interval, which
            # enumerates to nothing (any such dimension empties the box)
            box.append((lo, hi) if hi >= lo else (lo, lo - 1))
        return box

    # -- membership -----------------------------------------------------

    def halfspaces(self, params: Dict[str, int]) -> Tuple[np.ndarray, np.ndarray]:
        """The constraint system as ``(A, off)`` int64 arrays: a point
        matrix ``P`` of shape ``(n, d)`` is inside where
        ``P @ A.T + off >= 0`` holds along every row."""
        if not self.constraints:
            return (
                np.empty((0, self.dim), dtype=np.int64),
                np.empty((0,), dtype=np.int64),
            )
        a = np.array([c.var_coeffs for c in self.constraints], dtype=np.int64)
        off = np.array(
            [c.offset(params) for c in self.constraints], dtype=np.int64
        )
        return a, off

    def contains(self, point: Sequence[int], params: Dict[str, int]) -> bool:
        if len(point) != self.dim:
            raise ValueError(
                f"point of length {len(point)} in a {self.dim}-D domain"
            )
        return all(c.holds(point, params) for c in self.constraints)

    def mask(self, points: np.ndarray, params: Dict[str, int]) -> np.ndarray:
        """Vectorized membership of an ``(n, d)`` point matrix: one int64
        matmul against the half-space system plus a row-wise ``all``."""
        a, off = self.halfspaces(params)
        if a.shape[0] == 0:
            return np.ones(points.shape[0], dtype=bool)
        return np.all(points @ a.T + off >= 0, axis=1)

    # -- enumeration ----------------------------------------------------

    def _ranges(self, params: Dict[str, int]) -> List[range]:
        return [range(lo, hi + 1) for lo, hi in self.box(params)]

    def enumerate_points(self, params: Dict[str, int]) -> Iterator[Tuple[int, ...]]:
        """Domain points in bounding-box ``itertools.product`` order —
        for rectangular domains, exactly the historical enumeration."""
        ranges = self._ranges(params)
        if self.is_rectangular:
            return product(*ranges)
        return (
            pt for pt in product(*ranges) if self.contains(pt, params)
        )

    def size(self, params: Dict[str, int]) -> int:
        """Number of iteration points under a binding."""
        if self.is_rectangular:
            total = 1
            for r in self._ranges(params):
                total *= max(0, len(r))
            return total
        return int(self.mask(self._box_matrix(params), params).sum())

    def _box_matrix(self, params: Dict[str, int]) -> np.ndarray:
        """The bounding box as a dense ``(n, d)`` int64 matrix, rows in
        ``itertools.product`` order."""
        ranges = self._ranges(params)
        if not ranges:
            return np.empty((1, 0), dtype=np.int64)
        if any(len(r) == 0 for r in ranges):
            return np.empty((0, len(ranges)), dtype=np.int64)
        axes = [np.arange(r.start, r.stop, dtype=np.int64) for r in ranges]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def point_matrix(self, params: Dict[str, int]) -> np.ndarray:
        """The domain as a dense ``(n, d)`` int64 matrix, rows in
        :meth:`enumerate_points` order.

        Rectangular domains return the full box (no filtering work);
        non-rectangular ones apply the vectorized membership mask to the
        box, preserving the box's row order — the dense int64 matmul
        pipeline of the runtime layer consumes either unchanged.
        """
        pts = self._box_matrix(params)
        if self.is_rectangular or pts.shape[0] == 0:
            return pts
        return pts[self.mask(pts, params)]

    # -- misc -----------------------------------------------------------

    def describe(self) -> str:
        cons = "; ".join(c.describe(self.variables) for c in self.constraints)
        shape = "rectangular" if self.is_rectangular else "polyhedral"
        return f"{shape} domain ({', '.join(self.variables)}): {cons}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.describe()})"


#: int64 safety bound of the affine stages evaluated over point
#: matrices: a stage whose magnitude bound reaches it runs exactly
INT64_SAFE = 2 ** 62


def int64_proven(points: np.ndarray, *stages) -> bool:
    """True when no int64 overflow is possible through the chained
    affine stages ``(mat, off)`` (``off`` may be ``None``) applied to
    the rows of ``points`` — a conservative max-abs bound, in the
    style of the IntMat matmul fast path."""
    bound = int(abs(points).max()) if points.size else 0
    for mat, off in stages:
        bound = mat.ncols * mat.max_abs() * bound + (
            off.max_abs() if off is not None else 0
        )
        if bound >= INT64_SAFE:
            return False
    return True


def affine_rows(points: np.ndarray, mat, off=None) -> np.ndarray:
    """``mat @ I + off`` for every row ``I`` of ``points`` in one
    matmul, in ``points``' dtype (int64, or object for exact Python
    ints): an ``(n, mat.nrows)`` array."""
    out = points @ mat.to_numpy(points.dtype).T
    if off is not None:
        out = out + off.to_numpy(points.dtype).T
    return out


def _param(params: Dict[str, int], name: str) -> int:
    if name not in params:
        raise KeyError(f"unbound size parameter {name!r}")
    return params[name]
