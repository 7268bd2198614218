"""Macro-communication detection (Section 4).

Given a residual communication — statement ``S`` with schedule
``theta_S`` and allocation ``M_S``, array ``a`` with allocation ``M_a``
accessed through ``F_a`` — the paper characterizes each macro pattern by
a kernel condition on the iteration-space displacement ``I' - I``:

==========  =============================================  =================
pattern      displacement set                                triggered by
==========  =============================================  =================
broadcast    ``ker θ ∩ ker F_a  \\  ker M_S``                read
scatter      ``ker θ ∩ ker(M_a F_a) \\ (ker M_S ∩ ker F_a)``  read
gather       ``ker θ ∩ ker(M_a F_a) \\ (ker M_S ∩ ker F_a)``  write
reduction    ``ker θ ∩ ker M_S  \\  ker(M_a F_a)``            write (accum.)
==========  =============================================  =================

The *processor-space* directions are the images ``M_S v_i`` (broadcast /
scatter / gather) of the displacement directions.  With ``p`` the
number of independent displacement directions visible on the grid:
``p = m`` → total, ``1 <= p < m`` → partial, ``p = 0`` → hidden (plain
point-to-point).  A partial pattern is *efficient* only when performed
parallel to grid axes; :func:`axis_parallel` tests this and
:func:`axis_alignment_rotation` produces the unimodular fix via the
right Hermite form (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..linalg import (
    IntMat,
    kernel_difference_directions,
    kernel_intersection_basis,
    rank,
    right_hermite_narrow,
    unimodular_inverse,
)


class MacroKind(Enum):
    BROADCAST = "broadcast"
    SCATTER = "scatter"
    GATHER = "gather"
    REDUCTION = "reduction"


class Extent(Enum):
    TOTAL = "total"
    PARTIAL = "partial"
    HIDDEN = "hidden"


@dataclass(frozen=True)
class MacroComm:
    """A detected macro-communication pattern (frozen: step 2 shares
    one verdict between every residual that asks the same question)."""

    kind: MacroKind
    #: displacement directions in iteration space (columns)
    iteration_directions: List[IntMat]
    #: their images on the virtual grid (columns, m x 1); empty for
    #: reductions (whose direction lives at the *source* allocation)
    grid_directions: List[IntMat]
    extent: Extent

    @property
    def p(self) -> int:
        return len(self.iteration_directions)

    def direction_matrix(self) -> Optional[IntMat]:
        """The ``m x p`` matrix ``D = [M_S v_1 ... M_S v_p]`` (or None
        when there is no grid direction)."""
        cols = [d.column_tuple(0) for d in self.grid_directions]
        if not cols:
            return None
        return IntMat(list(zip(*cols)))

    @property
    def axis_parallel(self) -> bool:
        d = self.direction_matrix()
        if d is None:
            return True
        return axis_parallel(d)


def _classify_extent(n_dirs: int, m: int) -> Extent:
    if n_dirs == 0:
        return Extent.HIDDEN
    if n_dirs >= m:
        return Extent.TOTAL
    return Extent.PARTIAL


def _grid_images(ms: IntMat, dirs: List[IntMat]) -> List[IntMat]:
    """Independent non-zero images ``M_S v`` of the displacement dirs."""
    images: List[IntMat] = []
    accepted: Optional[IntMat] = None  # the images so far, as columns
    for v in dirs:
        img = ms @ v
        if img.is_zero():
            continue
        trial = img if accepted is None else accepted.hstack(img)
        if rank(trial) == len(images) + 1:
            accepted = trial
            images.append(img)
    return images


def detect_broadcast(
    theta: IntMat, f_a: IntMat, m_s: IntMat
) -> Optional[MacroComm]:
    """Broadcast test for a read access (Section 4.1).

    Returns the pattern (possibly hidden) or ``None`` when the kernel
    intersection is trivial (no two instances share the datum at the
    same time step)."""
    dirs = kernel_difference_directions([theta, f_a], m_s)
    inter_dim = _inter_dim([theta, f_a])
    if inter_dim == 0:
        return None
    grid = _grid_images(m_s, dirs)
    m = m_s.nrows
    return MacroComm(
        kind=MacroKind.BROADCAST,
        iteration_directions=dirs,
        grid_directions=grid,
        extent=_classify_extent(len(grid), m),
    )


def detect_scatter(
    theta: IntMat, f_a: IntMat, m_a: IntMat, m_s: IntMat
) -> Optional[MacroComm]:
    """Scatter test for a read access (Section 4.2): several *distinct*
    data items leave one processor for several processors."""
    ma_fa = m_a @ f_a
    outside = m_s.vstack(f_a)  # ker M_S ∩ ker F_a = ker [M_S ; F_a]
    if _inter_dim([theta, ma_fa]) == 0:
        return None
    dirs = kernel_difference_directions([theta, ma_fa], outside)
    # a scatter direction must move both the datum and the destination
    dirs = [v for v in dirs if not (f_a @ v).is_zero() and not (m_s @ v).is_zero()]
    grid = _grid_images(m_s, dirs)
    m = m_s.nrows
    return MacroComm(
        kind=MacroKind.SCATTER,
        iteration_directions=dirs,
        grid_directions=grid,
        extent=_classify_extent(len(grid), m),
    )


def detect_gather(
    theta: IntMat, f_a: IntMat, m_a: IntMat, m_s: IntMat
) -> Optional[MacroComm]:
    """Gather test for a write access (Section 4.3) — the inverse of a
    scatter: distinct data from distinct processors reach one
    processor.  Directions move the *computing* processor while fixing
    the owner of the written region."""
    ma_fa = m_a @ f_a
    outside = m_s.vstack(f_a)
    if _inter_dim([theta, ma_fa]) == 0:
        return None
    dirs = kernel_difference_directions([theta, ma_fa], outside)
    dirs = [v for v in dirs if not (f_a @ v).is_zero() and not (m_s @ v).is_zero()]
    grid = _grid_images(m_s, dirs)
    m = m_s.nrows
    return MacroComm(
        kind=MacroKind.GATHER,
        iteration_directions=dirs,
        grid_directions=grid,
        extent=_classify_extent(len(grid), m),
    )


def detect_reduction(
    theta: IntMat, f_b: IntMat, m_b: IntMat, m_s: IntMat
) -> Optional[MacroComm]:
    """Reduction test (Section 4.4): at one time step a single computing
    processor consumes values owned by several processors; the
    displacement set is ``ker θ ∩ ker M_S \\ ker(M_b F_b)``."""
    mb_fb = m_b @ f_b
    if _inter_dim([theta, m_s]) == 0:
        return None
    dirs = kernel_difference_directions([theta, m_s], mb_fb)
    # reduction fan-in directions live at the data allocation
    grid = _grid_images(mb_fb, dirs)
    m = m_s.nrows
    return MacroComm(
        kind=MacroKind.REDUCTION,
        iteration_directions=dirs,
        grid_directions=grid,
        extent=_classify_extent(len(grid), m),
    )


def _inter_dim(mats: List[IntMat]) -> int:
    return len(kernel_intersection_basis(mats))


# ---------------------------------------------------------------------------
# axis parallelism (Section 4.1, partial broadcast conditions)
# ---------------------------------------------------------------------------

def axis_parallel(d_mat: IntMat) -> bool:
    """True iff the direction matrix ``D`` spans a coordinate subspace:
    up to a row permutation ``D = [D1 ; 0]`` with ``D1`` square of full
    rank — equivalently the non-zero rows of ``D`` number exactly
    ``rank(D)``."""
    nonzero_rows = sum(1 for row in d_mat.rows() if any(x != 0 for x in row))
    return nonzero_rows == rank(d_mat)


def axis_alignment_rotation(d_mat: IntMat) -> IntMat:
    """The unimodular ``V`` making ``V D`` axis-parallel.

    Decompose ``D = Q [H ; 0]`` (right Hermite form); then
    ``V = Q^{-1}`` sends the broadcast directions onto the first ``p``
    grid axes.  Left-multiplying every allocation matrix of the
    connected component by ``V`` implements the rotation.
    """
    q, _h = right_hermite_narrow(d_mat)
    return unimodular_inverse(q)


# ---------------------------------------------------------------------------
# message vectorization (Section 4.5)
# ---------------------------------------------------------------------------

def can_vectorize(m_s: IntMat, m_a: IntMat, f_a: IntMat) -> bool:
    """Message-vectorization condition ``ker M_S ⊆ ker(M_a F_a)``: the
    source processor of the data read by a fixed virtual processor does
    not depend on the time step, so per-step messages can be hoisted
    and coalesced into one packet."""
    ma_fa = m_a @ f_a
    stacked = m_s.vstack(ma_fa)
    return rank(stacked) == rank(m_s)
