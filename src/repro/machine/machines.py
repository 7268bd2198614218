"""Machine model presets: the mesh model (Paragon-style 2-D,
T3D-style 3-D) and the CM-5-style fat tree.

**Mesh model** — a mesh of any rank with per-link serialization; costs
come from the analytic contention model (cross-checked by the
event-driven simulator).  On a 2-D mesh it is the Paragon of Table 2,
Figure 7 and Figure 8; on a 3-D mesh the T3D (the paper's m = 3 case),
same ``PhaseReport`` timing surface over the same dimension-order
routes.

**CM-5 model** — what Table 1 needs is the *structure* of the CM-5:

* a control network with hardware combine/broadcast: collectives cost a
  few hardware cycles per tree level plus a tiny per-element cost;
* a fat-tree data network where a translation is a contention-free
  permutation paid at software message overhead + bandwidth;
* general affine communication additionally pays per-element software
  address generation and fat-tree contention.

The constants below encode plausible magnitude *relationships* (a
hardware tree cycle is much cheaper than a software message dispatch;
per-element software handling costs a few bandwidth units); Table 1's
qualitative ordering — reduction ≈ broadcast ≪ translation ≪ general —
follows from the structure, not from fitting the paper's numbers.

The name→factory **registry** lives in :mod:`repro.machine.model`; the
presets register themselves at import: ``paragon`` (2-D mesh model),
``cm5`` (2-D mesh model + fat-tree collectives) and ``t3d`` (3-D mesh
model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .contention import (
    CostParams,
    PhaseReport,
    SegmentedPhaseReport,
    phase_times_segmented,
)
from .eventsim import EventSimulator
from .model import MachineSpec, register_machine
from .patterns import affine_pattern, decomposed_phases
from .topology import Mesh, Message


@dataclass(init=False)
class MeshModel:
    """Mesh machine with link contention, any mesh rank:
    ``MeshModel(p, q)`` is Paragon-like, ``MeshModel(p, q, r)``
    T3D-like (the paper's m = 3 case)."""

    mesh: Mesh
    params: CostParams

    def __init__(self, *sides: int, params: Optional[CostParams] = None):
        self.mesh = Mesh(*sides)
        self.params = CostParams() if params is None else params

    def time_phase(self, messages: Sequence[Message]) -> PhaseReport:
        """One phase, priced as a one-segment kernel launch."""
        return self._launch([messages]).report(0)

    def time_phases_segmented(
        self, senders, receivers, sizes, phase_ids, n_phases=None,
        phase_dims=None,
    ) -> SegmentedPhaseReport:
        """All phases of a pricing call, as endpoint coordinate
        matrices plus an int64 segment column, priced by one launch of
        the kernel (:func:`~repro.machine.contention.phase_times_segmented`)
        that also serves :meth:`time_phase` — the executor's pricing
        entry.  ``phase_dims`` puts each phase on its own mesh of this
        model's rank (``None``: on :attr:`mesh`)."""
        return phase_times_segmented(
            self.mesh, senders, receivers, sizes, phase_ids, self.params,
            n_phases=n_phases, phase_dims=phase_dims,
        )

    def time_phases(self, phases: Iterable[Sequence[Message]]) -> float:
        """Phases run one after the other (the decomposed-communication
        schedule: L then U, not in parallel), priced in one launch; the
        times are summed in phase order."""
        return sum(self._launch(phases).times.tolist())

    def _launch(
        self, phases: Iterable[Sequence[Message]]
    ) -> SegmentedPhaseReport:
        """One kernel launch over ``phases``, one segment per phase."""
        rank = self.mesh.ndim
        phases = [list(phase) for phase in phases]
        msgs = [m for phase in phases for m in phase]
        return self.time_phases_segmented(
            np.array([m.src for m in msgs], dtype=np.int64).reshape(-1, rank),
            np.array([m.dst for m in msgs], dtype=np.int64).reshape(-1, rank),
            np.array([m.size for m in msgs], dtype=np.int64),
            np.repeat(
                np.arange(len(phases), dtype=np.int64),
                [len(phase) for phase in phases],
            ),
            n_phases=len(phases),
        )

    def time_event_driven(self, phases: Iterable[Sequence[Message]]) -> float:
        sim = EventSimulator(self.mesh, self.params)
        return sim.run_phases(phases)

    # -- compiler-level communication costing ---------------------------
    #
    # A *general* affine communication has no compile-time regular
    # structure: the runtime sends one message per element (this is the
    # situation the paper describes — "letting all processors send
    # their messages simultaneously" — and the reason decomposition
    # helps).  An *elementary* (axis-parallel) phase has regular
    # strides, so all elements for one destination coalesce into a
    # single vectorized message.

    def time_general(self, dists, t_mat, size: int = 1) -> float:
        """Direct execution of data-flow matrix ``t_mat``: element-wise
        messages (not vectorizable by the compiler).  ``dists`` holds
        one 1-D distribution per mesh axis."""
        return self.time_phase(
            affine_pattern(dists, t_mat, size=size, merge=False)
        ).time

    def time_decomposed(self, dists, factors, size: int = 1) -> float:
        """Execution of ``t = f1 @ f2 @ ...`` as coalesced axis-parallel
        phases."""
        return self.time_phases(decomposed_phases(dists, factors, size=size))


@dataclass
class CM5Model:
    """Fat-tree machine with hardware collectives (CM-5-like).

    Parameters (time units are arbitrary but shared):

    * ``hw_cycle`` — control-network cost per tree level;
    * ``ctl_per_elem`` — per-element cost on the control network
      (combine/broadcast bandwidth);
    * ``sw_overhead`` — software cost of posting one message on the
      data network;
    * ``data_per_elem`` — data-network bandwidth cost per element;
    * ``addr_per_elem`` — per-element software address generation for
      irregular (general affine) patterns;
    * ``contention`` — fat-tree slowdown factor for non-permutation /
      irregular traffic.
    """

    nodes: int = 32
    hw_cycle: float = 1.0
    ctl_per_elem: float = 0.25
    sw_overhead: float = 25.0
    data_per_elem: float = 1.0
    addr_per_elem: float = 3.0
    contention: float = 2.0

    @property
    def tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(self.nodes)))

    def reduction_time(self, size: int = 100) -> float:
        """Hardware combine on the control network."""
        return self.hw_cycle * self.tree_depth + self.ctl_per_elem * size

    def broadcast_time(self, size: int = 100) -> float:
        """Hardware broadcast: same tree, slightly more per-element
        traffic (every node receives the payload)."""
        return self.hw_cycle * self.tree_depth + 1.2 * self.ctl_per_elem * size

    def macro_times_segmented(self, kind: str, sizes) -> np.ndarray:
        """Vectorized collective pricing: the time of one ``kind``
        collective per entry of ``sizes`` (the macro/collective segment
        lane of the fused pricing path).  Performs the same IEEE float
        operations in the same order as :meth:`reduction_time` /
        :meth:`broadcast_time`, so each entry is bit-identical to the
        scalar call."""
        sizes = np.asarray(sizes, dtype=np.int64).astype(np.float64)
        if kind == "reduction":
            return self.hw_cycle * self.tree_depth + self.ctl_per_elem * sizes
        return (
            self.hw_cycle * self.tree_depth
            + 1.2 * self.ctl_per_elem * sizes
        )

    def translation_time(self, size: int = 100) -> float:
        """Uniform shift: a contention-free permutation on the data
        network, one software message per node."""
        return self.sw_overhead + self.data_per_elem * size

    def general_time(self, size: int = 100) -> float:
        """General affine pattern: software address generation per
        element plus contended fat-tree traffic."""
        return self.sw_overhead + size * (
            self.data_per_elem * self.contention + self.addr_per_elem
        )

    def table1_ratios(self, size: int = 100) -> List[float]:
        """Execution-time ratios normalised to the reduction (the
        paper's Table 1 row)."""
        base = self.reduction_time(size)
        return [
            1.0,
            self.broadcast_time(size) / base,
            self.translation_time(size) / base,
            self.general_time(size) / base,
        ]


# ---------------------------------------------------------------------------
# registry entries — the names the CLI and the campaign layer speak
# ---------------------------------------------------------------------------

register_machine(
    MachineSpec(
        name="paragon",
        mesh_rank=2,
        factory=MeshModel,
        description="2-D mesh, analytic link contention (Paragon-like)",
    )
)
register_machine(
    MachineSpec(
        name="cm5",
        mesh_rank=2,
        factory=MeshModel,
        collectives=lambda nodes: CM5Model(nodes=nodes),
        description=(
            "2-D mesh point-to-point pricing + fat-tree hardware "
            "collectives (CM-5-like)"
        ),
    )
)
register_machine(
    MachineSpec(
        name="t3d",
        mesh_rank=3,
        factory=MeshModel,
        description="3-D mesh, analytic link contention (Cray T3D-like)",
    )
)
