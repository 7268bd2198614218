"""DMPC machine models.

* :mod:`~repro.machine.topology` — the rank-generic :class:`Mesh`
  (2-D Paragon, 3-D T3D, any rank), dimension-order routing and
  messages (endpoints are coordinate tuples of the mesh rank);
* :mod:`~repro.machine.contention` — analytic link-contention timing:
  one kernel prices any number of phases from interval sums along the
  routing lines, with no route lookup;
* :mod:`~repro.machine.eventsim` — event-driven store-and-forward
  simulator (cross-validation);
* :mod:`~repro.machine.routecache` — integer link ids and LRU-cached
  NumPy route arrays, the event simulator's routes;
* :mod:`~repro.machine.patterns` — translation / affine / decomposed /
  broadcast / reduction message generators;
* :mod:`~repro.machine.model` — the :class:`MachineModel` protocol and
  the name→factory registry (``paragon`` / ``cm5`` / ``t3d``);
* :mod:`~repro.machine.machines` — the :class:`MeshModel` and
  :class:`CM5Model` presets.
"""

from .contention import (
    CostParams,
    PhaseReport,
    SegmentedPhaseReport,
    phase_times_segmented,
)
from .eventsim import EventSimulator
from .model import (
    MachineModel,
    MachineSpec,
    machine_for_mesh,
    machine_names,
    machine_spec,
    make_machine,
    register_machine,
)
from .machines import CM5Model, MeshModel
from .routecache import (
    RouteCache,
    clear_route_caches,
    route_cache_for,
    route_cache_stats,
)
from .patterns import (
    affine_pattern,
    broadcast_tree_phases,
    coalesce,
    decomposed_phases,
    message_counts,
    partial_broadcast_row_phases,
    reduction_tree_phases,
    translation_pattern,
)
from .topology import Mesh, Message

__all__ = [
    "Mesh",
    "Message",
    "CostParams",
    "PhaseReport",
    "SegmentedPhaseReport",
    "phase_times_segmented",
    "EventSimulator",
    "MachineModel",
    "MachineSpec",
    "machine_for_mesh",
    "machine_names",
    "machine_spec",
    "make_machine",
    "register_machine",
    "RouteCache",
    "route_cache_for",
    "route_cache_stats",
    "clear_route_caches",
    "MeshModel",
    "CM5Model",
    "translation_pattern",
    "affine_pattern",
    "coalesce",
    "decomposed_phases",
    "broadcast_tree_phases",
    "partial_broadcast_row_phases",
    "reduction_tree_phases",
    "message_counts",
]
