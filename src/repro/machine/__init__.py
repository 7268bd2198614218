"""DMPC machine models.

* :mod:`~repro.machine.topology` / :mod:`~repro.machine.topology3d` —
  2-D and 3-D meshes, dimension-order routing, messages (endpoints are
  coordinate tuples of the mesh rank);
* :mod:`~repro.machine.routecache` — integer link ids and LRU-cached
  NumPy route arrays (the vectorized core; see PERFORMANCE.md);
* :mod:`~repro.machine.contention` — analytic link-contention timing,
  rank-generic over the route caches;
* :mod:`~repro.machine.eventsim` — event-driven store-and-forward
  simulator (cross-validation), rank-generic;
* :mod:`~repro.machine.patterns` — translation / affine / decomposed /
  broadcast / reduction message generators;
* :mod:`~repro.machine.model` — the :class:`MachineModel` protocol and
  the name→factory registry (``paragon`` / ``cm5`` / ``t3d``);
* :mod:`~repro.machine.machines` — :class:`ParagonModel`,
  :class:`T3DModel` and :class:`CM5Model` presets.
"""

from .contention import (
    CostParams,
    PhaseReport,
    SegmentedPhaseReport,
    phase_time,
    phase_times_segmented,
    phased_time,
    total_time,
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
from .machines import CM5Model, ParagonModel, T3DModel
from .routecache import (
    RouteCache,
    RouteCache3D,
    clear_route_caches,
    route_cache_for,
    route_cache_stats,
)
from .topology3d import (
    Mesh3D,
    Message3,
    affine_pattern_3d,
    phase_time_3d,
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
from .topology import Mesh2D, Message

__all__ = [
    "Mesh2D",
    "Message",
    "CostParams",
    "PhaseReport",
    "SegmentedPhaseReport",
    "phase_time",
    "phase_times_segmented",
    "phased_time",
    "total_time",
    "EventSimulator",
    "MachineModel",
    "MachineSpec",
    "machine_for_mesh",
    "machine_names",
    "machine_spec",
    "make_machine",
    "register_machine",
    "RouteCache",
    "RouteCache3D",
    "route_cache_for",
    "route_cache_stats",
    "clear_route_caches",
    "ParagonModel",
    "CM5Model",
    "T3DModel",
    "Mesh3D",
    "Message3",
    "affine_pattern_3d",
    "phase_time_3d",
    "translation_pattern",
    "affine_pattern",
    "coalesce",
    "decomposed_phases",
    "broadcast_tree_phases",
    "partial_broadcast_row_phases",
    "reduction_tree_phases",
    "message_counts",
]
