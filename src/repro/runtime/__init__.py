"""Runtime executor: map, fold, extract messages, vectorize, cost.

This package substitutes for running a compiled HPF program on real
hardware — it reproduces exactly which messages exist between physical
processors, how they group into macro-communications and how message
vectorization coalesces them, then prices the result on a machine
model.
"""

from .executor import (
    AccessCommStats,
    CommReport,
    count_nonlocal_virtual,
    execute,
    execute_group,
    execute_python,
)
from .mapping import (
    CommBatch,
    CommEvent,
    Folding,
    MappedProgram,
    PhaseSegments,
)

__all__ = [
    "Folding",
    "MappedProgram",
    "CommBatch",
    "CommEvent",
    "CommReport",
    "AccessCommStats",
    "PhaseSegments",
    "execute",
    "execute_group",
    "execute_python",
    "count_nonlocal_virtual",
]
