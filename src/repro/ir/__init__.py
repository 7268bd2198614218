"""Loop-nest intermediate representation and analysis substrate.

* :mod:`repro.ir.access` — affine accesses ``x[F I + c]``;
* :mod:`repro.ir.domain` — polyhedral iteration domains ``A i + B p + c >= 0``;
* :mod:`repro.ir.loopnest` — statements, arrays, bounds, builder DSL;
* :mod:`repro.ir.dependence` — GCD / lattice / Fourier–Motzkin tests;
* :mod:`repro.ir.schedule` — linear multidimensional schedules;
* :mod:`repro.ir.examples` — the paper's Example 1 and Example 5 nests.
"""

from .access import AccessKind, AffineAccess, read, write
from .dependence import (
    Dependence,
    clear_dependence_caches,
    dependence_cache_stats,
    domain_feasible,
    find_dependences,
    gcd_test,
    is_fully_parallel,
    lattice_test,
    test_dependence,
)
from .domain import Constraint, Domain
from .examples import (
    broadcast_example,
    gather_example,
    motivating_example,
    platonoff_example,
    reduction_example,
)
from .loopnest import ArrayDecl, Bound, LoopDim, LoopNest, NestBuilder, Statement
from .legality import schedule_is_legal, schedule_violations
from .parser import NestSyntaxError, parse_nest
from .schedule import (
    Schedule,
    ScheduledNest,
    infer_schedules,
    outer_sequential_schedules,
    trivial_schedules,
)

__all__ = [
    "AccessKind",
    "AffineAccess",
    "read",
    "write",
    "ArrayDecl",
    "Bound",
    "LoopDim",
    "LoopNest",
    "NestBuilder",
    "Statement",
    "Constraint",
    "Domain",
    "Dependence",
    "clear_dependence_caches",
    "dependence_cache_stats",
    "domain_feasible",
    "find_dependences",
    "is_fully_parallel",
    "test_dependence",
    "gcd_test",
    "lattice_test",
    "Schedule",
    "ScheduledNest",
    "trivial_schedules",
    "outer_sequential_schedules",
    "infer_schedules",
    "motivating_example",
    "broadcast_example",
    "gather_example",
    "reduction_example",
    "platonoff_example",
    "parse_nest",
    "NestSyntaxError",
    "schedule_is_legal",
    "schedule_violations",
]
