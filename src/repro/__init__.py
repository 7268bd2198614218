"""repro — a reproduction of Dion, Randriamaro & Robert,
*How to optimize residual communications?* (IPPS 1996; LIP RR-1995-27).

Public API tour
---------------

* Build a loop nest: :class:`repro.ir.NestBuilder` (or use the paper's
  :func:`repro.ir.motivating_example` / :func:`repro.ir.platonoff_example`).
* Map it: :func:`repro.alignment.two_step_heuristic` returns allocation
  matrices, the local/residual split and the optimized classification
  of every residual (translation / macro / decomposed / general).
* Execute it: fold onto a mesh with :class:`repro.runtime.Folding`,
  run :func:`repro.runtime.execute` against a
  :class:`repro.machine.MeshModel` (optionally with
  :class:`repro.machine.CM5Model` hardware collectives).
* Compare: :mod:`repro.baselines` implements Feautrier-style greedy
  placement and Platonoff's broadcast-first strategy.

Sub-packages: :mod:`repro.linalg` (exact integer linear
algebra), :mod:`repro.ir` (loop nests, dependences, schedules),
:mod:`repro.alignment` (access graph, Edmonds branching, the two-step
heuristic), :mod:`repro.macrocomm` (Section 4 detectors),
:mod:`repro.decomp` (Section 5 decompositions), :mod:`repro.distribution`
(BLOCK/CYCLIC/grouped partition), :mod:`repro.machine` (mesh + fat-tree
models), :mod:`repro.runtime` (executor), :mod:`repro.baselines`,
:mod:`repro.campaign` (generated workloads + parallel sweep runner
with checkpoint/resume).
"""

__version__ = "1.0.0"

from .driver import CompiledNest, compile_nest

from . import (
    alignment,
    baselines,
    campaign,
    decomp,
    distribution,
    ir,
    linalg,
    machine,
    macrocomm,
    runtime,
)

__all__ = [
    "linalg",
    "ir",
    "alignment",
    "macrocomm",
    "decomp",
    "distribution",
    "machine",
    "runtime",
    "baselines",
    "campaign",
    "compile_nest",
    "CompiledNest",
    "__version__",
]
