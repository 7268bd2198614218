"""Declarative sweep grids: nests x machines x meshes x heuristic knobs.

A :class:`SweepSpec` is the campaign's experiment matrix; ``expand()``
turns it into the flat list of :class:`SweepTask` records the runner
consumes.  Every task carries a **stable id** — a SHA-1 digest of its
canonical JSON spec — so a re-expanded grid matches the checkpoint of a
previous (possibly interrupted) run record-for-record, which is what
makes resume exact.

Machine names come from the :mod:`repro.machine.model` registry
(``paragon`` / ``cm5`` / ``t3d``), so the grid may mix mesh ranks:
``expand()`` keeps exactly the *compatible* cells — those where the
machine's mesh rank, the mesh spec's rank and the virtual grid
dimension ``m`` agree — letting one campaign sweep ``4x4`` meshes at
``m = 2`` against Paragon/CM-5 and ``2x2x2`` cubes at ``m = 3``
against the T3D side by side.  A grid with no compatible cell at all
is refused with a friendly error.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..machine import machine_names, machine_spec
from .workloads import (
    Workload,
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)

#: machine model names understood by the runner (mirrors the registry
#: state at import; use :func:`repro.machine.machine_names` for the
#: live list)
MACHINES = machine_names()


def canonical_json(obj) -> str:
    """Deterministic JSON used for task ids and spec digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class SweepTask:
    """One (workload, machine, mesh, m, knobs) cell of the grid."""

    task_id: str
    workload: Workload
    machine: str
    mesh: Tuple[int, ...]
    m: int
    rank_weights: bool

    @cached_property
    def compile_key(self) -> str:
        """Digest of everything the *compile* stage depends on,
        computed on first read (a task is not changed after
        :meth:`make`).

        ``two_step_heuristic`` and the Feautrier baseline are functions
        of the workload, the virtual grid dimension and the heuristic
        knobs alone — the machine and mesh only enter at pricing time.
        Tasks sharing a compile key are grid cells of one compiled
        nest; the runner clusters them per worker and compiles once
        (see :mod:`repro.campaign.runner`).
        """
        spec = {
            "workload": self.workload.to_dict(),
            "m": self.m,
            "rank_weights": self.rank_weights,
        }
        return hashlib.sha1(canonical_json(spec).encode()).hexdigest()[:12]

    @staticmethod
    def make(
        workload: Workload,
        machine: str,
        mesh: Tuple[int, ...],
        m: int,
        rank_weights: bool,
    ) -> "SweepTask":
        spec = {
            "workload": workload.to_dict(),
            "machine": machine,
            "mesh": list(mesh),
            "m": m,
            "rank_weights": rank_weights,
        }
        digest = hashlib.sha1(canonical_json(spec).encode()).hexdigest()[:12]
        return SweepTask(
            task_id=digest,
            workload=workload,
            machine=machine,
            mesh=tuple(mesh),
            m=m,
            rank_weights=rank_weights,
        )


@dataclass
class SweepSpec:
    """The experiment matrix of one campaign."""

    workloads: List[Workload]
    machines: Sequence[str] = ("paragon",)
    meshes: Sequence[Tuple[int, ...]] = ((4, 4),)
    ms: Sequence[int] = (2,)
    rank_weights: Sequence[bool] = (True,)

    def __post_init__(self):
        for name in self.machines:
            machine_spec(name)  # raises a friendly ValueError if unknown

    def expand(self) -> List[SweepTask]:
        """The compatible cells of the grid in deterministic row-major
        order.

        A cell is compatible when the machine's mesh rank, the mesh
        spec's rank and the virtual grid dimension ``m`` all agree —
        mixed-rank grids (``--mesh 4x4,2x2x2 --m 2,3``) expand to
        exactly the cells that can execute.  An entirely incompatible
        grid raises a friendly ``ValueError``.
        """
        ranks = {name: machine_spec(name).mesh_rank for name in self.machines}
        tasks = [
            SweepTask.make(wl, machine, mesh, m, rw)
            for wl in self.workloads
            for machine in self.machines
            for mesh in self.meshes
            for m in self.ms
            for rw in self.rank_weights
            if ranks[machine] == len(mesh) == m
        ]
        if not tasks and self.workloads:
            cells = [
                f"{name} (mesh rank {rank})" for name, rank in ranks.items()
            ]
            raise ValueError(
                "empty sweep grid: no (machine, mesh, m) cell is "
                "compatible — each machine needs mesh rank == m "
                f"(machines: {', '.join(cells)}; meshes: "
                f"{list(len(mm) for mm in self.meshes)}-D; m: "
                f"{list(self.ms)})"
            )
        seen: Dict[str, str] = {}
        for t in tasks:
            if t.task_id in seen:
                raise ValueError(
                    f"duplicate task id {t.task_id} "
                    f"({seen[t.task_id]} vs {t.workload.name}): "
                    "grid contains a repeated cell"
                )
            seen[t.task_id] = t.workload.name
        return tasks

    def digest(self) -> str:
        """Digest of the whole expanded grid (stored in the run meta
        record; a resume with different flags is refused)."""
        return grid_digest(self.expand())


def grid_digest(tasks: Sequence[SweepTask]) -> str:
    """Digest of an already-expanded grid (avoids re-expanding when the
    caller holds the task list)."""
    ids = [t.task_id for t in tasks]
    return hashlib.sha1(canonical_json(ids).encode()).hexdigest()[:12]


def group_by_compile_key(tasks: Sequence[SweepTask]) -> List[List[SweepTask]]:
    """Cluster tasks sharing a :attr:`SweepTask.compile_key`, preserving
    first-occurrence order (groups, and tasks within a group, keep the
    grid's deterministic order).

    The runner dispatches one group — all machine x mesh cells of one
    compiled nest — to one worker, so the compile stage runs once per
    group no matter how the pool schedules work.
    """
    groups: Dict[str, List[SweepTask]] = {}
    order: List[str] = []
    for t in tasks:
        key = t.compile_key
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(t)
    return [groups[k] for k in order]


def order_groups_for_dispatch(
    groups: Sequence[List[SweepTask]], largest_first: bool = False
) -> List[List[SweepTask]]:
    """Dispatch order for a batch of compile-key groups.

    With ``largest_first`` the groups are sorted by descending size
    (ties broken by first task id, so the order stays deterministic) —
    longest-processing-time-first scheduling, which keeps a process
    pool from ending on one straggler group.  Without it the
    first-occurrence grid order is preserved (the inline backend uses
    this so single-process runs append records in grid order).
    """
    if not largest_first:
        return [list(g) for g in groups]
    return sorted(
        (list(g) for g in groups),
        key=lambda g: (-len(g), g[0].task_id if g else ""),
    )


#: workload shape families understood by :func:`default_spec` and the
#: CLI's ``--shapes`` flag
SHAPES = ("rect", "tri")


def default_spec(
    seed: int = 0,
    nests: int = 20,
    include_corpus: bool = True,
    machines: Sequence[str] = ("paragon", "cm5"),
    meshes: Sequence[Tuple[int, ...]] = ((4, 4),),
    ms: Sequence[int] = (2,),
    rank_weights: Sequence[bool] = (True,),
    params: Optional[Dict[str, int]] = None,
    shapes: Sequence[str] = ("rect",),
) -> SweepSpec:
    """The standard campaign grid: ``nests`` generated workloads (plus
    the named corpus) against every compatible machine x mesh x knob
    combination.

    ``shapes`` picks the workload families: ``"rect"`` is the
    historical rectangular generator + corpus (the default — task ids
    and digests of pre-existing campaigns are unchanged); ``"tri"``
    adds the triangular/trapezoidal generator and the triangular
    kernel corpus (LU, Cholesky, back-substitution, triangular
    matmul), exercising the polyhedral domain layer end to end.
    """
    workloads: List[Workload] = []
    for shape in shapes:
        if shape == "rect":
            generated = generate_workloads(seed, nests, params=params)
            named = corpus() if include_corpus else []
        elif shape == "tri":
            generated = generate_triangular_workloads(seed, nests, params=params)
            named = triangular_corpus() if include_corpus else []
        else:
            raise ValueError(
                f"unknown workload shape {shape!r} "
                f"(known: {', '.join(SHAPES)})"
            )
        workloads += named + generated
    return SweepSpec(
        workloads=workloads,
        machines=machines,
        meshes=meshes,
        ms=ms,
        rank_weights=rank_weights,
    )


def shard_tasks(
    tasks: Sequence[SweepTask], index: int, count: int
) -> List[SweepTask]:
    """The ``index``-th of ``count`` stable partitions of a grid.

    Partitioning hashes the task-id *prefix* (the first 8 hex digits of
    the SHA-1 task id), so the assignment of a task to a shard depends
    only on the task itself: every host of a multi-host campaign
    expands the same grid, runs ``--shard i/n`` with its own ``i``, and
    the union of the shard outputs (``campaign merge``) is exactly the
    full grid — no coordination, no overlap.
    """
    if count <= 0:
        raise ValueError(f"shard count must be positive, got {count}")
    if not 0 <= index < count:
        raise ValueError(
            f"shard index {index} out of range for {count} shard(s) "
            "(use 0..n-1)"
        )
    return [t for t in tasks if int(t.task_id[:8], 16) % count == index]
