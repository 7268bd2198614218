"""The complete two-step mapping heuristic (Section 6).

Step 1 (:func:`~repro.alignment.allocation.align`) zeroes out as many
non-local communications as possible via the weighted access graph and
a maximum branching.  Step 2 — this module — optimizes what remains:

* detect macro-communications (broadcast / scatter / gather /
  reduction) among the residuals and, when a partial pattern is not
  parallel to the grid axes, left-multiply the whole connected
  component's allocations by the unimodular rotation obtained from the
  right Hermite form of the direction matrix;
* classify pure translations (``T = Id``);
* decompose remaining general affine communications into elementary /
  unirow axis-parallel phases, optionally spending the component's
  residual unimodular freedom on a similarity that shortens the
  product;
* record the message-vectorization opportunity of Section 4.5 for
  every residual.

The result object carries everything the runtime executor and the
benchmark harness need to cost the program on a machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..decomp import DecompositionPlan, decompose_dataflow
from ..ir import LoopNest, ScheduledNest, trivial_schedules
from ..linalg import (
    IntMat,
    is_unimodular,
    rank,
    solve_axb,
    unimodular_inverse,
)
from ..linalg.cache import _MISSING, NormalFormCache
from ..macrocomm import (
    Extent,
    MacroComm,
    can_vectorize,
    detect_broadcast,
    detect_gather,
    detect_reduction,
    detect_scatter,
)
from ..obs import span, traced
from .allocation import Alignment, ResidualComm, align
from .access_graph import stmt_node, var_node


@dataclass
class OptimizedResidual:
    """One residual communication after step 2."""

    residual: ResidualComm
    #: "translation" | "macro" | "decomposed" | "general"
    classification: str
    macro: Optional[MacroComm] = None
    decomposition: Optional[DecompositionPlan] = None
    #: the data-flow matrix T (receiver = T . sender + const), if defined
    dataflow: Optional[IntMat] = None
    vectorizable: bool = False

    @property
    def label(self) -> str:
        return self.residual.ref.label


@dataclass
class MappingResult:
    """Full outcome of the two-step heuristic for one loop nest."""

    alignment: Alignment
    schedules: ScheduledNest
    optimized: List[OptimizedResidual]
    #: unimodular rotation applied per component root (identity if none)
    rotations: Dict[str, IntMat] = field(default_factory=dict)

    @property
    def local_count(self) -> int:
        return len(self.alignment.local_labels)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {"local": self.local_count}
        for o in self.optimized:
            out[o.classification] = out.get(o.classification, 0) + 1
        return out

    def residual_by_label(self, label: str) -> OptimizedResidual:
        for o in self.optimized:
            if o.label == label:
                return o
        raise KeyError(label)

    def describe(self) -> str:
        lines = [self.alignment.describe(), "step 2:"]
        for o in self.optimized:
            extra = ""
            if o.macro is not None:
                extra = (
                    f" {o.macro.kind.value}/{o.macro.extent.value}"
                    f" axis_parallel={o.macro.axis_parallel}"
                )
            if o.decomposition is not None:
                extra += f" phases={o.decomposition.num_phases}"
            lines.append(
                f"  {o.label}: {o.classification}{extra}"
                f" vectorizable={o.vectorizable}"
            )
        return "\n".join(lines)


#: macro verdicts per ``(theta, F, M_x, M_S, is_read)``; counters under
#: ``alignment.macro.cache.detect_macro.{hits,misses}``
_macro_cache = NormalFormCache(
    "detect_macro", maxsize=4096, namespace="alignment.macro.cache"
)


def _detect_macro(
    res: ResidualComm, schedules: ScheduledNest
) -> Optional[MacroComm]:
    """The macro-communication verdict of one residual, memoized on
    the matrices it depends on: phase B, phase C and the re-detect
    after a rotation ask the same question, and campaign grids compile
    equal nests many times.  A :class:`MacroComm` is frozen, so hits
    share it safely."""
    key = (
        schedules.schedule_of(res.ref.stmt).theta,
        res.ref.access.F,
        res.M_x,
        res.M_S,
        res.is_read,
    )
    value = _macro_cache.get(key)
    if value is _MISSING:
        value = _macro_verdict(*key)
        _macro_cache.put(key, value)
    return value


def _macro_verdict(
    theta: IntMat, f: IntMat, m_x: IntMat, m_s: IntMat, is_read: bool
) -> Optional[MacroComm]:
    """The memo-free verdict: broadcast, then scatter, for a read;
    reduction, then gather, for a write — the first one that is not
    hidden wins."""
    if is_read:
        bc = detect_broadcast(theta, f, m_s)
        if bc is not None and bc.extent is not Extent.HIDDEN:
            return bc
        sc = detect_scatter(theta, f, m_x, m_s)
        if sc is not None and sc.extent is not Extent.HIDDEN:
            return sc
        return bc or sc
    red = detect_reduction(theta, f, m_x, m_s)
    if red is not None and red.extent is not Extent.HIDDEN:
        return red
    ga = detect_gather(theta, f, m_x, m_s)
    if ga is not None and ga.extent is not Extent.HIDDEN:
        return ga
    return red or ga


def _dataflow_matrix(res: ResidualComm) -> Optional[IntMat]:
    """The integer data-flow matrix ``T`` with ``M_S = T (M_x F)``, i.e.
    receiver = T . sender (+ constant), or ``None`` when no integer ``T``
    exists (irregular residual)."""
    mf = res.M_x @ res.ref.access.F
    if rank(mf) < mf.nrows:
        return None
    sol = solve_axb(mf.T, res.M_S.T)  # T mf = M_S, transposed
    return None if sol is None else sol.particular.T


def _joint_axis_rotation(dirs: List[IntMat]) -> Optional[IntMat]:
    """A unimodular ``V`` sending every column in ``dirs`` (independent,
    primitive) onto a distinct grid axis, or a best-effort rotation for
    a prefix when the joint lattice is not unimodular-completable."""
    from ..linalg import unimodular_completion

    work = list(dirs)
    while work:
        stacked = work[0]
        for extra in work[1:]:
            stacked = stacked.hstack(extra)
        rows = stacked.T  # k x m
        comp = unimodular_completion(rows)
        if comp is not None:
            # comp is m x m unimodular with first k rows = dirs^T, so
            # comp^T has the dirs as its first k columns and
            # V = (comp^T)^{-1} maps them to unit axis vectors.
            return unimodular_inverse(comp.T)
        work.pop()  # drop the lowest-priority direction and retry
    return None


@traced("align.step2")
def optimize_residuals(
    alignment: Alignment,
    schedules: ScheduledNest,
    allow_rotations: bool = True,
) -> MappingResult:
    """Step 2 of the heuristic on an existing step-1 alignment.

    ``allow_rotations=False`` freezes the allocation matrices (used by
    the baselines, whose mappings are fixed by construction): residuals
    are classified and decomposed but never conjugated or rotated.
    """
    rotations: Dict[str, IntMat] = {}
    m = alignment.m

    # --- phase B: axis-align the partial macros of each component -----
    # All broadcast/scatter/gather directions of one component must be
    # made axis-parallel by a *single* unimodular rotation, so we
    # collect up to m independent direction columns per component and
    # align them jointly: if the collected columns extend to a
    # unimodular matrix C (Smith invariants 1), then V = (C^T)^{-1}
    # sends them onto distinct grid axes — this is the general form of
    # the paper's footnote where the rank-deficient access "luckily"
    # becomes axis-parallel under the same V.  When the joint
    # completion fails we drop the lowest-priority directions and
    # retry, degenerating to the single-direction Hermite rotation.
    if allow_rotations:
        comp_dirs: Dict[str, List[IntMat]] = {}
        comp_needs_fix: Dict[str, bool] = {}
        for res in alignment.residuals:
            comp = res.component_root
            macro = _detect_macro(res, schedules)
            if macro is None or macro.extent is not Extent.PARTIAL:
                continue
            comp_needs_fix.setdefault(comp, False)
            if not macro.axis_parallel:
                comp_needs_fix[comp] = True
            bucket = comp_dirs.setdefault(comp, [])
            for col in macro.grid_directions:
                if len(bucket) >= m:
                    break
                trial = bucket + [col]
                stacked = trial[0]
                for extra in trial[1:]:
                    stacked = stacked.hstack(extra)
                if rank(stacked) == len(trial):
                    bucket.append(col)
        for comp, dirs in comp_dirs.items():
            if not comp_needs_fix.get(comp) or not dirs:
                continue
            v = _joint_axis_rotation(dirs)
            if v is not None and not v.is_identity():
                alignment.rotate_component(comp, v)
                rotations[comp] = v

    # --- phase C: classify every residual ------------------------------
    optimized: List[OptimizedResidual] = []
    for res in alignment.residuals:
        comp = res.component_root
        macro = _detect_macro(res, schedules)
        vect = can_vectorize(res.M_S, res.M_x, res.ref.access.F)
        t = _dataflow_matrix(res)

        if t is not None and t.is_identity():
            optimized.append(
                OptimizedResidual(
                    residual=res,
                    classification="translation",
                    macro=macro,
                    dataflow=t,
                    vectorizable=vect,
                )
            )
            continue

        if (
            macro is not None
            and macro.extent is not Extent.HIDDEN
            and macro.axis_parallel
        ):
            optimized.append(
                OptimizedResidual(
                    residual=res,
                    classification="macro",
                    macro=macro,
                    dataflow=t,
                    vectorizable=vect,
                )
            )
            continue

        if t is not None:
            # cross-component residuals have independent rotation
            # freedom: a unimodular T can be rotated away entirely,
            # turning the communication into a translation.
            stmt_comp = alignment.component_root_of[stmt_node(res.ref.stmt)]
            var_comp = alignment.component_root_of[
                var_node(res.ref.access.array)
            ]
            if (
                allow_rotations
                and stmt_comp != var_comp
                and is_unimodular(t)
                and stmt_comp not in rotations
            ):
                v = unimodular_inverse(t)
                alignment.rotate_component(stmt_comp, v)
                rotations[stmt_comp] = v
                t2 = _dataflow_matrix(res)
                optimized.append(
                    OptimizedResidual(
                        residual=res,
                        classification="translation",
                        macro=_detect_macro(res, schedules),
                        dataflow=t2,
                        vectorizable=can_vectorize(
                            res.M_S, res.M_x, res.ref.access.F
                        ),
                    )
                )
                continue
            allow_conj = (
                allow_rotations
                and comp not in rotations
                and stmt_comp == var_comp
            )
            try:
                plan = decompose_dataflow(t, allow_conjugation=allow_conj)
            except ValueError:
                plan = None
            if plan is not None and plan.conjugator is not None:
                alignment.rotate_component(comp, plan.conjugator)
                rotations[comp] = plan.conjugator
            if plan is not None:
                optimized.append(
                    OptimizedResidual(
                        residual=res,
                        classification="decomposed",
                        macro=macro,
                        decomposition=plan,
                        dataflow=t,
                        vectorizable=vect,
                    )
                )
                continue

        optimized.append(
            OptimizedResidual(
                residual=res,
                classification="general",
                macro=macro,
                dataflow=t,
                vectorizable=vect,
            )
        )

    return MappingResult(
        alignment=alignment,
        schedules=schedules,
        optimized=optimized,
        rotations=rotations,
    )


def two_step_heuristic(
    nest: LoopNest,
    m: int,
    schedules: Optional[ScheduledNest] = None,
    root_allocations: Optional[Dict[str, IntMat]] = None,
    use_rank_weights: bool = True,
) -> MappingResult:
    """Run the complete heuristic of Section 6 on a loop nest.

    ``schedules`` defaults to the all-parallel trivial schedule (the
    motivating example's situation); pass
    :func:`~repro.ir.outer_sequential_schedules` output for nests with a
    sequential outer loop like Example 5.
    """
    if schedules is None:
        schedules = trivial_schedules(nest)
    schedules.validate_shapes()
    with span("align.step1"):
        alignment = align(
            nest,
            m,
            root_allocations=root_allocations,
            use_rank_weights=use_rank_weights,
            schedules=schedules,
        )
    return optimize_residuals(alignment, schedules)
