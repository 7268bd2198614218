"""Differential test at the exactness guards of extraction and legality.

Hypothesis draws small rectangular and triangular nests and shifts
their access offsets (to 2^61, 2^62 + k or 2^70) or their loop bounds
(to 2^61 or 2^62 + k; the domain point matrices are int64), so the
int64 bound of the affine stages fails and the legality checker and
``MappedProgram.comm_batches`` run on their exact lanes — the same
vectorized algorithm on object arrays of Python ints.  Each must agree
with its per-element oracle:

* ``schedule_violations`` with ``schedule_violations_python``, message
  strings and order, on the nest plus one access-free depth-0
  statement (an access has at least one column, so a depth-0
  statement never has one);
* ``comm_batches`` with ``comm_events_python`` and ``execute`` with
  ``execute_python`` wherever every time and virtual coordinate fits
  int64; elsewhere ``comm_batches`` raises ``OverflowError``.

Each ``*.fallbacks`` counter rises at most once per call, exactly once
when a shift reaches 2^62, and never on an unshifted nest.

Legality and extraction read one domain stage, cached on the scheduled
nest: legality run after an extraction (one that raised
``OverflowError`` included) reads the stage the extraction built and
still equals its oracle, and a nest whose schedule times pass int64
keeps its exact times for the witness search.

The same guards are drawn on 3-D triangular nests (3-D arrays, depth-3
statements with ``i <= j <= k`` or ``k <= j`` domains) compiled with
``m = 3`` and folded onto two rank-3 meshes: the stacked extraction of
each folding matches the per-element events, ``execute`` matches
``execute_python``, and ``runtime.comm_batches.fallbacks`` counts the
exact-lane virtual stage once per mapping and size bindings, however
many foldings read it.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_nest
from repro.ir import (
    NestBuilder,
    Schedule,
    ScheduledNest,
    outer_sequential_schedules,
    schedule_violations,
    trivial_schedules,
)
from repro.ir.domain import DOMAIN_CACHE
from repro.ir.loopnest import Statement
from repro.linalg import IntMat
from repro.machine import MeshModel
from repro.obs import metrics
from repro.runtime import execute, execute_python

from oracles.events import comm_events
from oracles.legality import schedule_violations_python

OFFSET_SHIFTS = [2**61, 2**62 + 1, 2**62 + 7, 2**70]
#: loop bounds stay inside int64 (``Domain.point_matrix`` is int64)
BOUND_SHIFTS = [2**61, 2**62 + 1, 2**62 + 7]
#: access matrices by statement depth (arrays are 2-D)
F_MENU = {
    1: [[[1], [0]], [[0], [1]], [[1], [1]], [[1], [-1]]],
    2: [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[1, 0], [1, 0]],
    ],
}
MESHES = [(2, 2), (3, 2), (4, 4)]
LIMIT = 25
INT64 = (-(2**63), 2**63 - 1)


@st.composite
def shifted_nests(draw):
    """``(shift, scheduled nest)``: ``shift`` is 0 for an unshifted
    nest, else the magnitude added to the offsets or loop bounds."""
    where = draw(st.sampled_from(["none", "offsets", "bounds", "bounds"]))
    shift = 0
    if where != "none":
        shift = draw(
            st.sampled_from(OFFSET_SHIFTS if where == "offsets" else BOUND_SHIFTS)
        )
    base = shift if where == "bounds" else 0
    triangular = draw(st.booleans())
    n = draw(st.integers(1, 3))
    b = NestBuilder("shifted")
    b.array("a", 2).array("b", 2)

    def access(depth, shifted):
        c = [draw(st.integers(-1, 1)) for _ in range(2)]
        if where == "offsets":
            # the first write is always shifted, so every shifted nest
            # has at least one offset past the drawn magnitude
            signs = [draw(st.sampled_from([-1, 1]))] if shifted else []
            signs += [draw(st.sampled_from([-1, 0, 1])) for _ in c[len(signs):]]
            c = [x + s * shift for x, s in zip(c, signs)]
        return (draw(st.sampled_from("ab")), draw(st.sampled_from(F_MENU[depth])), c)

    for k in range(draw(st.integers(1, 2))):
        depth = draw(st.sampled_from([1, 2]))
        loops = [("i", base + 1, base + n)]
        if depth == 2:
            loops.append(("j", "i" if triangular else base + 1, base + n))
        b.statement(
            f"S{k}",
            loops,
            writes=[access(depth, k == 0)],
            reads=[access(depth, False) for _ in range(draw(st.integers(0, 2)))],
        )
    nest = b.build()
    kind = draw(st.sampled_from(["trivial", "outer", "skewed"]))
    if kind == "trivial":
        return shift, trivial_schedules(nest)
    if kind == "outer":
        return shift, outer_sequential_schedules(nest, 1)
    # theta = (1, ..., 1): times reach 2^63 on shifted bounds
    return shift, ScheduledNest(
        nest,
        {s.name: Schedule(IntMat([[1] * s.depth])) for s in nest.statements},
    )


def _counter(name):
    """A callable returning how much ``name`` rose since this call."""
    counter = metrics.counter(name)
    start = counter.value
    return lambda: counter.value - start


def _check_lane_count(rose, shift):
    assert rose in (0, 1)
    if shift == 0:
        assert rose == 0
    elif shift >= 2**62:
        assert rose == 1


def _fits(event):
    lo, hi = INT64
    values = event.time + event.sender_virtual + event.receiver_virtual
    return all(lo <= v <= hi for v in values)


SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(shifted_nests(), st.data())
def test_legality_matches_oracle(case, data):
    shift, scheduled = case
    statements = list(scheduled.nest.statements)
    at = data.draw(st.integers(0, len(statements)))
    statements.insert(at, Statement("D", []))
    flat = ScheduledNest(
        nest=dataclasses.replace(scheduled.nest, statements=statements),
        schedules=scheduled.schedules,
    )
    rose = _counter("ir.legality.fallbacks")
    got = schedule_violations(flat, {}, LIMIT)
    _check_lane_count(rose(), shift)
    assert got == schedule_violations_python(flat, {}, LIMIT)


@SETTINGS
@given(shifted_nests(), st.sampled_from(MESHES))
def test_extraction_and_pricing_match_oracle(case, mesh):
    shift, scheduled = case
    compiled = compile_nest(
        scheduled.nest, m=2, schedules=scheduled, params={},
        check_legality=False,
    )
    machine = MeshModel(*mesh)
    program = compiled.program(machine, {})
    events = program.comm_events_python()
    rose = _counter("runtime.comm_batches.fallbacks")
    if all(_fits(ev) for ev in events):
        assert comm_events(program) == events
        assert execute(program, machine) == execute_python(program, machine)
    else:
        with pytest.raises(OverflowError):
            program.comm_batches()
    _check_lane_count(rose(), shift)
    # legality, run second, reads the domain stage this extraction built
    [stage] = scheduled.__dict__[DOMAIN_CACHE].values()
    rose = _counter("ir.legality.fallbacks")
    got = schedule_violations(scheduled, {}, LIMIT)
    _check_lane_count(rose(), shift)
    assert got == schedule_violations_python(scheduled, {}, LIMIT)
    [after] = scheduled.__dict__[DOMAIN_CACHE].values()
    assert after is stage


def test_time_overflow_keeps_exact_witnesses():
    """A shifted nest whose schedule times pass int64 (bounds at
    2^62 + 1, ``theta = (1, 1)``): the shared stage keeps the exact
    times, so legality finds the oracle's witnesses, while every
    extraction of it raises ``OverflowError``."""
    base = 2**62 + 1
    b = NestBuilder("shifted")
    b.array("a", 2)
    b.statement(
        "S0",
        [("i", base, base + 1), ("j", base, base + 1)],
        writes=[("a", [[1, 0], [0, 1]], [0, 0])],
        reads=[("a", [[0, 1], [1, 0]], [0, 0])],
    )
    nest = b.build()
    scheduled = ScheduledNest(nest, {"S0": Schedule(IntMat([[1, 1]]))})
    compiled = compile_nest(
        nest, m=2, schedules=scheduled, params={}, check_legality=False,
    )
    with pytest.raises(OverflowError):
        compiled.program(MeshModel(2, 2), {}).comm_batches()
    [stage] = scheduled.__dict__[DOMAIN_CACHE].values()
    assert stage.times is None and stage.overflow is not None
    assert stage.stmt_times[0].dtype == object
    rose = _counter("ir.legality.fallbacks")
    got = schedule_violations(scheduled, {}, LIMIT)
    assert rose() == 1
    assert got and got == schedule_violations_python(scheduled, {}, LIMIT)
    assert f"at the same time step ({2 * base + 1},)" in got[0]


def test_generated_cases_reach_both_outcomes():
    """The strategy reaches exact-lane nests whose values fit int64 and
    ones that overflow, under both kinds of shift."""
    seen = set()

    @settings(max_examples=150, deadline=None, database=None)
    @given(shifted_nests())
    def probe(case):
        shift, scheduled = case
        if shift < 2**62:
            return
        compiled = compile_nest(
            scheduled.nest, m=2, schedules=scheduled, params={},
            check_legality=False,
        )
        events = compiled.program(MeshModel(2, 2), {}).comm_events_python()
        bounds = any(
            s.loops[0].lower.const >= 2**62 for s in scheduled.nest.statements
        )
        seen.add((bounds, all(_fits(ev) for ev in events)))

    probe()
    assert (True, True) in seen and (False, False) in seen


#: depth-3 access matrices onto 3-D arrays
F3_MENU = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [1, 0, 0], [0, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 1, 0]],
]
MESHES_3D = [(2, 2, 2), (3, 2, 2), (2, 3, 2)]


@st.composite
def shifted_3d_nests(draw):
    """``(shift, scheduled nest)`` like :func:`shifted_nests`, on
    triangular depth-3 statements over 3-D arrays."""
    where = draw(st.sampled_from(["none", "offsets", "offsets", "bounds"]))
    shift = 0
    if where != "none":
        shift = draw(
            st.sampled_from(OFFSET_SHIFTS if where == "offsets" else BOUND_SHIFTS)
        )
    base = shift if where == "bounds" else 0
    n = draw(st.integers(1, 3))
    b = NestBuilder("shifted3d")
    b.array("a", 3).array("b", 3)

    def access(shifted):
        c = [draw(st.integers(-1, 1)) for _ in range(3)]
        if where == "offsets":
            signs = [draw(st.sampled_from([-1, 1]))] if shifted else []
            signs += [draw(st.sampled_from([-1, 0, 1])) for _ in c[len(signs):]]
            c = [x + s * shift for x, s in zip(c, signs)]
        return (draw(st.sampled_from("ab")), draw(st.sampled_from(F3_MENU)), c)

    for k in range(draw(st.integers(1, 2))):
        inner = draw(st.sampled_from([("j", base + n), (base + 1, "j")]))
        b.statement(
            f"S{k}",
            [("i", base + 1, base + n), ("j", "i", base + n), ("k", *inner)],
            writes=[access(k == 0)],
            reads=[access(False) for _ in range(draw(st.integers(0, 2)))],
        )
    nest = b.build()
    kind = draw(st.sampled_from(["trivial", "outer", "skewed"]))
    if kind == "trivial":
        return shift, trivial_schedules(nest)
    if kind == "outer":
        return shift, outer_sequential_schedules(nest, 1)
    return shift, ScheduledNest(
        nest, {s.name: Schedule(IntMat([[1, 1, 1]])) for s in nest.statements}
    )


@SETTINGS
@given(shifted_3d_nests(), st.lists(
    st.sampled_from(MESHES_3D), min_size=2, max_size=2, unique=True,
))
def test_3d_extraction_and_pricing_match_oracle(case, meshes):
    shift, scheduled = case
    compiled = compile_nest(
        scheduled.nest, m=3, schedules=scheduled, params={},
        check_legality=False,
    )
    rose = _counter("runtime.comm_batches.fallbacks")
    failures = []
    for mesh in meshes:
        machine = MeshModel(*mesh)
        program = compiled.program(machine, {})
        events = program.comm_events_python()
        if all(_fits(ev) for ev in events):
            assert comm_events(program) == events
            assert execute(program, machine) == execute_python(program, machine)
        else:
            with pytest.raises(OverflowError) as failure:
                program.comm_batches()
            failures.append(str(failure.value))
    # the failed stage is remembered: the second folding re-raises an
    # equal error without running the exact lane again
    assert len(failures) in (0, len(meshes))
    assert len(set(failures)) <= 1
    _check_lane_count(rose(), shift)


def test_3d_cases_reach_both_outcomes():
    """The 3-D strategy reaches exact-lane nests whose values fit int64
    and ones that overflow.  The probe is derandomized: its draws are
    fixed, so the answer does not depend on the run (a random probe of
    150 examples missed one outcome in about one run of ten)."""
    seen = set()

    @settings(
        max_examples=150, deadline=None, database=None, derandomize=True
    )
    @given(shifted_3d_nests())
    def probe(case):
        shift, scheduled = case
        if shift < 2**62:
            return
        compiled = compile_nest(
            scheduled.nest, m=3, schedules=scheduled, params={},
            check_legality=False,
        )
        program = compiled.program(MeshModel(2, 2, 2), {})
        bounds = any(
            s.loops[0].lower.const >= 2**62 for s in scheduled.nest.statements
        )
        seen.add((bounds, all(_fits(ev) for ev in program.comm_events_python())))

    probe()
    assert (True, True) in seen and (False, False) in seen
