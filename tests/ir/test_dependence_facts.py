"""Dependence facts computed once, checked against their references on
generated rectangular, triangular and 3-D triangular nests.

* :func:`repro.ir.infer_schedules` (one monotone-level walk over the
  dependent pairs) equals the level-probing oracle of
  ``tests/oracles/schedule.py``;
* :func:`repro.ir.schedule_violations` (which skips the pairs
  :func:`~repro.ir.dependence.test_dependence` disproved) equals the
  per-element oracle message for message, on the inferred schedule and
  on mutated illegal ones (trivial, reversed outer loop);
* step 2's macro verdicts are equal with the memo on and off;
* a fresh interpreter compiling and pricing a triangular nest never
  imports ``numpy.ma``.
"""

import os
import subprocess
import sys
import textwrap
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alignment import heuristic, two_step_heuristic
from repro.ir import (
    AccessKind,
    NestBuilder,
    Schedule,
    ScheduledNest,
    infer_schedules,
    outer_sequential_schedules,
    schedule_violations,
)
from repro.ir import dependence
from repro.ir.dependence import _dependent_at, dependence_facts
# renamed so that pytest does not collect it as a test
from repro.ir.dependence import test_dependence as dependence_verdict
from repro.linalg import IntMat
from repro.obs import metrics

from oracles.legality import schedule_violations_python
from oracles.schedule import dependent_within, infer_schedules_probing

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
LIMIT = 25
VARS = "ijk"
ARRAYS = {"a": 1, "b": 2, "c": 2}

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _loops(shape, depth, names=VARS):
    """The first ``depth`` loops of a rect, tri or 3-D tri nest, with
    loop variables ``names`` (statements that share the outer names
    interleave their instances on those loops)."""
    if shape == "rect":
        bounds = [(0, "N")] * 3
    elif shape == "tri":
        bounds = [(0, "N"), (names[0], "N"), (0, "N")]
    else:  # tri3d
        bounds = [(0, "N"), (names[0], "N"), (0, names[1])]
    return [(names[d], lo, hi) for d, (lo, hi) in enumerate(bounds[:depth])]


@st.composite
def generated_nests(draw):
    """``(nest, params)`` of one to three statements with small affine
    accesses, so pairs on one array are often, but not always,
    disproved.  A read may shift the statement's write (a stencil), and
    a later statement may rename its outer or its second loop, so two
    statements can share fewer loops than their common depth."""
    shape = draw(st.sampled_from(["rect", "tri", "tri3d"]))
    full = 2 if shape == "tri" else 3
    b = NestBuilder(f"gen-{shape}")
    for name, dim in ARRAYS.items():
        b.array(name, dim)
    entry = st.sampled_from([0, 0, 1, 1, -1, 2])

    def access(depth):
        arr = draw(st.sampled_from(sorted(ARRAYS)))
        rows = [[draw(entry) for _ in range(depth)] for _ in range(ARRAYS[arr])]
        c = [draw(st.integers(-1, 1)) for _ in range(ARRAYS[arr])]
        return (arr, rows, c)

    def shifted(write):
        # a stencil read of the write: every instance pair keeps one
        # constant index distance
        arr, rows, c = write
        return (arr, rows, [x + draw(st.integers(-1, 1)) for x in c])

    for k in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(1, full))
        names = draw(st.sampled_from([VARS] * 4 + ["pjk", "iqk"])) if k else VARS
        write = access(depth)
        b.statement(
            f"S{k}",
            _loops(shape, depth, names),
            writes=[write],
            reads=[
                shifted(write) if draw(st.booleans()) else access(depth)
                for _ in range(draw(st.integers(0, 2)))
            ],
        )
    return b.build(), {"N": draw(st.integers(1, 3))}


def _not_outer_sequential(nest):
    """Two schedules that are not outer-sequential and are illegal for
    most dependent nests: the outer loop run backwards, and the skewed
    ``theta = (2, 1, ..., 1)``."""
    return [
        ScheduledNest(nest, {
            s.name: Schedule(IntMat([row(s.depth)])) for s in nest.statements
        })
        for row in (lambda d: [-1] + [0] * (d - 1), lambda d: [2] + [1] * (d - 1))
    ]


def _schedules(nest, params):
    """The inferred schedule, every outer-sequential one (``L`` from 0,
    the all-parallel trivial schedule, to the nest's depth) and the two
    of :func:`_not_outer_sequential`.  (Outer-sequential inference does
    not order two statements inside one step, so the inferred schedule
    can be illegal too.)"""
    max_depth = max(s.depth for s in nest.statements)
    return (
        [infer_schedules(nest, params)]
        + [outer_sequential_schedules(nest, L) for L in range(max_depth + 1)]
        + _not_outer_sequential(nest)
    )


def _pair_verdicts(nest, params):
    """``(skipped, kept)``: how many same-array pairs with a write the
    dependence test disproves, and how many it keeps."""
    pairs = nest.all_accesses()
    skipped = kept = 0
    for i, (s1, a1) in enumerate(pairs):
        for s2, a2 in pairs[i:]:
            if a1.array != a2.array:
                continue
            if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
                continue
            if dependence_verdict(s1, a1, s2, a2, params) is None:
                skipped += 1
            else:
                kept += 1
    return skipped, kept


@SETTINGS
@given(generated_nests())
def test_inferred_schedules_match_probing_oracle(case):
    nest, params = case
    got = infer_schedules(nest, params)
    assert got.schedules == infer_schedules_probing(nest, params).schedules


@SETTINGS
@given(generated_nests())
def test_carried_levels_match_the_stacked_oracle(case):
    """Each pair's verdict is the dependence test's; each kept pair's
    carried-level probe on its own lattice equals the stacked re-solve
    at every level up to the pair's common depth; and the level the
    walk recorded for a pair proves it independent there."""
    nest, params = case
    facts = dependence_facts(nest, params)
    pairs = nest.all_accesses()
    for (i, j), pf in facts.pairs.items():
        (s1, a1), (s2, a2) = pairs[i], pairs[j]
        assert pf.kind == dependence_verdict(s1, a1, s2, a2, params)
        if pf.kind is None:
            continue
        for k in range(1, min(s1.depth, s2.depth) + 1):
            assert _dependent_at(
                pf.lattice, s1, s2, params, k, i == j
            ) == dependent_within(s1, a1, s2, a2, params, k)
        level = facts.level(i, j)
        if level is not None:
            assert not dependent_within(s1, a1, s2, a2, params, level)


@SETTINGS
@given(generated_nests())
def test_violations_match_oracle_on_legal_and_mutated_schedules(case):
    nest, params = case
    for scheduled in _schedules(nest, params):
        got = schedule_violations(scheduled, params, LIMIT)
        assert got == schedule_violations_python(scheduled, params, LIMIT)


def _macro_unmemoized(res, schedules):
    return heuristic._macro_verdict(
        schedules.schedule_of(res.ref.stmt).theta,
        res.ref.access.F,
        res.M_x,
        res.M_S,
        res.is_read,
    )


def _step2_outcome(nest, schedules):
    result = two_step_heuristic(nest, m=2, schedules=schedules)
    return result.describe(), [
        (o.label, o.classification, o.macro) for o in result.optimized
    ]


@SETTINGS
@given(generated_nests())
def test_macro_verdicts_equal_with_memo_on_and_off(case):
    nest, params = case
    schedules = infer_schedules(nest, params)
    with mock.patch.object(heuristic, "_detect_macro", _macro_unmemoized):
        want = _step2_outcome(nest, schedules)
    assert _step2_outcome(nest, schedules) == want


def test_generated_nests_skip_and_keep_pairs_on_both_sides():
    """The strategy draws pairs the dependence test disproves and pairs
    it keeps, in nests with a legal and with an illegal checked
    schedule, so the legality skip runs on both sides."""
    seen = set()

    @settings(max_examples=120, deadline=None, database=None)
    @given(generated_nests())
    def probe(case):
        nest, params = case
        skipped, kept = _pair_verdicts(nest, params)
        sides = {
            not schedule_violations(s, params, 1)
            for s in _schedules(nest, params)
        }
        for legal in sides:
            if skipped:
                seen.add(("skip", legal))
            if kept:
                seen.add(("keep", legal))

    probe()
    assert seen == {
        ("skip", True), ("skip", False), ("keep", True), ("keep", False)
    }


def test_compile_and_price_never_import_numpy_ma():
    """``np.intersect1d`` reaches ``np.ma.is_masked``, whose lazy
    ``numpy.ma`` import costs milliseconds in the first cold compile of
    every process; the legality pass intersects labels without it."""
    code = textwrap.dedent(
        """
        import sys
        from repro import compile_nest
        from repro.machine import MeshModel
        from repro.runtime import execute

        src = '''array a(2), b(2)
        for i = 1..n:
          for j = i..n:
            S: a[i, j] = a[i-1, j] + b[j, i]
        '''
        compiled = compile_nest(src, m=2, params={"n": 4})
        machine = MeshModel(4, 4)
        report = execute(compiled.program(machine, {"n": 4}), machine)
        assert report.total_messages > 0
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        """
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


OUTCOMES = ("empty", "disproved", "ordered", "labelled")


def test_ordered_pair_skip_fires_only_under_outer_sequential_schedules():
    """Every candidate pair of a legality check that runs to the end
    (fewer violations than its limit) lands in exactly one
    ``ir.legality.pairs.*`` outcome.  The ordered-pair skip fires, with
    pairs left to label, on generated nests under outer-sequential
    schedules; checking a schedule that is not outer-sequential makes
    no carried-level probe, even on a cold facts memo."""
    seen = set()
    counters = {k: metrics.counter(f"ir.legality.pairs.{k}") for k in OUTCOMES}
    real_probe = dependence._dependent_at

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(generated_nests())
    def probe(case):
        nest, params = case
        candidates = sum(_pair_verdicts(nest, params))
        probes = []

        def counting(*args):
            probes.append(args)
            return real_probe(*args)

        dependence.clear_dependence_caches()
        with mock.patch.object(dependence, "_dependent_at", counting):
            for scheduled in _not_outer_sequential(nest):
                schedule_violations(scheduled, params, LIMIT)
            assert probes == []
            for scheduled in _schedules(nest, params):
                before = {k: c.value for k, c in counters.items()}
                if len(schedule_violations(scheduled, params, LIMIT)) < LIMIT:
                    rose = {k: c.value - before[k] for k, c in counters.items()}
                    assert sum(rose.values()) == candidates
                    seen.update(k for k, n in rose.items() if n)

    probe()
    assert {"disproved", "ordered", "labelled"} <= seen
