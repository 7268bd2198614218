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
    schedule_violations,
    trivial_schedules,
)
# renamed so that pytest does not collect it as a test
from repro.ir.dependence import test_dependence as dependence_verdict
from repro.linalg import IntMat

from oracles.legality import schedule_violations_python
from oracles.schedule import infer_schedules_probing

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
LIMIT = 25
VARS = "ijk"
ARRAYS = {"a": 1, "b": 2, "c": 2}

SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _loops(shape, depth):
    """The first ``depth`` loops of a rect, tri or 3-D tri nest (every
    statement shares the outer loops by name, so prefixes interleave)."""
    if shape == "rect":
        bounds = [(0, "N")] * 3
    elif shape == "tri":
        bounds = [(0, "N"), ("i", "N"), (0, "N")]
    else:  # tri3d
        bounds = [(0, "N"), ("i", "N"), (0, "j")]
    return [(VARS[d], lo, hi) for d, (lo, hi) in enumerate(bounds[:depth])]


@st.composite
def generated_nests(draw):
    """``(nest, params)`` of one to three statements with small affine
    accesses, so pairs on one array are often, but not always,
    disproved."""
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

    for k in range(draw(st.integers(1, 3))):
        depth = draw(st.integers(1, full))
        b.statement(
            f"S{k}",
            _loops(shape, depth),
            writes=[access(depth)],
            reads=[access(depth) for _ in range(draw(st.integers(0, 2)))],
        )
    return b.build(), {"N": draw(st.integers(1, 3))}


def _schedules(nest, params):
    """The inferred schedule and two mutants that are illegal for most
    dependent nests: all parallel, and the outer loop run backwards.
    (Outer-sequential inference does not order two statements inside
    one step, so the inferred schedule can be illegal too.)"""
    reversed_outer = ScheduledNest(
        nest,
        {
            s.name: Schedule(IntMat([[-1] + [0] * (s.depth - 1)]))
            for s in nest.statements
        },
    )
    return [infer_schedules(nest, params), trivial_schedules(nest), reversed_outer]


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
