"""Differential test: group pricing against the per-phase oracle.

Hypothesis draws compile-key groups — one compiled nest folded onto
paragon and cm5 cells over two or three 2-D meshes, in any order, at
any payload, with default or non-dyadic cost parameters (so float
fold order shows in the totals) — from a pool that holds macro,
vectorizable and all-local labels, and nests whose statements have
schedules of two widths, in either statement order.
``execute_group`` must equal the per-phase oracle bit for bit (every
``CommReport`` and ``AccessCommStats`` field, floats compared by their
hex form), and ``execute`` must equal ``execute_group`` on each
one-cell group.

A second strategy draws small nests directly — nests of one to
three statements with schedules of different widths and negative
entries, triangular and empty domains, rank-deficient accesses that
the heuristic turns into macro-communications — and checks that
multi-folding ``execute_group`` calls, most of them mixing the
heuristic's cells with the Feautrier baseline's, equal
``execute_python`` cell by cell: the edge cases of the one stacked
group-by per pricing call.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_nest
from repro.alignment import optimize_residuals
from repro.baselines import feautrier_align
from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir.loopnest import NestBuilder
from repro.ir.schedule import Schedule, ScheduledNest
from repro.linalg import IntMat
from repro.machine import CostParams, MeshModel, machine_spec
from repro.runtime import (
    MappedProgram,
    execute,
    execute_group,
    execute_python,
)
from repro.runtime.executor import _classification_of, _vectorizable

from oracles.pricing import execute_group_per_phase

MESHES = [(2, 2), (3, 2), (2, 4), (4, 3), (4, 4)]
#: machines placed on one mesh: either or both, in either order
MESH_MACHINES = [("paragon",), ("cm5",), ("paragon", "cm5"), ("cm5", "paragon")]
COST_PARAMS = [CostParams(), CostParams(alpha=19.7, beta=1.3, gamma=0.41)]


def _mixed_width_builder(s2_first=False, shared_label=False):
    """A depth-2 statement scheduled in one time dimension and a
    depth-3 statement scheduled in two, each reading ``a`` through its
    own label ``R1`` / ``R2`` (``R`` for both with ``shared_label``);
    with ``s2_first`` the depth-3 statement comes first."""
    b = NestBuilder("mixed-width")
    b.array("a", 2).array("b", 2).array("c", 3)
    l2 = [("i", 1, "N"), ("j", 1, "N")]
    l3 = l2 + [("k", 1, "N")]

    def s1():
        b.statement(
            "S1", l2,
            writes=[("b", [[1, 0], [0, 1]], [0, 0], "W1")],
            reads=[
                ("a", [[1, 0], [0, 1]], [0, 0], "A1"),
                ("a", [[0, 1], [1, 0]], [1, 0], "R" if shared_label else "R1"),
            ],
        )

    def s2():
        b.statement(
            "S2", l3,
            writes=[
                ("c", [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], "W2")
            ],
            reads=[
                ("a", [[1, 0, 0], [0, 1, 0]], [0, 0], "A2"),
                ("a", [[1, 1, 0], [0, 0, 1]], [0, 1], "R" if shared_label else "R2"),
            ],
        )

    for statement in (s2, s1) if s2_first else (s1, s2):
        statement()
    return b


def _mixed_width_nest(s2_first=False):
    """:func:`_mixed_width_builder`'s nest compiled under its one- and
    two-dimensional schedules."""
    nest = _mixed_width_builder(s2_first).build()
    schedules = ScheduledNest(
        nest,
        {
            "S1": Schedule.sequential_outer(2, 1),
            "S2": Schedule.sequential_outer(3, 2),
        },
    )
    params = {"N": 3}
    return (
        compile_nest(
            nest, m=2, params=params, schedules=schedules,
            check_legality=False,
        ),
        params,
    )


def _workloads():
    return {
        w.name: w
        for w in corpus()
        + triangular_corpus()
        + generate_workloads(1, 3)
        + generate_triangular_workloads(1, 3)
    }


WORKLOADS = _workloads()
POOL = sorted(WORKLOADS) + ["mixed-width", "mixed-width-seq"]


@functools.lru_cache(maxsize=None)
def compiled(name):
    """``(compiled nest, size bindings)`` of one pool entry."""
    if name.startswith("mixed-width"):
        return _mixed_width_nest(s2_first=name == "mixed-width-seq")
    w = WORKLOADS[name]
    nest = w.resolve()
    params = dict(w.params)
    return (
        compile_nest(
            nest, m=2, schedules=w.resolve_schedules(nest), params=params,
            check_legality=w.check_legality, name=w.name,
        ),
        params,
    )


def fold(name, grid):
    """Cells ``(program, machine, collectives)`` of one pool entry on
    ``(machine name, mesh[, cost params])`` grid entries."""
    c, params = compiled(name)
    cells = []
    for machine_name, mesh, *cost in grid:
        spec = machine_spec(machine_name)
        machine = spec.make(mesh)
        if cost:
            machine = MeshModel(*mesh, params=cost[0])
        cells.append(
            (c.program(machine, params), machine, spec.make_collectives(mesh))
        )
    return cells


def _sends(batch):
    """Rows of ``batch`` that move on both the virtual grid and the
    mesh: the events that survive both locality filters."""
    return np.any(batch.sender_virtual != batch.receiver_virtual, axis=1) & (
        np.any(batch.sender != batch.receiver, axis=1)
    )


def bits(report):
    """Every field of a report, floats by their exact hex form."""

    def norm(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        return v

    return norm(dataclasses.asdict(report))


@st.composite
def groups(draw):
    name = draw(st.sampled_from(POOL))
    meshes = draw(
        st.lists(st.sampled_from(MESHES), min_size=2, max_size=3, unique=True)
    )
    grid = [
        (machine, mesh, draw(st.sampled_from(COST_PARAMS)))
        for mesh in meshes
        for machine in draw(st.sampled_from(MESH_MACHINES))
    ]
    return name, draw(st.permutations(grid)), draw(st.integers(1, 3))


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(groups())
def test_group_matches_per_phase_oracle(group):
    name, grid, payload = group
    cells = fold(name, grid)
    got = execute_group(cells, payload=payload)
    want = execute_group_per_phase(cells, payload=payload)
    assert [bits(r) for r in got] == [bits(r) for r in want]
    for cell, report in zip(cells, got):
        assert bits(execute(*cell, payload=payload)) == bits(
            execute_group([cell], payload=payload)[0]
        ) == bits(report)


def test_pool_covers_every_label_kind():
    """The strategy's pool holds each label kind the pricing path
    branches on."""
    kinds = set()
    for name in POOL:
        cells = fold(name, [("cm5", (4, 4))])
        program = cells[0][0]
        by_label = {}
        for b in program.comm_batches():
            by_label.setdefault(b.access_label, []).append(b)
        for label, batches in by_label.items():
            if _classification_of(program, label) == "macro":
                kinds.add("macro")
            if _vectorizable(program, label):
                kinds.add("vectorizable")
            if not any(_sends(b).any() for b in batches):
                kinds.add("all-local")
    assert kinds == {"macro", "vectorizable", "all-local"}


def test_labels_name_one_access():
    """Every pool nest gives each label one batch, and a label shared
    by two accesses is rejected when the nest is built."""
    for name in POOL:
        c, params = compiled(name)
        batches = c.program(MeshModel(2, 2), params).comm_batches()
        labels = [b.access_label for b in batches]
        assert len(labels) == len(set(labels)), name
    for s2_first in (False, True):
        with pytest.raises(ValueError, match="'R'.*statement S[12].*S[12]"):
            _mixed_width_builder(s2_first, shared_label=True).build()
    # an IR nest assembled without the builder is checked by compile_nest
    nest = _mixed_width_builder().build()
    statements = [
        dataclasses.replace(s, accesses=[
            dataclasses.replace(a, label="R1") if a.label == "R2" else a
            for a in s.accesses
        ])
        for s in nest.statements
    ]
    with pytest.raises(ValueError, match="'R1'"):
        compile_nest(
            dataclasses.replace(nest, statements=statements), m=2,
            params={"N": 3}, check_legality=False,
        )


@pytest.mark.parametrize("payload", [1, 3])
def test_statement_order_does_not_change_a_price(payload):
    """The mixed-width nest prices bit-identically in both statement
    orders, on every cell of a paragon/cm5 grid."""
    grid = [
        (machine, mesh, cost)
        for mesh in [(2, 2), (4, 3)]
        for machine in ("paragon", "cm5")
        for cost in COST_PARAMS
    ]
    first = execute_group(fold("mixed-width", grid), payload=payload)
    second = execute_group(fold("mixed-width-seq", grid), payload=payload)
    assert [bits(r) for r in first] == [bits(r) for r in second]
    assert all(r.total_time > 0 for r in first)


#: the meshes of the launch tests: square and non-square, nested and not
LAUNCH_MESHES = [(2, 2), (3, 2), (4, 4)]


def _count_launches(monkeypatch):
    """The meshes of every point-to-point kernel launch from now on."""
    import repro.machine.machines as machines

    launches = []
    kernel = machines.phase_times_segmented

    def counting(*args, **kwargs):
        launches.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(machines, "phase_times_segmented", counting)
    return launches


@pytest.mark.parametrize(
    "name", ["example1", "gauss", "mixed-width", "mixed-width-seq"]
)
def test_one_kernel_launch_per_pricing_call(name, monkeypatch):
    """paragon and cm5 cells over three meshes price every
    point-to-point phase of the group in one kernel launch."""
    launches = _count_launches(monkeypatch)
    grid = [
        (machine, mesh)
        for mesh in LAUNCH_MESHES
        for machine in ("paragon", "cm5")
    ]
    cells = fold(name, grid)
    got = execute_group(cells)
    assert len(launches) == 1
    assert got == execute_group_per_phase(cells)


@pytest.mark.parametrize("scaled_first", [False, True])
@pytest.mark.parametrize("name", ["example1", "gauss", "mixed-width"])
def test_three_mesh_group_matches_per_cell(name, scaled_first, monkeypatch):
    """paragon and cm5 twins on three meshes, plus a paragon with a
    scaled ``alpha`` sharing the 3x2 mesh: one kernel launch prices the
    group, each machine's cost parameters price its own cells, and
    every cell equals ``execute`` and ``execute_python``."""
    scaled = ("paragon", (3, 2), CostParams().scaled(alpha=7.25))
    grid = [
        (machine, mesh)
        for mesh in LAUNCH_MESHES
        for machine in ("paragon", "cm5")
    ]
    grid.insert(0 if scaled_first else len(grid), scaled)
    cells = fold(name, grid)
    launches = _count_launches(monkeypatch)
    got = execute_group(cells)
    assert len(launches) == 1
    for cell, report in zip(cells, got):
        assert bits(report) == bits(execute(*cell))
        assert bits(report) == bits(execute_python(*cell))
    # the scaled cell shares the default paragon's phases, not its times
    at = grid.index(scaled)
    default = grid.index(("paragon", (3, 2)))
    assert got[at].total_time != got[default].total_time


#: access matrices by statement depth (arrays are 2-D); the
#: rank-deficient ones give broadcasts the heuristic may detect as
#: macro-communications
DRAWN_F = {
    2: [
        [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 0]],
        [[0, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [0, 0]],
    ],
    3: [
        [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 1, 0]],
        [[1, 0, 1], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]],
    ],
}


@st.composite
def drawn_nests(draw):
    """``(compiled nest, size bindings)`` of a drawn nest: one to three
    statements of depth 2 or 3, some with a triangular or an empty
    domain, each scheduled by a drawn matrix of width 1 to depth - 1
    with entries in {-1, 0, 1}, half its rows of one sign, mostly
    negative (legality is not checked: pricing must agree with the
    oracle on any schedule)."""
    b = NestBuilder("drawn")
    b.array("a", 2).array("b", 2).array("c", 2)
    schedules = {}
    for k in range(draw(st.sampled_from([1, 2, 2, 3]))):
        depth = draw(st.sampled_from([2, 3]))
        loops = [("i", 1, "N"), ("j", 1, "N"), ("k", 1, "N")][:depth]
        shape = draw(st.sampled_from(["rect", "rect", "tri", "empty"]))
        if shape == "tri":
            loops[1] = ("j", "i", "N")
        elif shape == "empty":
            loops[0] = ("i", 1, 0)

        def access():
            return (
                draw(st.sampled_from("abc")),
                draw(st.sampled_from(DRAWN_F[depth])),
                [draw(st.integers(-1, 1)) for _ in range(2)],
            )

        b.statement(
            f"S{k}", loops, writes=[access()],
            reads=[access() for _ in range(draw(st.integers(1, 2)))],
        )
        def theta_row():
            if draw(st.booleans()):
                # one sign for the row: on the positive domains its
                # times all have that sign (or are all zero)
                sign = draw(st.sampled_from([-1, -1, 1]))
                return [sign * draw(st.integers(0, 1)) for _ in range(depth)]
            return [draw(st.integers(-1, 1)) for _ in range(depth)]

        width = draw(st.sampled_from([depth - 1, depth - 1, 1]))
        schedules[f"S{k}"] = Schedule(
            IntMat([theta_row() for _ in range(width)])
        )
    nest = b.build()
    params = {"N": draw(st.integers(2, 3))}
    return (
        compile_nest(
            nest, m=2, params=params,
            schedules=ScheduledNest(nest, schedules), check_legality=False,
        ),
        params,
    )


@st.composite
def drawn_groups(draw):
    """A drawn nest folded onto two or three meshes, paragon and/or cm5
    cells per mesh, at a drawn payload; most groups also carry the
    Feautrier baseline's cells on a drawn subset of those foldings (a
    mixed call, as the campaign makes for its baseline-memo misses)."""
    compiled_nest, params = draw(drawn_nests())
    meshes = draw(
        st.lists(st.sampled_from(MESHES), min_size=2, max_size=3, unique=True)
    )
    cells = []
    for mesh in meshes:
        for machine_name in draw(st.sampled_from(MESH_MACHINES)):
            spec = machine_spec(machine_name)
            machine = spec.make(mesh)
            cells.append((
                compiled_nest.program(machine, params), machine,
                spec.make_collectives(mesh),
            ))
    if draw(st.sampled_from([False, True, True])):
        baseline = optimize_residuals(
            feautrier_align(compiled_nest.nest, 2),
            compiled_nest.schedules,
            allow_rotations=False,
        )
        cells += [
            (MappedProgram(baseline, p.folding, params), machine, coll)
            for (p, machine, coll), keep in zip(
                cells, draw(st.lists(
                    st.booleans(), min_size=len(cells), max_size=len(cells),
                ))
            )
            if keep
        ]
    return draw(st.permutations(cells)), draw(st.integers(1, 3))


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(drawn_groups())
def test_drawn_groups_match_python_oracle(group):
    cells, payload = group
    got = execute_group(cells, payload=payload)
    want = [
        execute_python(p, m, collectives=c, payload=payload)
        for p, m, c in cells
    ]
    assert [bits(r) for r in got] == [bits(r) for r in want]


def _drawn_kinds(cells):
    """The stacked group-by edge cases one drawn group exercises."""
    kinds = set()
    if len({id(p.mapping) for p, _, _ in cells}) > 1:
        kinds.add("mixed-mappings")
    program = cells[0][0]
    active = [b for b in program.comm_batches() if b.n]
    if len(program.comm_batches()) > len(active):
        kinds.add("empty-domain")
    widths = {b.times.shape[1] for b in active}
    if len(widths) > 1:
        kinds.add("mixed-widths")
        # a column some label pads with zeros while every real entry of
        # it is negative: the padding falls outside the column's range
        for j in range(min(widths), max(widths)):
            real = [b.times[:, j] for b in active if b.times.shape[1] > j]
            if all((col < 0).all() for col in real):
                kinds.add("padding-outside-range")
    if any((b.times < 0).any() for b in active):
        kinds.add("negative-times")
    vec = {_vectorizable(program, b.access_label) for b in active}
    if vec == {True, False}:
        kinds.add("vectorizable-and-not")
    for b in active:
        if not _sends(b).any():
            kinds.add("all-local")
        elif _classification_of(program, b.access_label) == "macro" and any(
            c is not None for _, _, c in cells
        ):
            kinds.add("macro-on-cm5")
    return kinds


def test_drawn_groups_cover_every_edge_case():
    """The drawn-nest strategy reaches each edge case of the stacked
    group-by."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(drawn_groups())
    def probe(group):
        seen.update(_drawn_kinds(group[0]))

    probe()
    assert seen == {
        "empty-domain", "mixed-widths", "padding-outside-range",
        "negative-times", "vectorizable-and-not", "all-local",
        "macro-on-cm5", "mixed-mappings",
    }
