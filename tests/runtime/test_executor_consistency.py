"""Consistency between the compile-time classification and the
run-time communication events, on randomized nests: what the heuristic
calls local must not move data (beyond a constant shift), and macro
classifications must match the observed fan-out/fan-in shapes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alignment import two_step_heuristic
from repro.ir import NestBuilder
from repro.linalg import IntMat, rank
from repro.machine import Mesh, MeshModel
from repro.runtime import Folding, MappedProgram, execute

from oracles.events import comm_events


def _random_full_rank(rng, rows, cols):
    for _ in range(50):
        cand = IntMat(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        if rank(cand) == min(rows, cols):
            return cand
    return IntMat([[1 if i == j else 0 for j in range(cols)] for i in range(rows)])


def random_nest(seed: int):
    rng = random.Random(seed)
    b = NestBuilder(f"exec{seed}")
    dims = {"x": rng.choice([2, 3]), "y": 2}
    for name, d in dims.items():
        b.array(name, d)
    depth = rng.choice([2, 3])
    loops = [("ijk"[d], 0, 3) for d in range(depth)]
    b.statement(
        "S",
        loops,
        writes=[("x", _random_full_rank(rng, dims["x"], depth).tolist(),
                 [rng.randint(-1, 1) for _ in range(dims["x"])], "W")],
        reads=[("y", _random_full_rank(rng, 2, depth).tolist(),
                [rng.randint(-1, 1), rng.randint(-1, 1)], "R")],
    )
    return b.build()


def _program(nest):
    mapping = two_step_heuristic(nest, m=2)
    mesh = Mesh(2, 2)
    folding = Folding(mesh=mesh, extent=8)
    return MappedProgram(mapping=mapping, folding=folding, params={})


class TestClassificationMatchesEvents:
    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_local_accesses_are_constant_shifts(self, seed):
        nest = random_nest(seed)
        program = _program(nest)
        local = program.mapping.alignment.local_labels
        shifts = {}
        for ev in comm_events(program):
            if ev.access_label in local:
                delta = tuple(
                    r - s for r, s in zip(ev.receiver_virtual, ev.sender_virtual)
                )
                shifts.setdefault(ev.access_label, set()).add(delta)
        for label, deltas in shifts.items():
            assert len(deltas) == 1, (
                f"local access {label} moved by non-constant {deltas}"
            )
            # tree-local accesses are exactly zero-shift (offsets
            # absorbed); re-added edges may keep a constant shift
            assert all(len(d) == 2 for d in deltas)

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_execution_never_crashes(self, seed):
        nest = random_nest(seed)
        program = _program(nest)
        rep = execute(program, MeshModel(2, 2))
        assert rep.total_time >= 0.0
        assert rep.total_messages >= 0

    @given(st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_translation_classification_observed(self, seed):
        """Accesses classified as translations move every element by
        the same virtual-grid offset."""
        nest = random_nest(seed)
        program = _program(nest)
        translations = {
            o.label
            for o in program.mapping.optimized
            if o.classification == "translation"
        }
        shifts = {}
        for ev in comm_events(program):
            if ev.access_label in translations:
                delta = tuple(
                    r - s for r, s in zip(ev.receiver_virtual, ev.sender_virtual)
                )
                shifts.setdefault(ev.access_label, set()).add(delta)
        for label, deltas in shifts.items():
            assert len(deltas) == 1


class TestBroadcastShapeObserved:
    def test_broadcast_fanout_in_events(self):
        """For the motivating example's F6 broadcast, one array cell is
        consumed by several virtual processors at the same time step."""
        from repro.ir import motivating_example

        program = _program(motivating_example())
        # replace params with the nest's symbolic sizes
        program = MappedProgram(
            mapping=program.mapping,
            folding=program.folding,
            params={"N": 3, "M": 3},
        )
        senders = {}
        for ev in comm_events(program):
            if ev.access_label == "F6":
                senders.setdefault(
                    (ev.sender_virtual, ev.time), set()
                ).add(ev.receiver_virtual)
        assert any(len(r) > 1 for r in senders.values()), (
            "expected one source feeding several receivers"
        )
