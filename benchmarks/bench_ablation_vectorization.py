"""Ablation A4 — message vectorization (Section 4.5).

The paper: "replace a set of small-size communications by a single
large message so as to reduce overhead due to startup and latency".
We build a nest with a sequential outer loop whose read source is
time-invariant (``ker M_S ⊆ ker(M_a F_a)``), execute it with and
without vectorization and measure the message-count and time savings.
"""

from repro.alignment import two_step_heuristic
from repro.ir import NestBuilder, outer_sequential_schedules
from repro.machine import MeshModel
from repro.runtime import Folding, MappedProgram, execute

from _harness import print_table

STEPS = 6


def build_program():
    b = NestBuilder("vect-bench")
    b.array("x", 2)
    # a per-step transpose: the write and the transposed read of the
    # same array cannot both be local, and the read's source does not
    # depend on t — the exact Section 4.5 situation
    b.statement(
        "S",
        [("t", 0, STEPS - 1), ("i", 0, 7), ("j", 0, 7)],
        writes=[("x", [[0, 1, 0], [0, 0, 1]], None, "W")],
        reads=[("x", [[0, 0, 1], [0, 1, 0]], None, "R")],
    )
    nest = b.build()
    schedules = outer_sequential_schedules(nest, outer=1)
    result = two_step_heuristic(nest, m=2, schedules=schedules)
    machine = MeshModel(2, 2)
    program = MappedProgram(
        mapping=result,
        folding=Folding(mesh=machine.mesh, extent=8),
        params={},
    )
    return program, machine, result


def test_a4_vectorization_savings():
    def run():
        program, machine, result = build_program()
        rep = execute(program, machine)
        # the read must be recognized as vectorizable
        read_opt = result.residual_by_label("R")
        return rep, read_opt

    rep, read_opt = run()
    assert read_opt.vectorizable
    s = rep.stats("R")
    print_table(
        "A4 — message vectorization on the R access "
        f"({STEPS} time steps)",
        ["element msgs", "vectorized msgs", "ratio"],
        [[
            s.messages_before_vectorization,
            s.messages_after_vectorization,
            s.messages_before_vectorization
            / max(1, s.messages_after_vectorization),
        ]],
    )
    # all time steps coalesce: at least a STEPS-fold reduction in
    # message count per destination pair
    assert (
        s.messages_before_vectorization
        >= STEPS * s.messages_after_vectorization
    )
