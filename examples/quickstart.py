#!/usr/bin/env python
"""Quickstart: map the paper's motivating example end-to-end.

Runs the complete two-step heuristic of Dion, Randriamaro & Robert on
the Example 1 loop nest, prints the access graph, the maximum
branching outcome, the residual classification (one axis-parallel
partial broadcast + one communication decomposed into two elementary
phases), then folds the virtual grid onto a 4x4 mesh and prices the
execution.

Run:  python examples/quickstart.py
"""

from repro.alignment import build_access_graph, two_step_heuristic, var_node
from repro.ir import motivating_example
from repro.linalg import IntMat
from repro.machine import MeshModel
from repro.runtime import Folding, MappedProgram, execute


def main() -> None:
    nest = motivating_example()
    print(nest.describe())
    print()

    # --- step 0: the access graph --------------------------------------
    ag = build_access_graph(nest, m=2)
    print(ag.describe())
    print()

    # --- steps 1 + 2: the two-step heuristic ---------------------------
    result = two_step_heuristic(
        nest, m=2, root_allocations={var_node("a"): IntMat.identity(2)}
    )
    print(result.describe())
    print()
    counts = result.counts()
    print(
        f"summary: {counts.get('local', 0)} local, "
        f"{counts.get('macro', 0)} macro-communications, "
        f"{counts.get('decomposed', 0)} decomposed, "
        f"{counts.get('general', 0)} general"
    )
    f3 = result.residual_by_label("F3")
    print(
        "F3 data-flow matrix "
        f"{f3.dataflow.tolist()} decomposes into "
        f"{[f.tolist() for f in f3.decomposition.factors]}"
    )
    print()

    # --- execution on a mesh -------------------------------------------
    machine = MeshModel(4, 4)
    folding = Folding(mesh=machine.mesh, extent=16)
    program = MappedProgram(
        mapping=result, folding=folding, params={"N": 6, "M": 6}
    )
    report = execute(program, machine)
    print(report.describe())


if __name__ == "__main__":
    main()
