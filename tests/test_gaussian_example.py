"""Integration test: the Gaussian-elimination kernel's communication
structure (the paper's introduction claim made checkable)."""

import pytest

from repro import compile_nest
from repro.ir import Schedule, ScheduledNest, parse_nest
from repro.linalg import IntMat
from repro.macrocomm import MacroKind

SOURCE = """
array A(2)
for k = 1..N:
  for i = 1..N:
    for j = 1..N:
      S: A[i, j] = f(A[i, j], A[i, k], A[k, j], A[k, k])
"""


@pytest.fixture(scope="module")
def compiled():
    nest = parse_nest(SOURCE, name="gauss")
    schedules = ScheduledNest(
        nest=nest, schedules={"S": Schedule(theta=IntMat([[1, 0, 0]]))}
    )
    return compile_nest(nest, m=2, schedules=schedules, check_legality=False)


class TestGaussStructure:
    def test_not_communication_free(self, compiled):
        """The paper's claim: GE cannot be mapped without residuals."""
        assert compiled.mapping.optimized, "GE must have residuals"

    def test_update_read_local(self, compiled):
        # the A[i,j] read aligns with the A[i,j] write
        assert "F1" in compiled.mapping.alignment.local_labels  # write
        assert "F2" in compiled.mapping.alignment.local_labels  # read A[i,j]

    def test_pivot_row_and_column_are_broadcasts(self, compiled):
        kinds = {}
        for o in compiled.mapping.optimized:
            if o.macro is not None:
                kinds[o.label] = (o.macro.kind, o.macro.extent.value)
        # F3 = A[i,k] (multiplier column), F4 = A[k,j] (pivot row):
        # both partial broadcasts on a 2-D grid
        assert kinds.get("F3", (None,))[0] is MacroKind.BROADCAST
        assert kinds.get("F4", (None,))[0] is MacroKind.BROADCAST
        assert kinds["F3"][1] == "partial"
        assert kinds["F4"][1] == "partial"

    def test_broadcast_directions_orthogonal(self, compiled):
        """Pivot row goes down columns, multiplier column across rows:
        the two broadcast directions span the grid."""
        dirs = []
        for label in ("F3", "F4"):
            o = compiled.mapping.residual_by_label(label)
            d = o.macro.direction_matrix()
            assert d is not None
            dirs.append(d)
        stacked = dirs[0].hstack(dirs[1])
        from repro.linalg import rank

        assert rank(stacked) == 2

    def test_pivot_scalar_feeds_everyone(self, compiled):
        o = compiled.mapping.residual_by_label("F5")  # A[k,k]
        assert o.macro is not None
        assert o.macro.kind is MacroKind.BROADCAST
        assert o.macro.extent.value in ("total", "partial")

    def test_execution_prices_collectives(self, compiled):
        from repro.machine import CM5Model, MeshModel

        rep = compiled.run(
            MeshModel(2, 2), params={"N": 4}, collectives=CM5Model()
        )
        macro_ops = sum(s.macro_ops for s in rep.per_access.values())
        assert macro_ops > 0
