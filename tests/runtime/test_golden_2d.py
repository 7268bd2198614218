"""Golden 2-D regression: the dimension-generic refactor of the
machine/runtime layers (N-D folding, MachineModel registry, generic
phase timing) must not move a single number on the paper's example
nests.

The expected values below were recorded from the pre-refactor
implementation (hard-wired 2-D mesh and Paragon model, 2-tuple
folding) and pin the full ``CommReport``: totals plus the per-access
classification / event / message / volume / time breakdown.
"""

import pytest

from repro import compile_nest
from repro.ir import motivating_example, platonoff_example
from repro.machine import MeshModel

# per-access golden rows: classification, events, virtual_local,
# phys_local, messages_after_vectorization, volume, time
GOLDEN_MOTIVATING = {
    "totals": {"time": 99.5, "messages": 8, "volume": 67},
    "per_access": {
        "F1": ("local", 9, 9, 0, 0, 0, 0.0),
        "F2": ("local", 9, 9, 0, 0, 0, 0.0),
        "F3": ("decomposed", 9, 0, 5, 2, 4, 22.5),
        "F4": ("local", 9, 9, 0, 0, 0, 0.0),
        "F5": ("local", 54, 54, 0, 0, 0, 0.0),
        "F6": ("macro", 54, 0, 27, 4, 27, 32.5),
        "F7": ("local", 54, 54, 0, 0, 0, 0.0),
        "F8": ("macro", 54, 0, 18, 2, 36, 44.5),
    },
}

GOLDEN_PLATONOFF = {
    "totals": {"time": 0.0, "messages": 0, "volume": 0},
    "per_access": {
        "Fa": ("local", 81, 81, 0, 0, 0, 0.0),
        "Fb": ("local", 81, 81, 0, 0, 0, 0.0),
    },
}


def _check(report, golden):
    t = golden["totals"]
    assert report.total_time == t["time"]
    assert report.total_messages == t["messages"]
    assert report.total_volume == t["volume"]
    assert set(report.per_access) == set(golden["per_access"])
    for label, row in golden["per_access"].items():
        s = report.stats(label)
        got = (
            s.classification,
            s.events,
            s.virtual_local,
            s.phys_local,
            s.messages_after_vectorization,
            s.volume,
            s.time,
        )
        assert got == row, f"{label}: {got} != {row}"


class TestGolden2D:
    def test_motivating_example_report_unchanged(self):
        c = compile_nest(motivating_example(), m=2)
        rep = c.run(MeshModel(2, 2), params={"N": 3, "M": 3})
        _check(rep, GOLDEN_MOTIVATING)

    def test_platonoff_example_report_unchanged(self):
        c = compile_nest(platonoff_example(), m=2)
        rep = c.run(MeshModel(2, 2), params={"n": 3})
        _check(rep, GOLDEN_PLATONOFF)

    def test_source_and_ir_paths_agree(self):
        """Compiling the motivating example from parser source prices
        identically to the IR factory path."""
        src = """
array a(2), b(3), c(3)
for i = 1..N:
  for j = 1..M:
    S1: b[i, j, 0] = g1(a[i+j, j+1], a[i-j, i+1], c[j, i, 0])
    for k = 1..N+M:
      S2: b[i, j, k] = g2(a[i+j+k+1, j+k])
      S3: c[i, j, j+k] = g3(a[i+j, i+j+1])
"""
        c = compile_nest(src, m=2)
        rep = c.run(MeshModel(2, 2), params={"N": 3, "M": 3})
        _check(rep, GOLDEN_MOTIVATING)
