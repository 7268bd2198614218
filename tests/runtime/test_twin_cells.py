"""Twin cells: cells of one compile-key group that fold identically.

The paragon and cm5 cells of one mesh (and any cell listed twice) fold
the same traffic, so ``execute_group`` extracts and groups their rows
once and prices each shared phase once per lane.  Every twin must still
get its own report, equal bit for bit to a per-cell ``execute`` and to
the per-event ``execute_python`` — ``total_time`` and every
``AccessCommStats`` field, ``macro_ops`` included.
"""

import pytest

from repro.obs import metrics
from repro.runtime import MappedProgram, execute, execute_group, execute_python

from test_pricing_differential import bits, fold

#: paragon/cm5 on repeated meshes, in mixed order
TWIN_GRID = [
    ("cm5", (4, 4)),
    ("paragon", (2, 2)),
    ("paragon", (4, 4)),
    ("cm5", (2, 2)),
    ("cm5", (4, 4)),
    ("paragon", (3, 2)),
]

#: pool entries with macro labels (priced on the CM-5 collectives lane)
#: and with statements scheduled in two time widths, in either
#: statement order (``mixed-width`` / ``mixed-width-seq``)
NAMES = ["example1", "gauss", "lu", "mixed-width", "mixed-width-seq"]


def twin_cells(name):
    """``TWIN_GRID`` folded, plus an exact duplicate of the first cell
    (the same program object twice)."""
    cells = fold(name, TWIN_GRID)
    return cells + [cells[0]]


def counting_extractions(monkeypatch):
    calls = []
    extract = MappedProgram.comm_batches

    def counted(self):
        calls.append(self)
        return extract(self)

    monkeypatch.setattr(MappedProgram, "comm_batches", counted)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_twins_match_per_cell_execute_and_python(name, monkeypatch):
    cells = twin_cells(name)
    calls = counting_extractions(monkeypatch)
    got = execute_group(cells)
    # one extraction per distinct folding: (4, 4), (2, 2), (3, 2)
    assert len(calls) == 3
    for cell, report in zip(cells, got):
        assert bits(report) == bits(execute(*cell)) == bits(
            execute_python(*cell)
        )
    # twins get their own stats objects, never a shared one
    assert got[0] == got[-1] and got[0] is not got[-1]
    for label, st in got[0].per_access.items():
        assert st is not got[-1].per_access[label]


@pytest.mark.parametrize("name", ["example1", "gauss", "lu"])
def test_macro_labels_use_the_collectives_lane(name):
    """The cm5 twin prices macro labels as collectives (``macro_ops``),
    its paragon twin as point-to-point phases."""
    cells = twin_cells(name)
    got = execute_group(cells)
    cm5, paragon = got[0], got[2]
    macro = [
        label for label, st in cm5.per_access.items()
        if st.classification == "macro" and st.messages_after_vectorization
    ]
    assert macro
    for label in macro:
        assert cm5.per_access[label].macro_ops > 0
        assert paragon.per_access[label].macro_ops == 0


@pytest.mark.parametrize("name", NAMES)
def test_duplicates_add_no_extraction_or_phase(name, monkeypatch):
    """An exact duplicate cell (or a second cm5 on a mesh that already
    has one) reuses its twin's extraction and priced phases."""
    phases = metrics.counter("runtime.price.phases")
    cells = fold(name, [("paragon", (4, 4)), ("cm5", (4, 4))])
    before = phases.value
    want = execute_group(cells)
    alone = phases.value - before

    calls = counting_extractions(monkeypatch)
    before = phases.value
    got = execute_group(cells + cells[::-1])
    assert phases.value - before == alone
    assert len(calls) == 1
    assert [bits(r) for r in got] == [bits(r) for r in want + want[::-1]]
