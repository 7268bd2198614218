"""The meet-in-the-middle word search against the plain BFS reference,
and its state budget."""

import pytest

from repro.decomp import enumerate_det1, search, shortest_decomposition, verify_factors
from repro.linalg import IntMat

from oracles.decomp import shortest_decomposition_bfs


@pytest.mark.parametrize(
    "max_len, coeff_bound, entry_bound", [(4, 3, 3), (6, 2, 3), (4, 9, 2)]
)
def test_same_word_as_bfs(max_len, coeff_bound, entry_bound):
    lengths = set()
    for t in enumerate_det1(entry_bound):
        got = shortest_decomposition(t, max_len, coeff_bound)
        assert got == shortest_decomposition_bfs(t, max_len, coeff_bound)
        lengths.add(None if got is None else len(got))
    # words of several lengths, and matrices with no word in the bounds
    assert len(lengths - {None}) >= 3


@pytest.mark.parametrize(
    "t, length",
    [([[-57, -32], [98, 55]], 5), ([[47, 26], [-85, -47]], 5)],
)
def test_long_words_on_large_entries(t, length):
    """Matrices a plain BFS needed tens of seconds (and GBs) for."""
    t = IntMat(t)
    word = shortest_decomposition(t)
    assert len(word) == length
    assert verify_factors(t, word)


def test_budget_gives_up(monkeypatch):
    t = IntMat([[-57, -32], [98, 55]])
    monkeypatch.setattr(search, "STATE_BUDGET", 100)
    assert shortest_decomposition(t) is None
    assert shortest_decomposition(IntMat([[1, 2], [0, 1]])) == [IntMat([[1, 2], [0, 1]])]
