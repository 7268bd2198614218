"""Figure 6 — the grouped-partition layout.

Paper: 12 virtual processors per row, ``U(3)`` communication, ``P = 4``
physical processors: the virtual indices are re-ordered class-major as
``0 3 6 9 | 1 4 7 10 | 2 5 8 11`` and block-partitioned.
"""

from repro.distribution import GroupedDistribution

from _harness import print_table


def layout():
    d = GroupedDistribution(12, 4, k=3)
    order = sorted(range(12), key=d.position)
    owners = {p: [v for v in range(12) if d.phys(v) == p] for p in range(4)}
    return d, order, owners


def test_fig6_grouped_layout():
    d, order, owners = layout()
    print_table(
        "Figure 6 — grouped partition (n=12, k=3, P=4)",
        ["physical proc", "virtual indices"],
        [[p, " ".join(map(str, owners[p]))] for p in range(4)],
    )
    assert order == [0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11]
    assert owners[0] == [0, 3, 6]
    assert owners[3] == [5, 8, 11]


def test_fig6_classes_never_split_badly():
    """Within each residue class, consecutive class members live on the
    same or adjacent physical processors — the property that makes the
    class-internal translations cheap."""

    def check(n=24, p=4, k=3):
        d = GroupedDistribution(n, p, k=k)
        worst = 0
        for c in range(k):
            members = [v for v in range(n) if v % k == c]
            for a, b in zip(members, members[1:]):
                worst = max(worst, abs(d.phys(b) - d.phys(a)))
        return worst

    worst = check()
    assert worst <= 1
