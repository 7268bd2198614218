"""Table 1 — CM-5 execution-time ratios of the four data-movement
classes: reduction, broadcast, translation, general communication.

Paper's qualitative content (absolute numbers lost to OCR; the prose
says the CM-5 has hardware facilities for reductions/broadcasts and
that translations are much more efficient than general affine
communications): reduction ≈ broadcast ≪ translation ≪ general, with
roughly an order of magnitude between broadcast and general.

We regenerate the row from the structural CM-5 model (control-network
tree collectives, software-overhead translations, per-element software
addressing + fat-tree contention for general patterns).
"""

from repro.machine import CM5Model

from _harness import print_table


def compute_row(size: int = 100):
    cm5 = CM5Model(nodes=32)
    return {
        "reduction": cm5.reduction_time(size),
        "broadcast": cm5.broadcast_time(size),
        "translation": cm5.translation_time(size),
        "general": cm5.general_time(size),
    }


def test_table1_cm5_ratios():
    row = compute_row()
    base = row["reduction"]
    ratios = {k: v / base for k, v in row.items()}
    print_table(
        "Table 1 — data-movement time ratios on the CM-5 model "
        "(normalised to reduction)",
        ["reduction", "broadcast", "translation", "general"],
        [[ratios["reduction"], ratios["broadcast"], ratios["translation"], ratios["general"]]],
    )
    # shape claims
    assert ratios["reduction"] == 1.0
    assert ratios["broadcast"] < 1.5, "broadcast must be ~ the reduction"
    assert 2 < ratios["translation"] < 10, "translation clearly costlier"
    assert ratios["general"] > 2.5 * ratios["translation"], (
        "general communication must dominate translations"
    )
    assert ratios["general"] > 10, "order-of-magnitude gap vs collectives"


def test_table1_stable_across_sizes():
    def sweep():
        return [compute_row(size) for size in (50, 100, 400, 1000)]

    rows = sweep()
    for row in rows:
        assert (
            row["reduction"]
            <= row["broadcast"]
            < row["translation"]
            < row["general"]
        )
