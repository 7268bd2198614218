"""Section 7.2 — comparison with Platonoff's strategy on Example 5.

Paper: Platonoff preserves the broadcast and needs a partial broadcast
per element per time step; the two-step heuristic (zero out first,
optimize residuals second) maps the nest with **no** communication.
"""

from repro.alignment import two_step_heuristic
from repro.baselines import platonoff_mapping
from repro.ir import outer_sequential_schedules, platonoff_example
from repro.machine import MeshModel
from repro.runtime import Folding, MappedProgram, execute

from _harness import print_table


def compare(n: int):
    nest = platonoff_example()
    schedules = outer_sequential_schedules(nest, outer=1)
    machine = MeshModel(3, 3)
    folding = Folding(mesh=machine.mesh, extent=max(4, n + 1))
    params = {"n": n}

    ours = two_step_heuristic(nest, m=2, schedules=schedules)
    rep_ours = execute(
        MappedProgram(mapping=ours, folding=folding, params=params), machine
    )
    theirs = platonoff_mapping(nest, m=2, schedules=schedules)
    rep_theirs = execute(
        MappedProgram(mapping=theirs, folding=folding, params=params), machine
    )
    return rep_ours, rep_theirs


def test_sec72_comparison():
    rep_ours, rep_theirs = compare(4)
    print_table(
        "Section 7.2 — Example 5, n=4 (two-step heuristic vs broadcast-first)",
        ["strategy", "messages", "volume", "time"],
        [
            ["two-step (ours)", rep_ours.total_messages, rep_ours.total_volume, rep_ours.total_time],
            ["broadcast-first", rep_theirs.total_messages, rep_theirs.total_volume, rep_theirs.total_time],
        ],
    )
    assert rep_ours.total_messages == 0
    assert rep_ours.total_time == 0.0
    assert rep_theirs.total_messages > 0
    assert rep_theirs.total_time > 0.0


def test_sec72_gap_grows_with_n():
    def sweep():
        return [(n, compare(n)[1].total_volume) for n in (2, 3, 4)]

    volumes = sweep()
    print_table(
        "Section 7.2 — broadcast-first residual volume vs n",
        ["n", "volume"],
        [[n, v] for n, v in volumes],
    )
    vols = [v for _, v in volumes]
    assert vols[0] < vols[1] < vols[2], "the baseline's cost grows with n"
