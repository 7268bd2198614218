"""Table 2 — decomposing versus not decomposing a general affine
communication on the Paragon model.

Paper: data-flow matrix ``T = L . U`` on a Paragon mesh, standard
CYCLIC distribution; rows "Not decomposed | L | U | LU" — decomposing
is much faster, and U costs more than L "because of the larger grid
dimension" (the mesh is not square).

We use the Figure 7 matrix ``T = [[1,3],[2,7]] = L(2) . U(3)`` on a
non-square mesh so the L/U asymmetry shows, price the direct pattern
(element-wise, not vectorizable) and each coalesced phase, and check
the orderings.
"""

from repro.decomp import L, U
from repro.distribution import CyclicDistribution, Distribution2D
from repro.linalg import IntMat
from repro.machine import MeshModel, decomposed_phases

from _harness import print_table

T = IntMat([[1, 3], [2, 7]])
N = 48
P, Q = 8, 3  # taller than wide: the U factor moves the row index,
# which lives on the larger mesh dimension — the paper's asymmetry
SIZE = 8


def compute_times():
    machine = MeshModel(P, Q)
    dist = Distribution2D(CyclicDistribution(N, P), CyclicDistribution(N, Q))
    factors = [L(2), U(3)]
    direct = machine.time_general(dist, T, size=SIZE)
    phases = decomposed_phases(dist, factors, size=SIZE)
    # decomposed_phases applies right-to-left: phases[0] is U, [1] is L
    u_time = machine.time_phase(phases[0]).time
    l_time = machine.time_phase(phases[1]).time
    return {"direct": direct, "L": l_time, "U": u_time, "LU": l_time + u_time}


def test_table2_decomposition():
    times = compute_times()
    base = times["LU"]
    print_table(
        f"Table 2 — T={T.tolist()} on a {P}x{Q} mesh (CYCLIC), "
        "execution ratios vs decomposed LU",
        ["not decomposed", "L", "U", "LU"],
        [[times["direct"] / base, times["L"] / base, times["U"] / base, 1.0]],
    )
    assert times["LU"] < times["direct"], "decomposition must win"
    assert times["L"] <= times["U"], (
        "the factor acting on the larger mesh dimension costs more"
    )
    assert times["direct"] / times["LU"] > 1.3, "a clear gap, as measured"


def test_table2_ordering_robust_to_machine_constants():
    """The decomposition win is not an artefact of one parameter
    choice: it holds across a grid of start-up / bandwidth constants.
    (Real message-passing machines have alpha >> beta — the Paragon's
    per-message latency was ~100us against ~5ns per byte — so the sweep
    stays in the startup-dominated regime.)"""
    from repro.machine import CostParams

    def sweep():
        out = []
        dist = Distribution2D(
            CyclicDistribution(N, P), CyclicDistribution(N, Q)
        )
        for alpha in (20.0, 80.0, 320.0):
            for beta in (0.5, 1.0, 2.0):
                machine = MeshModel(P, Q, params=CostParams(alpha=alpha, beta=beta))
                direct = machine.time_general(dist, T, size=SIZE)
                split = machine.time_decomposed(dist, [L(2), U(3)], size=SIZE)
                out.append((alpha, beta, direct, split))
        return out

    rows = sweep()
    for alpha, beta, direct, split in rows:
        assert split < direct, f"ordering broke at alpha={alpha}, beta={beta}"
