"""Ablation A2 — analytic link-contention bound vs the event-driven
wormhole simulator.

The analytic model is a bottleneck *bound*; the event simulator
reserves whole routes and measures a makespan.  This ablation checks
they agree where it matters:

* the simulated makespan never beats the bandwidth component of the
  analytic bound (soundness);
* across random message patterns the two rank the patterns mostly the
  same way (Kendall concordance of the induced orderings).
"""

import random

from repro.machine import CostParams, EventSimulator, Mesh, MeshModel, Message

from _harness import print_table

PARAMS = CostParams(alpha=10.0, beta=1.0, gamma=0.5)


def random_pattern(rng: random.Random, mesh: Mesh, nmsg: int):
    nodes = list(mesh.nodes())
    out = []
    for _ in range(nmsg):
        src, dst = rng.sample(nodes, 2)
        out.append(Message(src=src, dst=dst, size=rng.randint(1, 16)))
    return out


def collect(seed=7, trials=40):
    rng = random.Random(seed)
    machine = MeshModel(4, 4, params=PARAMS)
    mesh = machine.mesh
    sim = EventSimulator(mesh, PARAMS)
    pairs = []
    for _ in range(trials):
        msgs = random_pattern(rng, mesh, rng.randint(4, 24))
        analytic = machine.time_phase(msgs)
        simulated = sim.run(msgs)
        pairs.append((analytic.time, simulated, analytic.max_link_load))
    return pairs


def _kendall(xs, ys):
    n = len(xs)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if a > 0:
                concordant += 1
            elif a < 0:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total if total else 1.0


def test_a2_soundness():
    pairs = collect()
    for analytic, simulated, max_load in pairs:
        assert simulated >= max_load * PARAMS.beta - 1e-9, (
            "the simulator cannot beat the bottleneck link"
        )


def test_a2_rank_agreement():
    pairs = collect()
    tau = _kendall([p[0] for p in pairs], [p[1] for p in pairs])
    ratio_hi = max(s / a for a, s, _ in pairs if a > 0)
    ratio_lo = min(s / a for a, s, _ in pairs if a > 0)
    print_table(
        "A2 — analytic bound vs wormhole simulator (40 random patterns)",
        ["kendall tau", "sim/analytic min", "sim/analytic max"],
        [[tau, ratio_lo, ratio_hi]],
    )
    assert tau > 0.5, "the two models must largely agree on orderings"
