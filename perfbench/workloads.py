"""The benchmark's workloads: campaign grids and how each is run.

Each workload is a fixed pool of nests drawn once with
``repro.campaign.sweep.default_spec(seed=0, ...)`` and stored, with the
reference prices of every task, in ``expected/<name>.json`` (written by
``make_expected.py``).  ``--seed`` shuffles the order in which the
pool's nests are run, so every seed runs the same tasks and every task
has a stored reference value.
"""

WORKLOADS = {
    # 8 corpus + 48 generated rectangular nests on Paragon and CM-5:
    # 56 compile-key groups of 6 cells, 336 tasks.  One cold pass per
    # process.  Compile and batched execute_group pricing each take
    # about half, with cold route caches and the CM-5 macro lane.
    "cold_rect": {
        "why": "default campaign shape, cold: compile and batched group "
        "pricing each take about half of a pass",
        "spec": dict(nests=48, meshes=((8, 8), (4, 4), (2, 2))),
        "steady": False,
        "pricing": "repro.runtime.execute_group",
    },
    # 8 corpus + 16 generated nests on three larger meshes: 24 groups,
    # 144 tasks.  After an untimed warm-up pass every compile is an LRU
    # hit and every baseline a memo hit, so only pricing and the store
    # are timed.
    "steady_price": {
        "why": "warm caches, repeated passes: compile layers idle, time "
        "is pricing kernels, comm extraction and the result store",
        "spec": dict(nests=16, meshes=((16, 16), (8, 8), (4, 4))),
        "steady": True,
        "pricing": "repro.runtime.execute_group",
    },
    # 4 triangular corpus + 80 generated triangular/trapezoidal nests,
    # one T3D cell each: compile-heavy (macro detection, polyhedral
    # schedule inference), priced through the per-task execute() path.
    "cold_tri3d": {
        "why": "cold polyhedral compile (macro detection, schedule "
        "inference); one-cell groups priced through per-task execute()",
        "spec": dict(
            nests=80, machines=("t3d",), meshes=((4, 4, 4),), ms=(3,),
            shapes=("tri",),
        ),
        "steady": False,
        "pricing": "repro.runtime.execute",
    },
}

# "steady": time repeated passes after an untimed warm-up pass.
# "pricing": the one pricing entry point the traced run may see called.

#: timed passes per sample process of a steady workload
STEADY_PASSES = 10
