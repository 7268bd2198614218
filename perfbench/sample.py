"""One measured sample: a fresh process that runs one campaign workload.

Started by ``run.py`` as::

    python3 perfbench/sample.py INPUTS OUT STORE_PREFIX T_SPAWN TRACED

``INPUTS`` is the grid ``run.py`` wrote from ``--seed``; ``OUT`` receives
this sample's raw timings as JSON; each timed pass writes its records
to ``STORE_PREFIX-p<k>.jsonl``.  ``T_SPAWN`` is the ``time.monotonic()``
reading taken by the parent just before starting this process, so set-up
time covers interpreter start-up.  With ``TRACED`` = 1 the layer
wrappers of ``layers.py`` time each layer around the same passes.

Times leave this process raw, each next to the calibration readings
taken around it; ``run.py`` turns them into calibrated seconds.
"""

import json
import os
import resource
import sys
import time

import calib


def _fail(msg: str) -> None:
    sys.stderr.write(f"sample: {msg}\n")
    raise SystemExit(3)


def main(argv):
    inputs_path, out_path, store_prefix, t_spawn, traced = argv
    t_spawn = float(t_spawn)
    traced = traced == "1"
    cal_start = calib.measure()

    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        _fail(f"REPRO_* variables in the sample environment: {leaked}")

    sys.path.insert(0, "src")
    from repro import campaign
    from repro.campaign import CampaignConfig
    from repro.campaign.sweep import SweepSpec, group_by_compile_key
    from repro.campaign.workloads import Workload

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    grid = inputs["grid"]
    spec = SweepSpec(
        workloads=[Workload.from_dict(d) for d in inputs["nests"]],
        machines=grid["machines"],
        meshes=[tuple(m) for m in grid["meshes"]],
        ms=grid["ms"],
        rank_weights=grid["rank_weights"],
    )
    tasks = spec.expand()
    groups = group_by_compile_key(tasks)
    key_of = {t.task_id: t.compile_key for t in tasks}
    size_of = {g[0].compile_key: len(g) for g in groups}
    config = CampaignConfig(jobs=1, executor="inline")
    steady = inputs["steady"]

    if steady:
        campaign.run_campaign(tasks, f"{store_prefix}-warmup.jsonl", config)
    t_ready = time.monotonic()
    cal_ready = calib.measure()
    setup = {
        "raw_s": t_ready - t_spawn - cal_start,
        "cal": [cal_start, cal_ready],
    }

    tracer = None
    if traced:
        import layers

        tracer = layers.Tracer()
        try:
            tracer.install()
        except RuntimeError as exc:
            _fail(str(exc))
    measure = tracer.timed_calibration if tracer else calib.measure

    passes = []
    for k in range(inputs["passes"]):
        counts = dict.fromkeys(size_of, 0)
        bounds = []  # per group: [raw seconds, cal before, cal after]
        state = {"t": 0.0, "cal": measure()}

        def progress(result):
            key = key_of[result.task_id]
            counts[key] += 1
            if counts[key] == size_of[key]:
                t = time.perf_counter()
                cal = measure()
                bounds.append([t - state["t"], state["cal"], cal])
                state["cal"] = cal
                state["t"] = time.perf_counter()

        if tracer:
            tracer.begin_pass()
        state["t"] = time.perf_counter()
        # looked up per call: the traced run wraps this name
        outcome = campaign.run_campaign(
            tasks, f"{store_prefix}-p{k}.jsonl", config, progress=progress
        )
        tail = time.perf_counter() - state["t"]
        layer_stats = tracer.end_pass() if tracer else None

        if outcome.ran != len(tasks):
            _fail(f"pass {k} ran {outcome.ran} of {len(tasks)} tasks")
        if len(bounds) != len(groups):
            _fail(f"pass {k} saw {len(bounds)} of {len(groups)} groups end")
        if steady:
            hits = (outcome.compile_cache_hits, outcome.baseline_cache_hits)
            if hits != (len(tasks), len(tasks)):
                _fail(
                    f"steady pass {k}: {hits[0]} compile and {hits[1]} "
                    f"baseline cache hits for {len(tasks)} tasks"
                )
        elif outcome.compile_cache_misses != len(groups):
            _fail(
                f"cold pass compiled {outcome.compile_cache_misses} nests "
                f"for {len(groups)} groups"
            )
        passes.append(
            {
                "groups": bounds,
                "tail_s": tail,
                "tasks": outcome.ran,
                "compile_hits": outcome.compile_cache_hits,
                "compile_misses": outcome.compile_cache_misses,
                "baseline_hits": outcome.baseline_cache_hits,
                "baseline_misses": outcome.baseline_cache_misses,
                "layers": layer_stats,
            }
        )

    if tracer:
        tracer.uninstall()
    out = {
        "setup": setup,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
