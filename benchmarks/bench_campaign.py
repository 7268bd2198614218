"""Campaign gates: the grid shape claims and the deterministic counts
behind compile-once/price-many.

Not a paper artefact — the subsystem gate for :mod:`repro.campaign`.
Every gate here is a count or a record-for-record identity, so it
passes or fails the same way on any host; timing is ``perfbench/``'s
job (calibrated, with a measured noise band).  Wall times land in
``BENCH_campaign.json`` as records only.

* ``test_campaign_grid_gate`` — one test over three grids, each in its
  own ``BENCH_campaign.json`` section: ``grid_2d`` (generated + corpus
  nests on Paragon and CM-5, 4x4 and 2x2 meshes, 4 cells per nest),
  ``grid_3d`` (``t3d`` on a 2x2x2 cube, m = 3) and ``grid_triangular``
  (the triangular corpus + generated triangular nests on ``paragon``
  4x4 and ``t3d`` 2x2x2).  Every task ok with zero error/timeout
  records, one compile per compile key, ``min(jobs, groups)`` worker
  processes for the whole run (long-lived supervised workers), resume a
  no-op, the heuristic
  never leaving more residuals than the Feautrier baseline, at least
  one group whose baseline has residuals, and the expected machines
  and meshes in the summary.
* ``test_steady_state_counts`` — a repeat inline run of ``grid_2d``
  with warm caches: every compile and every baseline price is a hit,
  each compile-key group prices all its cells in one ``execute_group``
  call (as the cold first run does with its heuristic cells and
  baseline misses together), the segmented kernel launches at most once per call whatever
  meshes its cells fold onto, ``comm_batches`` runs once per distinct (nest, mesh)
  folding, the warm pass folds nothing and builds no heuristic program
  and no machine model (the compile entry keeps them; the cold pass
  folds once per extraction), pricing makes at
  most one ``unique_rows`` call per pricing call with no axis-unique
  fallback, and the store takes one ``RunStore.append`` per group.
* ``test_batched_vs_per_cell`` / ``test_fused_vs_per_phase_pricing`` —
  whole-group pricing against one-task groups and fused pricing
  against the per-phase oracle write identical records.
* ``test_cold_compile_disk_cache`` — a cold run compiles every nest, a
  warm persistent compile cache serves every nest from disk without a
  single ``compile_nest`` call, and the integer Fourier–Motzkin kernel
  agrees verdict for verdict with the ``Fraction`` oracle on the
  systems the grid's compiles run.
"""

import os
import sys
import time

import pytest

from repro.campaign import (
    CampaignConfig,
    RunStore,
    Settings,
    clear_baseline_cache,
    clear_compile_cache,
    compile_cache_stats,
    default_spec,
    run_campaign,
    run_task_group,
    summarize_results,
)
from repro.campaign import runner
from repro.campaign.sweep import canonical_json, group_by_compile_key
from repro.obs import metrics

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")
)
from oracles.dependence import fm_feasible  # noqa: E402
from oracles.pricing import per_phase_pricing  # noqa: E402

from _harness import count_pricing_calls, record_bench  # noqa: E402

SEED = 0
JOBS = 2
#: the gate grids: ``default_spec`` arguments (seed aside)
GRIDS = {
    "grid_2d": dict(
        nests=8,
        machines=("paragon", "cm5"),
        meshes=((4, 4), (2, 2)),
        ms=(2,),
        shapes=("rect",),
    ),
    "grid_3d": dict(
        nests=4,
        machines=("t3d",),
        meshes=((2, 2, 2),),
        ms=(3,),
        shapes=("rect",),
    ),
    "grid_triangular": dict(
        nests=4,
        machines=("paragon", "t3d"),
        meshes=((4, 4), (2, 2, 2)),
        ms=(2, 3),
        shapes=("tri",),
    ),
}


def _grid(name="grid_2d"):
    spec = default_spec(seed=SEED, **GRIDS[name])
    return spec, spec.expand()


def _mesh_name(mesh) -> str:
    return "x".join(str(d) for d in mesh)


def _record_calls(patch, module, name: str) -> list:
    """Wrap ``module.name`` (looked up there at call time by its
    callers) so each call appends its positional arguments to the
    returned list."""
    fn = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    patch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_campaign_grid_gate(tmp_path, name):
    """Shape gate on one grid, recorded under its own section."""
    grid = GRIDS[name]
    spec, tasks = _grid(name)
    meta = {"spec_digest": spec.digest()}
    out = str(tmp_path / f"{name}.jsonl")
    nests = len({t.compile_key for t in tasks})
    if name == "grid_2d":
        assert len(tasks) == 4 * nests  # 2 machines x 2 meshes per nest
    if name == "grid_triangular":
        assert len(tasks) == 2 * (grid["nests"] + 4)  # + 4 corpus kernels

    # supervised workers fork from this process and inherit its
    # caches: start them cold
    clear_compile_cache()
    clear_baseline_cache()
    spawns = metrics.counter("campaign.executor.resilient.spawns")
    spawned = spawns.value
    t0 = time.perf_counter()
    outcome = run_campaign(tasks, out, CampaignConfig(jobs=JOBS), meta=meta)
    wall = time.perf_counter() - t0
    spawned = spawns.value - spawned

    # --- the gate: every task completes, zero errors/timeouts ---------
    assert outcome.ran == len(tasks)
    assert outcome.ok == len(tasks)
    assert outcome.errors == 0
    assert outcome.timeouts == 0

    # compile-once/price-many: exactly one compile per compile key, the
    # other cells of its group hit the per-worker cache
    assert outcome.compile_cache_misses == nests
    assert outcome.compile_cache_hits == len(tasks) - nests
    # long-lived workers: a faultless run starts one per job slot it
    # fills and none after
    assert spawned == min(JOBS, nests), spawned

    # resume on a completed checkpoint is a no-op
    again = run_campaign(tasks, out, resume=True, meta=meta)
    assert again.ran == 0 and again.prior == len(tasks)

    _, results = RunStore(out).load()
    rows = summarize_results(results.values())
    assert all(row["errors"] == 0 and row["timeouts"] == 0 for row in rows)
    assert {row["machine"] for row in rows} == set(grid["machines"])
    assert {row["mesh"] for row in rows} == {
        _mesh_name(mm) for mm in grid["meshes"]
    }
    assert {row["m"] for row in rows} == set(grid["ms"])
    # the two-step heuristic should never *lose* to greedy step 1
    assert all(
        row["residuals"] <= row["baseline_residuals"] for row in rows
    )
    # ... on a grid that has residual communication to lose: at least
    # one group's baseline leaves residuals (else its ratio is None)
    assert any(row["residual_ratio"] is not None for row in rows)

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "generated_nests": grid["nests"],
            "shapes": list(grid["shapes"]),
            "machines": list(grid["machines"]),
            "meshes": [_mesh_name(mm) for mm in grid["meshes"]],
            "m": list(grid["ms"]),
            "tasks": len(tasks),
            "jobs": JOBS,
            "wall_seconds": round(wall, 3),
            "tasks_per_second": round(len(tasks) / wall, 2),
            "unique_compiles": outcome.compile_cache_misses,
            "worker_spawns": spawned,
            "compile_cache": {
                "hits": outcome.compile_cache_hits,
                "misses": outcome.compile_cache_misses,
            },
            "baseline_cache": {
                "hits": outcome.baseline_cache_hits,
                "misses": outcome.baseline_cache_misses,
            },
            "summary_rows": rows,
        },
        section=name,
    )


def test_steady_state_counts(tmp_path, monkeypatch):
    """The price-bound repeat run: the compile LRU and the
    baseline-price memo are process-persistent, so a second inline run
    of ``grid_2d`` compiles nothing, prices no baseline, and prices
    each compile-key group's cells in one ``execute_group`` call whose
    point-to-point kernel (``phase_times_segmented``) launches at most
    once, every mesh of the group in that one launch — the ceiling
    ``run_all.py --profile`` enforces.  The cold first run prices the
    baselines too, in the same call: one ``execute_group`` call per
    multi-cell group carrying its heuristic cells and baseline misses,
    so pricing calls and launches stay at most one per multi-cell group
    plus two per one-task group.  Twin cells (paragon and cm5 on one mesh) share one
    program, so ``comm_batches`` runs once per distinct (nest, mesh)
    folding, and each group's records go to the store in one
    ``RunStore.append``.  On the cold run each extraction folds its
    stacked sender and receiver rows with one ``Folding.fold_array``
    call and each (nest, mesh) folding gets one heuristic program.  The
    compile entry keeps its machine models and heuristic programs, and
    each program its folded extraction and pricing rows, so the steady
    run makes no ``fold_array`` call, builds no heuristic program
    (``CompiledNest.program``) and no machine model
    (``MachineSpec.make``).  Each
    pricing call groups all its labels and foldings with at most one
    ``unique_rows`` call, whose packed key never falls back to the axis
    unique.  ``runtime.price.launches`` also counts the CM-5 collective
    lanes, so it is recorded next to the gated count, as is
    ``runtime.price.phases``."""
    from repro.driver import CompiledNest
    from repro.machine import MachineSpec, backend, machines
    from repro.obs import metrics
    from repro.runtime import Folding, MappedProgram, executor

    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}
    groups = group_by_compile_key(tasks)
    # a multi-cell group prices its heuristic cells and baseline misses
    # in one call; a one-task group makes one call per mapping
    multi_cell = sum(1 for g in groups if len(g) > 1)
    call_ceiling = multi_cell + 2 * (len(groups) - multi_cell)
    clear_compile_cache()
    clear_baseline_cache()
    with monkeypatch.context() as cold_patch:
        cold_pricing = count_pricing_calls(
            cold_patch, str(tmp_path / "cold_pricing.log")
        )
        cold_kernel = _record_calls(
            cold_patch, machines, "phase_times_segmented"
        )
        cold_extractions = _record_calls(
            cold_patch, MappedProgram, "comm_batches"
        )
        cold_folds = _record_calls(cold_patch, Folding, "fold_array")
        cold_programs = _record_calls(cold_patch, CompiledNest, "program")
        cold = run_campaign(
            tasks, str(tmp_path / "warmup.jsonl"),
            CampaignConfig(jobs=1), meta=meta,
        )
    cold_singles, cold_groups = cold_pricing()
    cold_calls = cold_singles + len(cold_groups)
    assert cold.ok == len(tasks) and cold.baseline_cache_hits == 0
    # the cold run prices both mappings: one call per multi-cell group,
    # its heuristic cells and baseline misses together
    assert sorted(cold_groups) == sorted(2 * len(g) for g in groups if len(g) > 1)
    assert 0 < len(cold_kernel) <= cold_calls <= call_ceiling
    # the cold run folds each extraction once and builds one heuristic
    # program per (nest, mesh) folding, shared by its twin cells
    foldings = {(t.compile_key, t.mesh) for t in tasks}
    assert 0 < len(cold_folds) == len(cold_extractions)
    assert len(cold_programs) == len(foldings) < len(tasks)

    pricing = count_pricing_calls(monkeypatch, str(tmp_path / "pricing.log"))
    kernel_calls = _record_calls(monkeypatch, machines, "phase_times_segmented")
    extractions = _record_calls(monkeypatch, MappedProgram, "comm_batches")
    folds = _record_calls(monkeypatch, Folding, "fold_array")
    # the executor is the one importer of unique_rows in src
    groupbys = [
        _record_calls(monkeypatch, module, "unique_rows")
        for module in (executor, backend)
    ]
    appends = _record_calls(monkeypatch, RunStore, "append")
    programs = _record_calls(monkeypatch, CompiledNest, "program")
    makes = _record_calls(monkeypatch, MachineSpec, "make")
    launches = metrics.counter("runtime.price.launches")
    phases = metrics.counter("runtime.price.phases")
    fallbacks = metrics.counter("machine.unique_rows.fallbacks")
    launches_before, phases_before = launches.value, phases.value
    fallbacks_before = fallbacks.value
    steady = run_campaign(
        tasks, str(tmp_path / "steady.jsonl"),
        CampaignConfig(jobs=1), meta=meta,
    )
    all_launches = launches.value - launches_before
    phases_priced = phases.value - phases_before
    wide_groupbys = fallbacks.value - fallbacks_before
    kernel_launches = len(kernel_calls)
    singles, group_calls = pricing()

    assert steady.ok == len(tasks) and steady.errors == 0
    assert steady.compile_cache_hits == len(tasks)
    assert steady.baseline_cache_hits == len(tasks)
    # one execute_group call per group, carrying every cell of it
    assert singles == 0
    assert sorted(group_calls) == sorted(len(g) for g in groups)
    # at most one point-to-point launch per pricing call
    assert 0 < kernel_launches <= len(group_calls) <= call_ceiling
    # one extraction per distinct folding, one store write per group
    assert len(extractions) == len(foldings)
    assert len(appends) == len(groups)
    # the compile entries keep their machine models and programs, and
    # each program its folded extraction: the warm pass folds nothing
    # and builds neither
    assert len(folds) == len(programs) == len(makes) == 0
    # at most one group-by per pricing call, every group-by key packed
    # into one int64
    groupby_calls = sum(map(len, groupbys))
    assert 0 < groupby_calls <= singles + len(group_calls)
    assert wide_groupbys == 0

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "groups": len(groups),
            "compile_cache_hits": steady.compile_cache_hits,
            "baseline_cache_hits": steady.baseline_cache_hits,
            "pricing_call_ceiling": call_ceiling,
            "cold_pricing_calls": cold_calls,
            "cold_cells_per_execute_group": sorted(set(cold_groups)),
            "cold_segmented_kernel_launches": len(cold_kernel),
            "execute_calls": singles,
            "execute_group_calls": len(group_calls),
            "cells_per_execute_group": sorted(set(group_calls)),
            "segmented_kernel_launches": kernel_launches,
            "price_launches": all_launches,
            "phases_priced": phases_priced,
            "comm_batches_calls": len(extractions),
            "distinct_foldings": len(foldings),
            "fold_array_calls": len(folds),
            "cold_comm_batches_calls": len(cold_extractions),
            "cold_fold_array_calls": len(cold_folds),
            "cold_program_builds": len(cold_programs),
            "program_builds": len(programs),
            "machine_makes": len(makes),
            "unique_rows_calls": groupby_calls,
            "unique_rows_fallbacks": wide_groupbys,
            "store_appends": len(appends),
        },
        section="steady_state",
    )


def test_batched_vs_per_cell(tmp_path):
    """Whole-group pricing vs one-task groups of the same group
    function, on a rank-weights swept grid (the shape the baseline memo
    exists for: half the baselines are pure re-prices).  The two paths
    must write identical deterministic records; the walls and the
    baseline-cache hit rate land under ``batched_pricing``."""
    spec = default_spec(
        seed=SEED, nests=4, include_corpus=False,
        meshes=GRIDS["grid_2d"]["meshes"], rank_weights=(True, False),
    )
    tasks = spec.expand()
    meta = {"spec_digest": spec.digest()}
    cells = len(tasks) // 2  # distinct (workload, machine, mesh)

    def run(name, *, batched):
        path = str(tmp_path / f"{name}.jsonl")
        clear_compile_cache()
        clear_baseline_cache()
        outcome = None
        with pytest.MonkeyPatch.context() as patch:
            if not batched:
                patch.setattr(runner, "BASELINE_CACHE_SIZE", 0)
            t0 = time.perf_counter()
            if batched:
                outcome = run_campaign(
                    tasks, path, CampaignConfig(jobs=1), meta=meta
                )
            else:
                # the per-cell reference: one-task groups of the same
                # group function, baseline memo off
                store = RunStore(path)
                store.start(meta)
                for task in tasks:
                    store.append(run_task_group([task]))
                store.close()
            wall = time.perf_counter() - t0
        _, results = RunStore(path).load()
        assert len(results) == len(tasks)
        assert all(r.status == "ok" for r in results.values())
        return outcome, results, wall

    _, per_cell, per_cell_wall = run("per_cell", batched=False)
    batched_outcome, batched, batched_wall = run("batched", batched=True)
    hits = batched_outcome.baseline_cache_hits
    misses = batched_outcome.baseline_cache_misses

    # --- the gate: record-for-record byte identity ---------------------
    assert set(batched) == set(per_cell)
    for tid in batched:
        assert canonical_json(
            batched[tid].deterministic_dict()
        ) == canonical_json(per_cell[tid].deterministic_dict()), tid

    # the sweep shape delivers: one baseline priced per cell, the
    # second knob value's baseline is a memo hit
    assert misses == cells
    assert hits == cells

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "meshes": [_mesh_name(mm) for mm in GRIDS["grid_2d"]["meshes"]],
            "rank_weights_swept": True,
            "per_cell_wall_seconds": round(per_cell_wall, 3),
            "batched_wall_seconds": round(batched_wall, 3),
            "batched_speedup": round(per_cell_wall / batched_wall, 2),
            "baseline_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 3),
            },
        },
        section="batched_pricing",
    )


def test_fused_vs_per_phase_pricing(tmp_path):
    """Fused segmented pricing vs the per-phase oracle
    (``tests/oracles/pricing.py``) on ``grid_2d``: the two must write
    identical deterministic records, and the phase and kernel-launch
    counts of the fused run land under ``fused_pricing``."""
    from contextlib import nullcontext

    from repro.machine import machines
    from repro.obs import clear_spans, set_enabled, span_snapshot

    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}

    def run(name, *, fused):
        path = str(tmp_path / f"{name}.jsonl")
        clear_compile_cache()
        clear_baseline_cache()
        t0 = time.perf_counter()
        with nullcontext() if fused else per_phase_pricing():
            outcome = run_campaign(
                tasks, path, CampaignConfig(jobs=1), meta=meta
            )
        wall = time.perf_counter() - t0
        assert outcome.ok == len(tasks) and outcome.errors == 0
        _, results = RunStore(path).load()
        return results, wall

    per_phase, per_phase_wall = run("per_phase", fused=False)
    fused, fused_wall = run("fused", fused=True)

    # --- the gate: record-for-record byte identity ---------------------
    assert set(fused) == set(per_phase)
    for tid in fused:
        assert canonical_json(
            fused[tid].deterministic_dict()
        ) == canonical_json(per_phase[tid].deterministic_dict()), tid

    # segment accounting: spans count *phases* (one exec.segmented span
    # per lane call, count = phases priced), the wrapper counts kernel
    # launches
    clear_compile_cache()
    clear_baseline_cache()
    prev_trace = set_enabled(True)
    clear_spans()
    try:
        with pytest.MonkeyPatch.context() as patch:
            launches = _record_calls(patch, machines, "phase_times_segmented")
            run_campaign(
                tasks, str(tmp_path / "prof.jsonl"),
                CampaignConfig(jobs=1), meta=meta,
            )
    finally:
        set_enabled(prev_trace)
    phases_priced = sum(
        int(e["count"])
        for p, e in span_snapshot().items()
        if p.endswith("exec.segmented")
    )
    clear_spans()
    kernel_launches = len(launches)
    assert kernel_launches > 0
    assert phases_priced >= kernel_launches

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "per_phase_wall_seconds": round(per_phase_wall, 3),
            "fused_wall_seconds": round(fused_wall, 3),
            "phases_priced": phases_priced,
            "segmented_kernel_launches": kernel_launches,
            "phases_per_launch": round(
                phases_priced / kernel_launches, 2
            ),
        },
        section="fused_pricing",
    )


def test_cold_compile_disk_cache(tmp_path, monkeypatch):
    """The cold-start family.  Three inline cold runs of ``grid_2d``
    (in-memory caches cleared before each): no disk tier compiles every
    nest, a populating disk tier writes every nest, and a warm disk
    tier serves every nest without one ``compile_nest`` call.  Then the
    integer Fourier–Motzkin kernel replays the exact systems the grid's
    compiles ran against the ``Fraction`` oracle, verdict for verdict.
    """
    import repro.driver as driver
    from repro.ir import dependence as dep

    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}
    # one m and one knob value: a nest per workload, counted without
    # trusting compile_key
    nests = len({t.workload.name for t in tasks})
    disk = str(tmp_path / "compile-cache")

    compiles = _record_calls(monkeypatch, driver, "compile_nest")

    def cold_run(name, disk_dir):
        clear_compile_cache()
        clear_baseline_cache()
        compiles.clear()
        t0 = time.perf_counter()
        outcome = run_campaign(
            tasks, str(tmp_path / f"{name}.jsonl"),
            CampaignConfig(jobs=1, settings=Settings(compile_dir=disk_dir)),
            meta=meta,
        )
        wall = time.perf_counter() - t0
        assert outcome.ok == len(tasks) and outcome.errors == 0
        return outcome, wall, compile_cache_stats(), len(compiles)

    nodisk_outcome, nodisk_wall, nodisk_stats, nodisk_compiles = cold_run(
        "nodisk", None
    )
    # cold by construction: the in-memory LRU starts empty
    assert nodisk_outcome.compile_cache_misses == nests
    assert nodisk_compiles == nests
    assert nodisk_stats["disk_writes"] == 0
    _, populate_wall, populate_stats, _ = cold_run("populate", disk)
    assert populate_stats["disk_writes"] == nests
    warm_outcome, warm_wall, warm_stats, warm_compiles = cold_run("warm", disk)
    # a disk hit is a compile the task never paid: every task reports a
    # cache hit even though the in-memory LRU started empty
    assert warm_outcome.compile_cache_hits == len(tasks)
    assert warm_stats["disk_hits"] == nests
    assert warm_stats["disk_misses"] == 0
    assert warm_compiles == 0

    # --- integer FM kernel vs the exact Fraction oracle -----------------
    # record every system the reference compiles actually run (memo off
    # so repeats aren't hidden), then replay both on the corpus
    real = dep._fm_feasible
    clear_compile_cache()
    dep.clear_dependence_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dep, "DEPENDENCE_CACHE_SIZE", 0)
        systems = _record_calls(patch, dep, "_fm_feasible")
        try:
            for group in group_by_compile_key(tasks):
                runner._compile_for_task(group[0])
        finally:
            clear_compile_cache()
    assert systems, "reference compiles ran no FM systems"
    assert [real(rows, nv) for rows, nv in systems] == [
        fm_feasible(rows, nv) for rows, nv in systems
    ]

    record_bench(
        "campaign",
        {
            "seed": SEED,
            "tasks": len(tasks),
            "unique_compiles": nests,
            "no_disk_wall_seconds": round(nodisk_wall, 3),
            "no_disk_compile_nest_calls": nodisk_compiles,
            "populate_wall_seconds": round(populate_wall, 3),
            "warm_disk_wall_seconds": round(warm_wall, 3),
            "warm_disk_compile_nest_calls": warm_compiles,
            "disk_cache": {
                "writes": populate_stats["disk_writes"],
                "hits": warm_stats["disk_hits"],
                "misses": warm_stats["disk_misses"],
            },
            "fm_systems": len(systems),
        },
        section="cold_compile",
    )
