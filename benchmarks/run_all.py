#!/usr/bin/env python3
"""Run every ``bench_*.py`` non-interactively and record the results.

CI / per-PR entry point::

    python benchmarks/run_all.py              # every bench file
    python benchmarks/run_all.py --match fig  # subset by filename substring
    python benchmarks/run_all.py --profile    # cProfile hotspots -> BENCH_profile.json

Each benchmark file runs in its own pytest subprocess (``PYTHONPATH``
is set up automatically, so this works from a clean checkout).  The
suite has one mode: the paper files assert the paper's shape claims
(who wins, orderings, rough factors), the subsystem files gate on
deterministic counts and bit-identity, plus the two in-run
twin-vs-vectorized speedup floors that clear their target by more than
2x (legality, runtime executor).  Timing claims belong to
``perfbench/``.  Benchmarks that call ``record_bench`` refresh their
``BENCH_<name>.json`` artifacts as they go, and a ``BENCH_run_all.json``
summary (per-file status and wall time) is always written.

Exit status is nonzero iff any benchmark fails.

Registered subsystem gates (beyond the paper artefacts):

* ``bench_campaign.py`` — the campaign gates, in ``BENCH_campaign.json``:
  the ``grid_2d``, ``grid_3d`` (``t3d`` on a 2x2x2 cube) and
  ``grid_triangular`` grids each complete with every task ok and zero
  error/timeout records, one compile per compile key and a no-op
  resume; the cold first run of ``grid_2d`` prices each multi-cell
  group's heuristic cells and baseline misses in one ``execute_group``
  call (at most one pricing call per multi-cell group plus two per
  one-task group); a warm repeat run hits every compile and baseline
  price, prices each compile-key group in one ``execute_group`` call
  and launches the segmented kernel at most once per call, every mesh
  of the group in that one launch (``steady_state``); whole-group and fused pricing write the
  same records as one-task groups and the per-phase oracle; a cold run
  compiles every nest, a warm disk compile cache makes no
  ``compile_nest`` call, and the integer Fourier–Motzkin kernel agrees
  with the ``Fraction`` oracle on the grid's systems
  (``cold_compile``);
* ``bench_perf_core.py`` — vectorized mesh core vs the per-element
  oracles: bit-identity, and warm calls make no route-cache miss and
  one hit per remote message; speedups recorded in
  ``BENCH_perf_core.json``;
* ``bench_runtime_exec.py`` — vectorized runtime executor vs the
  per-element Python baseline (bit-identity + >= 5x floor), recorded in
  ``BENCH_runtime_exec.json``;
* ``bench_legality.py`` — vectorized schedule-legality checker vs the
  per-element Python baseline (bit-identity on seed + 50 generated
  workloads + >= 5x floor), recorded in ``BENCH_legality.json``;
* ``bench_chaos.py`` — the robustness gate: a campaign with injected
  worker kills, SIGALRM-proof hangs and transient failures (the
  ``REPRO_FAULT_INJECT`` harness) must complete under the ``resilient``
  executor with every fault as a typed record, then converge
  bit-identically to the unfaulted run on a ``retry_failures`` resume
  (and self-heal in-run with ``retries=2``); measurements in
  ``BENCH_chaos.json``;
* ``bench_trace_overhead.py`` — the observability gate: a disabled
  ``span()`` is pinned to nanoseconds, a traced run makes the same
  pricing calls and compiles as an untraced one, and its per-stage
  totals (compile + price + executor overhead) sum exactly to the
  summed task wall time with the instrumented stages covering >= 50%
  of it; the stage shares land in ``BENCH_trace.json`` (section
  ``grid_2d``).

``--profile`` runs the reference scenarios (a *cold* inline campaign
grid + the reference pricing workload) under ``cProfile`` and writes
the top cumulative-time hotspots to ``BENCH_profile.json`` — the
per-PR answer to "where do the cycles go now?".  Since the legality
fast path landed it also *asserts* that ``schedule_is_legal`` has left
the top-10 hotspot list, and since the cold-compile fast path landed
(integer FM kernel + dependence memoization) it asserts that pricing,
not the compile stage, owns the cold profile — compile cumulative time
below batched pricing and dependence analysis (``find_dependences``,
``_test_dependence_uncached``) out of the top-10 (exit 1 if either
compile-side regression ever returns).  Since the
fused segmented pricing kernels it further asserts that
``phase_times_segmented`` ran, and, since every mesh of a call shares
one launch, at most once per pricing call (``execute`` /
``execute_group``); since a multi-cell group prices its heuristic
cells and baseline misses in one call, it asserts at most one pricing
call per multi-cell compile-key group plus two per one-task group
(plus the reference workload's one) — the counts land in the same
artifact (``price_calls``, ``price_call_ceiling``,
``segmented_kernel_launches``, ``phases_per_launch``); the warm rerun
below holds the launch ceiling (``warm_kernel_launches`` <=
``warm_pricing_calls``).  Since the compile
path went to Python ints only (integer FM, ``IntMat``, fraction-free
kernels and ``unimodular_inverse``) it also asserts that no ``repro``
function calls into ``fractions`` or the ``FracMat`` oracle of
``tests/oracles/linalg.py`` (``fraction_calls_from_repro`` == 0), that
``FracMat.rref`` never runs (``fracmat_rref_calls`` == 0),
and that ``integer_kernel_basis`` runs its elimination at most once per
distinct matrix (``integer_kernel_basis_misses`` <=
``integer_kernel_basis_distinct``).  Since the cold compile reads each
nest's dependence facts once (the dependence and macro memos start
empty for the profiled run), it asserts that step 2 computes each
macro verdict at most once per distinct argument
(``macro_verdicts_computed`` <= ``macro_verdicts_distinct``), that
legality labels only the pairs the dependence test kept
(``legality_label_passes`` <= ``legality_kept_pairs``), and that
schedule inference makes at most one carried-depth solve per kept pair
plus one per level raise (``schedule_depth_solves`` <=
``schedule_depth_ceiling``).  Since the contention kernel went
route-free, it reruns the grid warm and asserts that
``phase_times_segmented`` makes no route-cache lookup
(``warm_kernel_route_lookups`` == 0) and no ``unique_rows`` call
(``warm_kernel_unique_rows_calls`` == 0).  Since extraction folds one
stacked array per folding and pricing groups every label at once, it
asserts on the same warm pass that ``Folding.fold_array`` runs once per
extraction (``warm_fold_array_calls`` == ``warm_extractions``), that
pricing makes at most one ``unique_rows`` call per pricing call
(``warm_pricing_unique_rows_calls`` <= ``warm_pricing_calls``) and that
no group-by key falls back to the axis unique
(``warm_unique_rows_fallbacks`` == 0).  Since legality and extraction
read one domain stage per scheduled nest, it asserts that the cold run
enumerates each statement with accesses of every compiled nest (and of
the reference workload) at most once: ``Domain.point_matrix`` calls
(``domain_enumerations``) <= those statements
(``domain_enumeration_ceiling``).
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import time
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: hotspot rows kept in BENCH_profile.json
PROFILE_TOP_N = 30


def run_profile(top_n: int = PROFILE_TOP_N) -> int:
    """Profile the reference scenarios and record the hotspots.

    Runs (in-process, ``jobs=1`` so worker time is attributed) a small
    campaign grid — compile + price over the default workload corpus —
    and the reference pricing workload of ``bench_runtime_exec.py``,
    then writes the ``top_n`` functions by cumulative time to
    ``BENCH_profile.json``.
    """
    import cProfile
    import pstats

    sys.path.insert(0, SRC_DIR)
    from repro import compile_nest
    from repro.campaign import CampaignConfig, default_spec, run_campaign
    from repro.campaign.sweep import group_by_compile_key
    from repro.alignment import heuristic
    from repro.ir import clear_dependence_caches, motivating_example
    from repro.linalg import get_cache
    from repro.machine import MeshModel
    from repro.obs import metrics
    from repro.runtime import execute

    import tempfile

    spec = default_spec(seed=0, nests=4, meshes=((4, 4), (2, 2)))
    tasks = spec.expand()
    compiled = compile_nest(motivating_example(), m=2)
    machine = MeshModel(4, 4)
    params = {"N": 14, "M": 14}

    phases = metrics.counter("runtime.price.phases")
    phases_before = phases.value
    # the kernel memo never evicts below maxsize, so the growth of its
    # key set during the run is the number of distinct matrices seen
    kernel_memo = get_cache("integer_kernel_basis")
    kernel_keys_before = len(kernel_memo)
    kernel_lookups_before = kernel_memo.hits + kernel_memo.misses
    # generating the workloads inferred their schedules and ran step 2:
    # start the dependence and macro memos empty so the profiled
    # compiles compute them, and record what the dependence-fact gates
    # bound (every uncached depth walk, every legality pass)
    clear_dependence_caches()
    heuristic._macro_cache.clear()

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    with _recording_dependence_facts() as (
        depth_walks,
        legality_passes,
    ), _counting_enumerations() as (
        enumerations,
        compiled_nests,
    ), tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "profile.jsonl")
        prof.enable()
        run_campaign(tasks, out, CampaignConfig(jobs=1), meta={})
        execute(compiled.program(machine, params), machine)
        prof.disable()
    wall = time.perf_counter() - t0
    warm = _profile_warm_kernel(tasks)

    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    rows = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda kv: -kv[1][3]
    ):
        fname, line, name = func
        rows.append(
            {
                "function": name,
                "file": os.path.relpath(fname, os.path.dirname(BENCH_DIR))
                if fname.startswith(os.path.dirname(BENCH_DIR))
                else fname,
                "line": line,
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
        if len(rows) >= top_n:
            break

    by_name: dict = {}
    for r in rows:
        by_name.setdefault(r["function"], r)
    compile_ct = by_name.get("_compile_for_task", {}).get("cumtime_s", 0.0)
    # the group path: fault checks, the group's one compile and its
    # batched pricing
    price_ct = by_name.get("run_task_group", {}).get("cumtime_s", 0.0)

    # full-stats call counts (not just the top rows) for the fused
    # pricing gate: per-phase pricing entry points vs kernel launches
    def _ncalls(fn_name: str) -> int:
        return sum(
            nc
            for (_f, _l, name), (_cc, nc, *_rest) in stats.stats.items()
            if name == fn_name
        )

    # exact-arithmetic gate: the elimination behind
    # integer_kernel_basis runs once per distinct matrix, and nothing
    # in the profile reaches Fraction arithmetic
    def _is(func, fn_name: str, module: str) -> bool:
        fname, _line, name = func
        return name == fn_name and fname.endswith(module)

    kernel_runs = sum(
        nc
        for func, (_cc, nc, *_rest) in stats.stats.items()
        if _is(func, "integer_kernel_basis", os.path.join("linalg", "kernels.py"))
    )
    kernel_distinct = len(kernel_memo) - kernel_keys_before
    kernel_evicted = len(kernel_memo) >= kernel_memo.maxsize
    kernel_lookups = kernel_memo.hits + kernel_memo.misses - kernel_lookups_before
    # FracMat lives in the rational test oracle, never under repro/
    fracmat_py = os.path.join("oracles", "linalg.py")
    rref_calls = sum(
        nc
        for func, (_cc, nc, *_rest) in stats.stats.items()
        if _is(func, "rref", fracmat_py)
    )
    # calls from repro code into ``fractions`` or the rational oracle
    # (``FracMat``): the compile path is Python ints only
    repro_dir = os.path.join(SRC_DIR, "repro") + os.sep

    def _rational(fname: str) -> bool:
        return fname.endswith(fracmat_py) or os.path.basename(fname) == "fractions.py"

    fraction_calls = sum(
        nc
        for (fname, _l, _n), (*_head, callers) in stats.stats.items()
        if _rational(fname)
        for (cfile, _cl, _cn), (_cc, nc, *_rest) in callers.items()
        if cfile.startswith(repro_dir)
    )

    # dependence-fact gates: each macro verdict is computed once per
    # distinct argument; legality labels only the pairs the dependence
    # test kept; schedule inference solves each kept pair once, plus
    # once per level raise
    macro_runs = sum(
        nc
        for func, (_cc, nc, *_rest) in stats.stats.items()
        if _is(func, "_macro_verdict", os.path.join("alignment", "heuristic.py"))
    )
    macro_distinct = len(heuristic._macro_cache)
    macro_evicted = macro_distinct >= heuristic._macro_cache.maxsize
    label_passes = _ncalls("_shared_labels")
    kept_pairs = sum(_kept_pairs(sn.nest, p) for sn, p in legality_passes)
    depth_solves = _ncalls("dependent_within")
    # the walk starts at level 1, so a nest of outer depth d raised the
    # level at most d - 1 times
    depth_ceiling = sum(
        _kept_pairs(nest, p) + max((depth or 0) - 1, 0)
        for nest, p, depth in depth_walks
    )

    kernel_launches = _ncalls("phase_times_segmented")
    price_calls = _ncalls("execute") + _ncalls("execute_group")
    # a multi-cell group prices its heuristic cells and baseline misses
    # in one call, a one-task group in one call per mapping; the
    # reference pricing workload adds one execute call
    groups = group_by_compile_key(tasks)
    multi_cell_groups = sum(1 for g in groups if len(g) > 1)
    one_task_groups = len(groups) - multi_cell_groups
    call_ceiling = multi_cell_groups + 2 * one_task_groups + 1
    phases_priced = phases.value - phases_before
    # one enumeration per statement with accesses of every compiled nest
    # and of the reference workload (priced at bindings of its own)
    enumeration_ceiling = sum(
        sum(1 for s in nest.statements if s.accesses)
        for nest in compiled_nests + [compiled.nest]
    )

    from _harness import record_bench

    record_bench(
        "profile",
        {
            "scenario": (
                "cold campaign default grid (4 nests + corpus, meshes "
                "4x4+2x2, jobs=1, fresh process so every compile/"
                "dependence cache starts empty) + reference pricing "
                "workload (motivating example, N=M=14, 4x4 mesh)"
            ),
            "wall_seconds": round(wall, 3),
            "top_n": top_n,
            "compile_stage_cumtime_s": compile_ct,
            "pricing_stage_cumtime_s": price_ct,
            "price_calls": price_calls,
            "multi_cell_groups": multi_cell_groups,
            "one_task_groups": one_task_groups,
            "price_call_ceiling": call_ceiling,
            "segmented_kernel_launches": kernel_launches,
            "phases_priced": phases_priced,
            "phases_per_launch": round(
                phases_priced / kernel_launches if kernel_launches else 0.0,
                2,
            ),
            "integer_kernel_basis_calls": kernel_lookups,
            "integer_kernel_basis_misses": kernel_runs,
            "integer_kernel_basis_distinct": kernel_distinct,
            "fracmat_rref_calls": rref_calls,
            "fraction_calls_from_repro": fraction_calls,
            "macro_verdicts_computed": macro_runs,
            "macro_verdicts_distinct": macro_distinct,
            "legality_label_passes": label_passes,
            "legality_kept_pairs": kept_pairs,
            "schedule_depth_solves": depth_solves,
            "schedule_depth_ceiling": depth_ceiling,
            "domain_enumerations": len(enumerations),
            "domain_enumeration_ceiling": enumeration_ceiling,
            "warm_kernel_launches": warm["launches"],
            "warm_kernel_route_lookups": warm["route_lookups"],
            "warm_kernel_unique_rows_calls": warm["unique_rows"],
            "warm_extractions": warm["extractions"],
            "warm_fold_array_calls": warm["folds"],
            "warm_pricing_calls": warm["pricing_calls"],
            "warm_pricing_unique_rows_calls": warm["groupbys"],
            "warm_unique_rows_fallbacks": warm["groupby_fallbacks"],
            "hotspots": rows,
        },
    )
    top = rows[:5]
    print("top cumulative hotspots:")
    for r in top:
        print(
            f"  {r['cumtime_s']:>8.3f}s  {r['function']} "
            f"({r['file']}:{r['line']})"
        )

    # the PR-5 regression gate: the legality checker's bounded witness
    # enumeration used to dominate compile time; the vectorized domain
    # path must keep it out of the top-10 hotspots
    offenders = [
        r["function"]
        for r in rows[:10]
        if r["function"] in ("schedule_is_legal", "schedule_violations")
    ]
    if offenders:
        print(
            f"FAIL: {', '.join(sorted(set(offenders)))} back in the "
            "top-10 hotspot list — the legality fast path regressed "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print("gate ok: schedule_is_legal is out of the top-10 hotspots")

    # the PR-9 regression gate: the *cold* run used to be compile-bound
    # (~0.7 s of Fraction Fourier-Motzkin to compile 16 nests).  With
    # the integer FM kernel + dependence memoization, pricing — the
    # paper-relevant work — must own the profile: the compile stage
    # stays below the batched pricer in cumulative time, and dependence
    # analysis stays out of the top-10.  If either trips, the
    # cold-compile fast path has regressed and the artifact would drift
    # from the PERFORMANCE.md attribution prose.
    if price_ct and compile_ct >= price_ct:
        print(
            f"FAIL: compile stage ({compile_ct:.3f}s cumulative) has "
            f"overtaken batched pricing ({price_ct:.3f}s) in the cold "
            "profile — the integer FM kernel / dependence memo "
            "regressed (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    fm_offenders = [
        r["function"]
        for r in rows[:10]
        if r["function"] in ("_test_dependence_uncached", "find_dependences")
    ]
    if fm_offenders:
        print(
            f"FAIL: {', '.join(sorted(set(fm_offenders)))} back in the "
            "top-10 hotspot list — dependence analysis owns the cold "
            "profile again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        "gate ok: pricing owns the cold profile "
        f"(compile {compile_ct:.3f}s < pricing {price_ct:.3f}s cumulative)"
    )

    # the fused-pricing gates: a multi-cell compile-key group prices
    # its heuristic cells and baseline misses in one pricing call (a
    # one-task group in at most two), and every pricing call launches
    # the segmented kernel at most once, with every label, cell, mesh,
    # mapping and phase stacked into the launch.  More calls mean the
    # two mappings are priced apart again; more launches mean meshes,
    # labels or cells are leaking back onto launches of their own.
    if price_calls > call_ceiling:
        print(
            f"FAIL: {price_calls} pricing calls in the reference profile, "
            f"above {call_ceiling} ({multi_cell_groups} multi-cell "
            f"groups + 2 x {one_task_groups} one-task groups + 1 "
            "reference call) — a group's heuristic and baseline cells "
            "are priced apart again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    if kernel_launches == 0:
        print(
            "FAIL: phase_times_segmented never ran in the reference "
            "profile — the fused pricing path is not engaged "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    if kernel_launches > price_calls:
        print(
            f"FAIL: {kernel_launches} phase_times_segmented launches in "
            f"the reference profile, above {price_calls} pricing calls — "
            "pricing has regressed to more than one launch per call "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        "gate ok: fused pricing engaged "
        f"({kernel_launches} segmented kernel launches <= "
        f"{price_calls} pricing calls <= {call_ceiling} "
        f"({multi_cell_groups} multi-cell groups + 2 x {one_task_groups} "
        "one-task groups + 1), "
        f"{phases_priced / kernel_launches:.1f} phases per launch)"
    )

    # the route-free kernel gates: on a warm steady pass the segmented
    # kernel launches at most once per pricing call, looks up no route
    # (a link_ids call is one route-cache hit or miss) and runs no
    # unique_rows group-by; its link loads and fanouts come from one
    # sort of interval end points
    route_free = True
    if warm["launches"] == 0:
        print(
            "FAIL: the warm steady pass launched no phase_times_segmented "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        route_free = False
    if warm["route_lookups"]:
        print(
            f"FAIL: phase_times_segmented made {warm['route_lookups']} "
            f"route-cache lookups (hits + misses) over {warm['launches']} "
            "launches of a warm steady pass — pricing gathers routes again "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        route_free = False
    if warm["launches"] > warm["pricing_calls"]:
        print(
            f"FAIL: the warm steady pass made {warm['launches']} "
            f"phase_times_segmented launches for {warm['pricing_calls']} "
            "pricing calls — pricing has regressed to more than one "
            "launch per call (see BENCH_profile.json)",
            file=sys.stderr,
        )
        route_free = False
    if warm["unique_rows"]:
        print(
            f"FAIL: phase_times_segmented made {warm['unique_rows']} "
            f"unique_rows calls over {warm['launches']} launches of a warm "
            "steady pass — the kernel runs a group-by again "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        route_free = False
    if not route_free:
        return 1
    print(
        "gate ok: route-free contention kernel (0 route-cache lookups and "
        f"0 unique_rows calls over {warm['launches']} warm kernel launches "
        f"<= {warm['pricing_calls']} pricing calls)"
    )

    # the stacked-extraction gates: on the warm pass every extraction
    # folds its stacked rows in one fold_array call, every pricing call
    # groups all its labels and foldings in at most one unique_rows
    # call, and no group-by key is too wide to pack into one int64
    stacked = True
    if not 0 < warm["folds"] == warm["extractions"]:
        print(
            f"FAIL: the warm pass made {warm['folds']} fold_array calls "
            f"for {warm['extractions']} extractions — extraction folds "
            "per access again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        stacked = False
    if not 0 < warm["groupbys"] <= warm["pricing_calls"]:
        print(
            f"FAIL: the warm pass made {warm['groupbys']} pricing "
            f"unique_rows calls over {warm['pricing_calls']} pricing calls "
            "— the group-by runs per label again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        stacked = False
    if warm["groupby_fallbacks"]:
        print(
            f"FAIL: {warm['groupby_fallbacks']} unique_rows calls of the "
            "warm pass fell back to the axis unique — a group-by key no "
            "longer packs into 63 bits (see BENCH_profile.json)",
            file=sys.stderr,
        )
        stacked = False
    if not stacked:
        return 1
    print(
        "gate ok: stacked extraction and one group-by per pricing call "
        f"({warm['folds']} fold_array calls for {warm['extractions']} "
        f"extractions, {warm['groupbys']} unique_rows calls over "
        f"{warm['pricing_calls']} pricing calls, 0 fallbacks)"
    )

    # the exact-arithmetic gate: the compile path runs on Python ints.
    # Any call from repro code into ``fractions`` or ``FracMat`` (or any
    # FracMat.rref at all) means a Fraction path is back; more
    # eliminations than distinct matrices means the kernel memo is
    # bypassed (or evicting).
    if fraction_calls or rref_calls:
        print(
            f"FAIL: {fraction_calls} calls from repro code into fractions/"
            f"FracMat and {rref_calls} FracMat.rref runs in the cold "
            "profile — a Fraction path is back on the compile path "
            "(see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    if kernel_evicted or kernel_runs > kernel_distinct:
        print(
            f"FAIL: integer_kernel_basis ran {kernel_runs} eliminations "
            f"for {kernel_distinct} distinct matrices"
            + (" (its memo filled up)" if kernel_evicted else "")
            + " — the kernel memo is not engaged (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        "gate ok: exact arithmetic on Python ints and kernels memoized "
        f"({kernel_runs} eliminations for {kernel_distinct} distinct "
        f"matrices over {kernel_lookups} calls; 0 calls into fractions/"
        "FracMat)"
    )

    if macro_evicted or macro_runs > macro_distinct:
        print(
            f"FAIL: _detect_macro computed {macro_runs} verdicts for "
            f"{macro_distinct} distinct arguments"
            + (" (its memo filled up)" if macro_evicted else "")
            + " — the macro memo is not engaged (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    if label_passes > kept_pairs:
        print(
            f"FAIL: legality labelled {label_passes} access pairs, but the "
            f"dependence test kept only {kept_pairs} — disproved pairs "
            "reach the label pass again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    if depth_walks == [] or depth_solves > depth_ceiling:
        print(
            f"FAIL: schedule inference made {depth_solves} carried-depth "
            f"solves over {len(depth_walks)} nests, above the {depth_ceiling} "
            "kept pairs + level raises — it probes disproved pairs or "
            "levels below the current one (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        "gate ok: dependence facts computed once "
        f"({macro_runs} macro verdicts for {macro_distinct} distinct "
        f"arguments; {label_passes} legality label passes <= {kept_pairs} "
        f"kept pairs; {depth_solves} carried-depth solves <= {depth_ceiling} "
        f"kept pairs + level raises over {len(depth_walks)} nests)"
    )

    # the one-enumeration gate: legality and extraction read one domain
    # stage per scheduled nest and bindings, so the cold run calls
    # point_matrix at most once per statement with accesses
    if len(enumerations) > enumeration_ceiling:
        print(
            f"FAIL: {len(enumerations)} Domain.point_matrix calls in the "
            f"cold profile, above {enumeration_ceiling} statements with "
            f"accesses over {len(compiled_nests)} compiled nests + the "
            "reference workload — legality or extraction enumerates a "
            "domain of its own again (see BENCH_profile.json)",
            file=sys.stderr,
        )
        return 1
    print(
        f"gate ok: one domain enumeration per statement "
        f"({len(enumerations)} point_matrix calls <= {enumeration_ceiling} "
        f"statements with accesses over {len(compiled_nests)} compiled "
        "nests + the reference workload)"
    )
    return 0


def _profile_warm_kernel(tasks) -> dict:
    """Run ``tasks`` once more in-process (compile and baseline caches
    warm from the profiled run) with every ``phase_times_segmented``
    launch under its own profiler; return the launches and the
    ``RouteCache.link_ids`` and ``unique_rows`` calls made inside them
    (a profiler sees a call whatever name it was imported under), plus
    the pass's extractions, folds, pricing calls, pricing group-bys and
    group-by fallbacks, counted by wrappers around the entry points."""
    import cProfile
    import pstats
    import tempfile

    import repro.runtime as runtime
    from repro.campaign import CampaignConfig, run_campaign
    from repro.machine import machines
    from repro.obs import metrics
    from repro.runtime import Folding, MappedProgram, executor

    kernel = machines.phase_times_segmented
    inner = cProfile.Profile()
    launches = 0

    def profiled(*args, **kwargs):
        nonlocal launches
        launches += 1
        inner.enable()
        try:
            return kernel(*args, **kwargs)
        finally:
            inner.disable()

    # the executor is the one importer of unique_rows in src
    counted = {
        "extractions": (MappedProgram, "comm_batches"),
        "folds": (Folding, "fold_array"),
        "groupbys": (executor, "unique_rows"),
        "execute": (runtime, "execute"),
        "execute_group": (runtime, "execute_group"),
    }
    saved = {key: getattr(*target) for key, target in counted.items()}
    counts = dict.fromkeys(counted, 0)

    def counting(key):
        fn = saved[key]

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    fallbacks = metrics.counter("machine.unique_rows.fallbacks")
    fallbacks_before = fallbacks.value
    machines.phase_times_segmented = profiled
    for key, (owner, name) in counted.items():
        setattr(owner, name, counting(key))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "warm.jsonl")
            run_campaign(tasks, out, CampaignConfig(jobs=1), meta={})
    finally:
        machines.phase_times_segmented = kernel
        for key, (owner, name) in counted.items():
            setattr(owner, name, saved[key])
    passes = {
        "extractions": counts["extractions"],
        "folds": counts["folds"],
        "groupbys": counts["groupbys"],
        "pricing_calls": counts["execute"] + counts["execute_group"],
        "groupby_fallbacks": fallbacks.value - fallbacks_before,
    }
    if not launches:
        return {"launches": 0, "route_lookups": 0, "unique_rows": 0, **passes}
    stats = pstats.Stats(inner).stats

    def calls(fn_name: str) -> int:
        return sum(
            nc for (_f, _l, name), (_cc, nc, *_rest) in stats.items()
            if name == fn_name
        )

    return {
        "launches": launches,
        "route_lookups": calls("link_ids"),
        "unique_rows": calls("unique_rows"),
        **passes,
    }


def _kept_pairs(nest, params) -> int:
    """Access pairs of ``nest`` the dependence test does not disprove."""
    from repro.ir.dependence import test_dependence

    pairs = nest.all_accesses()
    return sum(
        test_dependence(s1, a1, s2, a2, params) is not None
        for i, (s1, a1) in enumerate(pairs)
        for s2, a2 in pairs[i:]
    )


@contextmanager
def _recording_dependence_facts():
    """Wrap the uncached schedule-depth walk and the legality pass for
    the block; yields the lists they fill (``(nest, params, depth)`` per
    walk, ``(scheduled, params)`` per pass)."""
    from repro.ir import legality, schedule

    walks, passes = [], []
    depth, violations = schedule._outer_depth, legality.schedule_violations

    def walk(nest, params):
        out = depth(nest, params)
        walks.append((nest, dict(params), out))
        return out

    def check(scheduled, params, *args, **kwargs):
        passes.append((scheduled, dict(params)))
        return violations(scheduled, params, *args, **kwargs)

    schedule._outer_depth, legality.schedule_violations = walk, check
    try:
        yield walks, passes
    finally:
        schedule._outer_depth, legality.schedule_violations = depth, violations


@contextmanager
def _counting_enumerations():
    """Count ``Domain.point_matrix`` calls and record the nest of every
    ``repro.driver.compile_nest`` call for the block; yields the lists
    they fill (the enumerated domains, the compiled nests)."""
    from repro import driver
    from repro.ir.domain import Domain

    calls, nests = [], []
    point_matrix, compile_nest = Domain.point_matrix, driver.compile_nest

    def enumerate_domain(domain, params):
        calls.append(domain)
        return point_matrix(domain, params)

    def compiling(*args, **kwargs):
        out = compile_nest(*args, **kwargs)
        nests.append(out.nest)
        return out

    Domain.point_matrix, driver.compile_nest = enumerate_domain, compiling
    try:
        yield calls, nests
    finally:
        Domain.point_matrix, driver.compile_nest = point_matrix, compile_nest


def bench_files(match: str = "") -> list:
    files = sorted(
        os.path.basename(f) for f in glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))
    )
    return [f for f in files if match in f]


def run_one(fname: str) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "pytest", fname, "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=BENCH_DIR, env=env, capture_output=True, text=True
    )
    seconds = time.perf_counter() - t0
    tail = []
    if proc.returncode:
        # stderr first: a subprocess that dies before pytest reporting
        # (usage error, missing plugin) only says why there
        tail = proc.stderr.strip().splitlines()[-10:]
        tail += proc.stdout.strip().splitlines()[-15:]
    return {
        "file": fname,
        "returncode": proc.returncode,
        "seconds": round(seconds, 3),
        "tail": tail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--match",
        default="",
        help="only run bench files whose name contains this substring",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the reference scenarios with cProfile and write "
        "the top cumulative hotspots to BENCH_profile.json (skips the "
        "benchmark suite)",
    )
    args = parser.parse_args(argv)

    if args.profile:
        sys.path.insert(0, BENCH_DIR)
        return run_profile()

    files = bench_files(args.match)
    if not files:
        print(f"no bench_*.py files match {args.match!r}", file=sys.stderr)
        return 2

    results = []
    failed = 0
    for fname in files:
        res = run_one(fname)
        results.append(res)
        status = "ok" if res["returncode"] == 0 else f"FAIL (rc={res['returncode']})"
        print(f"  {fname:<42} {res['seconds']:>8.2f}s  {status}", flush=True)
        if res["returncode"]:
            failed += 1
            for line in res["tail"]:
                print(f"    | {line}")

    sys.path.insert(0, BENCH_DIR)
    from _harness import record_bench

    record_bench(
        "run_all",
        {
            "match": args.match,
            "total": len(results),
            "failed": failed,
            "results": [
                {k: r[k] for k in ("file", "returncode", "seconds")} for r in results
            ],
        },
    )
    print(f"\n{len(results) - failed}/{len(results)} benchmarks ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
