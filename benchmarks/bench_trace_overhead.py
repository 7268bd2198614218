"""Observability gates + the traced per-stage breakdown.

Not a paper artefact — the subsystem gate for :mod:`repro.obs`:

* **disabled tracing is near-free**: a ``span()`` call with tracing off
  is one module-flag read returning a shared no-op (micro-gate below);
  the campaign-level tracing overhead is timed by ``perfbench/``
  (``--trace 1`` reports ``trace.overhead_ratio``);
* **traced runs measure the default path**: a traced and an untraced
  run of the same grid make the same pricing calls (every compile-key
  group priced in one ``execute_group`` call carrying all its cells and
  its baseline memo misses) and the same compiles;
* **traced runs account for their time**: per-stage totals (compile +
  price + executor overhead) must sum to the summed task wall time
  exactly (they do by construction — overhead is the residual) and the
  instrumented stages must *dominate* it (the spans are not missing the
  work);
* the traced run's per-stage totals land in ``BENCH_trace.json``
  (section ``grid_2d``).
"""

import timeit
from collections import Counter

import pytest

from repro.campaign import CampaignConfig, default_spec, run_campaign
from repro.obs import load_trace, span, stage_totals, tracing

from _harness import count_pricing_calls, record_bench

SEED = 0
NESTS = 8
JOBS = 2
#: the grid_2d shape of bench_campaign.py
MESHES = ((4, 4), (2, 2))

#: ceiling on one disabled span() call (seconds) — generous so CI noise
#: never trips it; the real number is tens of nanoseconds
DISABLED_SPAN_CEILING = 2e-6
#: traced stage seconds (compile + price) must cover at least this
#: fraction of summed task wall time
STAGE_COVERAGE_FLOOR = 0.5


def _grid():
    spec = default_spec(seed=SEED, nests=NESTS, meshes=MESHES)
    return spec, spec.expand()


def test_disabled_span_is_nearly_free():
    """The no-op fast path: flag read + shared singleton, no clock."""
    assert not tracing.is_enabled()
    n = 100_000
    per_call = timeit.timeit(lambda: span("x"), number=n) / n
    assert per_call < DISABLED_SPAN_CEILING, (
        f"disabled span() costs {per_call * 1e9:.0f}ns/call "
        f"(ceiling {DISABLED_SPAN_CEILING * 1e9:.0f}ns)"
    )


def test_trace_overhead_and_stage_breakdown(tmp_path):
    spec, tasks = _grid()
    meta = {"spec_digest": spec.digest()}

    def counted_run(name, trace=None):
        """One supervised-worker run of the grid, with every pricing
        call logged (in the fork-started workers too)."""
        with pytest.MonkeyPatch.context() as patch:
            pricing = count_pricing_calls(patch, str(tmp_path / f"{name}.log"))
            outcome = run_campaign(
                tasks, str(tmp_path / f"{name}.jsonl"),
                CampaignConfig(jobs=JOBS, trace=trace), meta=meta,
            )
            singles, group_calls = pricing()
        assert outcome.ok == len(tasks) and outcome.errors == 0
        return outcome, singles, sorted(group_calls)

    # --- tracing disabled (the default) vs traced: same path ----------
    assert not tracing.is_enabled()
    plain, plain_singles, plain_groups = counted_run("plain")
    trace_path = str(tmp_path / "trace.jsonl")
    traced, traced_singles, traced_groups = counted_run("traced", trace_path)
    assert not tracing.is_enabled()  # flag restored after the run
    assert (traced_singles, traced_groups) == (plain_singles, plain_groups)
    assert (traced.compile_cache_misses, traced.compile_cache_hits) == (
        plain.compile_cache_misses, plain.compile_cache_hits
    )
    # the group path: every group here has 4 cells and prices them,
    # with its baseline memo misses, in one execute_group call
    sizes = Counter(t.compile_key for t in tasks)
    assert min(sizes.values()) > 1
    assert traced_singles == 0
    assert len(traced_groups) == len(sizes), traced_groups
    misses = len(tasks) - traced.baseline_cache_hits
    assert sum(traced_groups) == len(tasks) + misses, traced_groups

    # --- traced run: stage totals must account for the task time ------
    trace = load_trace(trace_path)
    assert len(trace["tasks"]) == len(tasks)
    totals = stage_totals(trace["tasks"])
    staged = totals["compile_seconds"] + totals["price_seconds"]
    # exact accounting: overhead is defined as the residual
    assert staged + totals["overhead_seconds"] == pytest.approx(
        totals["task_seconds"], abs=1e-6
    )
    # the instrumented stages dominate task wall time (spans are not
    # silently missing the work)
    assert staged >= STAGE_COVERAGE_FLOOR * totals["task_seconds"], (
        f"compile+price spans cover only "
        f"{staged / totals['task_seconds']:.0%} of task time"
    )
    # stage time never exceeds what the tasks measured
    assert staged <= totals["task_seconds"] + 1e-6

    record_bench(
        "trace",
        {
            "seed": SEED,
            "generated_nests": NESTS,
            "tasks": len(tasks),
            "jobs": JOBS,
            "execute_calls": traced_singles,
            "execute_group_calls": len(traced_groups),
            "compile_cache": {
                "hits": traced.compile_cache_hits,
                "misses": traced.compile_cache_misses,
            },
            "stage_totals": {
                k: (round(v, 4) if isinstance(v, float) else v)
                for k, v in totals.items()
            },
            "stage_share": {
                "compile": round(
                    totals["compile_seconds"] / totals["task_seconds"], 3
                ),
                "price": round(
                    totals["price_seconds"] / totals["task_seconds"], 3
                ),
                "executor_overhead": round(
                    totals["overhead_seconds"] / totals["task_seconds"], 3
                ),
            },
        },
        section="grid_2d",
    )
