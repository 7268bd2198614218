"""Tracing across the campaign stack: JSONL round-trip, spawn-context
enablement pass-through, crashed-task attribution and the guarantee
that tracing never touches the stored results."""

import json

import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignConfig,
    RunStore,
    default_spec,
    run_campaign,
)
from repro.obs import (
    format_stage_breakdown,
    format_trace_report,
    load_trace,
    stage_rows,
    stage_totals,
    tracing,
)


@pytest.fixture(scope="module")
def grid():
    # 2 generated nests x 2 meshes on one machine = 4 tasks, 2 groups
    spec = default_spec(
        seed=0, nests=2, include_corpus=False,
        machines=("paragon",), meshes=((4, 4), (2, 2)),
    )
    return spec, spec.expand()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    from repro.campaign import clear_compile_cache

    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    # earlier tests may have compiled this module's grid in-process;
    # a warm LRU would make the inline runs emit no compile spans
    clear_compile_cache()
    prev = tracing.is_enabled()
    yield
    tracing.set_enabled(prev)


def _traced_by_group(tasks):
    """``{compile_key: spans}`` of the records carrying a span tree —
    one per group run, on its first record."""
    traced = {}
    for t in tasks:
        if t["spans"]:
            assert t["compile_key"] not in traced, "two trees in one group"
            traced[t["compile_key"]] = t["spans"]
    return traced


def _run(grid, tmp_path, name, **kw):
    spec, tasks = grid
    path = str(tmp_path / f"{name}.jsonl")
    outcome = run_campaign(
        tasks, path, CampaignConfig(**kw),
        meta={"spec_digest": spec.digest()},
    )
    _, results = RunStore(path).load()
    return outcome, results, path


class TestRoundTrip:
    def test_traced_run_writes_full_jsonl(self, grid, tmp_path):
        from repro.obs import metrics

        # the counter is process-cumulative; assert this run's delta
        ok_before = metrics.snapshot().get("campaign.tasks.ok", 0)
        trace_path = str(tmp_path / "trace.jsonl")
        outcome, results, _ = _run(
            grid, tmp_path, "traced", jobs=1, trace=trace_path
        )
        assert outcome.ok == len(results) == 4
        trace = load_trace(trace_path)
        assert trace["meta"]["executor"] == "inline"
        assert trace["meta"]["spec_digest"] == grid[0].digest()
        assert len(trace["tasks"]) == 4
        # every task carries its group key; one span tree per group
        # run, on the group's first record, covers compile and price
        for t in trace["tasks"]:
            assert t["status"] == "ok"
            assert t["compile_key"]
        traced = _traced_by_group(trace["tasks"])
        assert len(traced) == 2
        for spans in traced.values():
            assert spans["price"]["seconds"] > 0
            assert spans["compile"]["seconds"] > 0
        rows = stage_rows(trace["tasks"])
        assert len(rows) == 2  # one row per compile-key group
        for r in rows:
            assert r["tasks"] == 2 and r["ok"] == 2
            assert r["compile_seconds"] > 0
            assert r["price_seconds"] > 0
            assert r["phase_calls"] > 0
            # stage seconds never exceed task wall time
            assert (
                r["compile_seconds"] + r["price_seconds"]
                <= r["seconds"] + 1e-6
            )
        # campaign-level aggregate has parent-side spans too
        assert "store.append" in trace["spans"]
        assert trace["metrics"]["campaign.tasks.ok"] - ok_before == 4
        # the report renders from the file alone
        report = format_trace_report(trace)
        assert "per-stage time by compile-key group" in report
        assert "span aggregate" in report

    def test_price_span_counts_baseline_misses(self, grid, tmp_path):
        """A group prices its heuristic cells and its baseline-memo
        misses in one call, so the ``price`` span carries both counts
        as attributes (``cells``, ``baseline_cells``) instead of
        per-half sub-spans: every group reports its miss count, and the
        stage totals still sum to task seconds."""
        from repro.campaign import clear_baseline_cache

        clear_baseline_cache()  # every baseline misses
        cold_path = str(tmp_path / "cold.jsonl")
        _run(grid, tmp_path, "cold", jobs=1, trace=cold_path)
        # the memo is warm now: every baseline hits
        warm_path = str(tmp_path / "warm.jsonl")
        _run(grid, tmp_path, "warm", jobs=1, trace=warm_path)
        for path, misses in ((cold_path, 2), (warm_path, 0)):
            tasks = load_trace(path)["tasks"]
            for spans in _traced_by_group(tasks).values():
                assert spans["price"]["cells"] == 2
                assert spans["price"]["baseline_cells"] == misses
                assert not any(p.startswith("price/price.") for p in spans)
            rows = stage_rows(tasks)
            assert len(rows) == 2
            for r in rows:
                assert r["baseline_cells"] == misses
            totals = stage_totals(tasks)
            assert totals["baseline_cells"] == 2 * misses
            assert (
                totals["compile_seconds"]
                + totals["price_seconds"]
                + totals["overhead_seconds"]
            ) == pytest.approx(totals["task_seconds"], abs=1e-6)
            report = format_stage_breakdown(tasks)
            assert "base_cells" in report and "heur_s" not in report

    def test_price_spans_attribute_setup_groupby_and_kernel(
        self, grid, tmp_path
    ):
        """Under ``price`` each group run records its per-cell setup
        (``cell_setup``: machine models and programs, built cold and
        reused warm), its extraction, its one group-by
        (``exec.groupby``) and its one kernel launch (``exec.kernel``,
        inside the lane's ``exec.segmented``) — on the cold run and on
        a warm rerun that reuses the compile entries' cells."""
        from repro.campaign import clear_baseline_cache

        clear_baseline_cache()
        for name in ("cold", "warm"):
            path = str(tmp_path / f"{name}-spans.jsonl")
            _run(grid, tmp_path, name, jobs=1, trace=path)
            traced = _traced_by_group(load_trace(path)["tasks"])
            assert len(traced) == 2
            for spans in traced.values():
                for inner in ("cell_setup", "exec.extract", "exec.groupby"):
                    assert spans[f"price/{inner}"]["count"] == 1, inner
                kernel = [p for p in spans if p.endswith("exec.kernel")]
                assert kernel == ["price/exec.segmented/exec.kernel"]
                assert spans[kernel[0]]["count"] == 1
                # the inner spans nest inside their parents' time
                assert (
                    spans["price/cell_setup"]["seconds"]
                    + spans["price/exec.groupby"]["seconds"]
                    + spans[kernel[0]]["seconds"]
                    <= spans["price"]["seconds"]
                )

    def test_totals_sum_to_task_seconds(self, grid, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        _run(grid, tmp_path, "tot", jobs=1, trace=trace_path)
        totals = stage_totals(load_trace(trace_path)["tasks"])
        lhs = (
            totals["compile_seconds"]
            + totals["price_seconds"]
            + totals["overhead_seconds"]
        )
        assert lhs == pytest.approx(totals["task_seconds"], abs=1e-6)

    def test_tracing_flag_restored_after_run(self, grid, tmp_path):
        assert not tracing.is_enabled()
        _run(grid, tmp_path, "flag", jobs=1,
             trace=str(tmp_path / "f.jsonl"))
        assert not tracing.is_enabled()


class TestStoreIsolation:
    def test_store_records_identical_to_untraced_run(self, grid, tmp_path):
        _, plain, plain_path = _run(grid, tmp_path, "plain", jobs=1)
        _, traced_r, traced_path = _run(
            grid, tmp_path, "tr", jobs=1, trace=str(tmp_path / "x.jsonl")
        )
        assert {k: r.deterministic_dict() for k, r in plain.items()} == {
            k: r.deterministic_dict() for k, r in traced_r.items()
        }
        # no trace payload leaks into the result store
        with open(traced_path) as fh:
            for line in fh:
                assert "trace" not in json.loads(line)

    def test_disabled_tracing_attaches_no_trace(self, grid, tmp_path):
        from repro.campaign import execute_task

        result = execute_task(grid[1][0])
        assert result.status == "ok"
        assert result.trace is None
        assert "trace" not in result.to_dict()


class TestWorkers:
    def test_spawn_workers_emit_traces(self, grid, tmp_path):
        """Regression: trace enablement must travel through worker
        initializers — a spawn worker re-imports repro.obs with tracing
        off and would otherwise return empty span trees."""
        trace_path = str(tmp_path / "spawn.jsonl")
        outcome, _, _ = _run(
            grid, tmp_path, "spawn", jobs=2,
            mp_context="spawn", trace=trace_path,
        )
        assert outcome.ok == 4
        trace = load_trace(trace_path)
        assert len(trace["tasks"]) == 4
        traced = _traced_by_group(trace["tasks"])
        assert set(traced) == {t["compile_key"] for t in trace["tasks"]}
        for spans in traced.values():
            assert "price" in spans

    def test_crashed_task_attributed_traceless(self, grid, tmp_path, monkeypatch):
        """A task whose worker is killed appears in the trace as a
        traceless record; the rest of its group re-runs as its own
        group and still carries spans."""
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=99"
        )
        trace_path = str(tmp_path / "crash.jsonl")
        outcome, results, _ = _run(
            grid, tmp_path, "crash", jobs=2,
            backoff=0.01, trace=trace_path,
        )
        assert outcome.crashed == 1 and outcome.ok == 3
        trace = load_trace(trace_path)
        by_id = {t["task_id"]: t for t in trace["tasks"]}
        assert by_id[victim.task_id]["status"] == "crashed"
        assert by_id[victim.task_id]["spans"] == {}
        # one span tree per group run: the victim's sibling re-ran as
        # a one-task group, the other group ran whole
        ok_spans = [
            t for t in trace["tasks"]
            if t["status"] == "ok" and t["spans"]
        ]
        assert len(ok_spans) == 2
        rows = {r["compile_key"]: r for r in stage_rows(trace["tasks"])}
        assert rows[victim.compile_key]["traceless"] == 1
        # lifecycle counters made it into the metrics export
        deaths = trace["metrics"].get(
            "campaign.executor.resilient.worker_deaths", 0
        )
        assert deaths >= 1
        assert "TOTAL" in format_stage_breakdown(trace["tasks"])


class TestCli:
    def test_cli_traced_run_and_report(self, grid, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        trace_path = str(tmp_path / "cli_trace.jsonl")
        rc = main([
            "campaign", "run", "--out", out, "--seed", "0",
            "--nests", "2", "--no-corpus", "--machines", "paragon",
            "--mesh", "4x4", "--trace", trace_path,
        ])
        assert rc == 0
        rc = main(["trace", "report", trace_path])
        assert rc == 0
        report = capsys.readouterr().out
        assert "per-stage time by compile-key group" in report
        assert "span aggregate" in report

    def test_cli_summarize_timings(self, grid, tmp_path, capsys):
        out = str(tmp_path / "s.jsonl")
        trace_path = str(tmp_path / "s_trace.jsonl")
        assert main([
            "campaign", "run", "--out", out, "--seed", "0",
            "--nests", "2", "--no-corpus", "--machines", "paragon",
            "--mesh", "4x4", "--trace", trace_path,
        ]) == 0
        capsys.readouterr()
        assert main([
            "campaign", "summarize", out, "--timings", trace_path,
        ]) == 0
        text = capsys.readouterr().out
        assert "per-stage time by compile-key group" in text

    def test_cli_trace_report_missing_file(self, tmp_path, capsys):
        rc = main(["trace", "report", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no trace file" in capsys.readouterr().err
