"""The pluggable execution backends: parity with inline, worker-death
recovery, retry/backoff telemetry, hang detection and configuration
pass-through for spawn-context workers."""

import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignConfig,
    RunStore,
    Settings,
    clear_baseline_cache,
    clear_compile_cache,
    compile_cache_stats,
    default_spec,
    execute_task,
    executor_names,
    make_executor,
    run_campaign,
)
from repro.campaign import faults, runner
from repro.campaign.executors import (
    BACKOFF_CAP,
    ExecutorConfig,
    backoff_delay,
    init_worker,
)
from repro.obs import tracing


@pytest.fixture(scope="module")
def grid():
    # 3 generated nests x 2 meshes on one machine = 6 tasks, 3 groups
    spec = default_spec(
        seed=0, nests=3, include_corpus=False,
        machines=("paragon",), meshes=((4, 4), (2, 2)),
    )
    return spec, spec.expand()


@pytest.fixture(scope="module")
def reference(grid, tmp_path_factory):
    spec, tasks = grid
    path = str(tmp_path_factory.mktemp("ref") / "ref.jsonl")
    run_campaign(tasks, path, CampaignConfig(jobs=1),
                 meta={"spec_digest": spec.digest()})
    _, results = RunStore(path).load()
    return {k: r.deterministic_dict() for k, r in results.items()}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)


def _run(grid, tmp_path, name, **kw):
    spec, tasks = grid
    path = str(tmp_path / f"{name}.jsonl")
    outcome = run_campaign(
        tasks, path, CampaignConfig(**kw),
        meta={"spec_digest": spec.digest()},
    )
    _, results = RunStore(path).load()
    return outcome, results


class TestRegistry:
    def test_three_backends_registered(self):
        assert executor_names() == ["inline", "pool", "resilient"]

    def test_unknown_name_is_friendly(self):
        with pytest.raises(ValueError, match="unknown executor 'warp'"):
            make_executor("warp", ExecutorConfig())

    def test_runner_rejects_unknown_executor(self, grid, tmp_path):
        with pytest.raises(ValueError, match="unknown executor"):
            _run(grid, tmp_path, "bad", executor="warp")

    def test_backoff_delay_is_capped_exponential(self):
        assert backoff_delay(0.5, 1) == 0.5
        assert backoff_delay(0.5, 3) == 2.0
        assert backoff_delay(10.0, 9) == BACKOFF_CAP
        assert backoff_delay(0.0, 5) == 0.0
        assert backoff_delay(0.5, 0) == 0.0


class TestParity:
    @pytest.mark.parametrize("name", ["pool", "resilient"])
    def test_process_backends_match_inline(
        self, grid, tmp_path, reference, name
    ):
        outcome, results = _run(grid, tmp_path, name, jobs=2, executor=name)
        assert outcome.ok == len(reference) and outcome.crashed == 0
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference

    def test_explicit_inline_matches_default(self, grid, tmp_path, reference):
        _, results = _run(grid, tmp_path, "inline", executor="inline")
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference


@pytest.fixture
def pricing_calls(monkeypatch, tmp_path):
    """Count pricing entry calls, fork workers included: each call of
    ``repro.runtime.execute`` / ``execute_group`` appends a line to a
    file.  Returns a reader giving ``(execute calls, [cells per
    execute_group call])``."""
    import repro.runtime as runtime

    log = tmp_path / "pricing.log"
    log.write_text("")
    execute, execute_group = runtime.execute, runtime.execute_group

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def counted_execute(*args, **kwargs):
        note("execute")
        return execute(*args, **kwargs)

    def counted_execute_group(cells, *args, **kwargs):
        note(f"group {len(cells)}")
        return execute_group(cells, *args, **kwargs)

    monkeypatch.setattr(runtime, "execute", counted_execute)
    monkeypatch.setattr(runtime, "execute_group", counted_execute_group)
    # pool workers fork from this process: start them with empty caches
    # so every heuristic and baseline cell is priced
    clear_compile_cache()
    clear_baseline_cache()

    def read():
        lines = log.read_text().split()
        singles = lines.count("execute")
        groups = [int(n) for k, n in zip(lines, lines[1:]) if k == "group"]
        return singles, groups

    return read


class TestGroupPath:
    """Every backend prices a multi-cell compile-key group — heuristic
    cells and baseline misses together — through one ``execute_group``
    call, also under a timeout, a fault spec or tracing, and only
    one-task groups price through ``execute``."""

    @pytest.mark.parametrize(
        "extra",
        [{}, {"timeout": 30.0}, {"trace": "trace"}],
        ids=["plain", "timeout", "trace"],
    )
    def test_pool_prices_groups_through_execute_group(
        self, grid, tmp_path, reference, pricing_calls, extra
    ):
        spec, tasks = grid
        if "trace" in extra:
            extra = {"trace": str(tmp_path / "trace.jsonl")}
        outcome, results = _run(
            grid, tmp_path, "pool", jobs=2, executor="pool", **extra
        )
        assert outcome.ok == len(tasks)
        singles, groups = pricing_calls()
        # 3 groups of 2 cells: one call each, carrying the 2 heuristic
        # cells and the 2 baseline misses
        assert singles == 0
        assert groups == [4] * 3
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference

    def test_pool_fault_drops_one_task_from_its_group(
        self, grid, tmp_path, monkeypatch, reference, pricing_calls
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"fail:task={victim.task_id},times=99"
        )
        outcome, results = _run(
            grid, tmp_path, "faulted", jobs=2, executor="pool"
        )
        assert results[victim.task_id].error_kind == "fault"
        assert outcome.ok == len(tasks) - 1
        singles, groups = pricing_calls()
        # the victim's sibling is a one-task group (one execute per
        # mapping); the two other groups still price whole
        assert singles == 2
        assert groups == [4] * 2
        for tid, r in results.items():
            if tid != victim.task_id:
                assert r.deterministic_dict() == reference[tid]

    @pytest.mark.parametrize("name", ["inline", "resilient"])
    def test_other_backends_price_groups_through_execute_group(
        self, grid, tmp_path, pricing_calls, name
    ):
        outcome, _ = _run(
            grid, tmp_path, name, jobs=2, executor=name, timeout=30.0
        )
        assert outcome.ok == len(grid[1])
        assert pricing_calls() == (0, [4] * 3)


class TestWorkerDeath:
    """A SIGKILLed worker must surface as typed records, never a hang."""

    @pytest.mark.parametrize("name", ["pool", "resilient"])
    def test_kill_surfaces_crashed_and_campaign_continues(
        self, grid, tmp_path, monkeypatch, name
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=99"
        )
        outcome, results = _run(
            grid, tmp_path, name, jobs=2, executor=name, backoff=0.01,
        )
        assert outcome.crashed >= 1
        crashed = [r for r in results.values() if r.status == "crashed"]
        assert any(r.task_id == victim.task_id for r in crashed)
        for r in crashed:
            assert r.error_kind == "crash"
            assert "worker process died" in r.error
        # the rest of the campaign completed
        assert outcome.ok == len(tasks) - len(crashed)

    def test_resilient_death_inside_a_group_reruns_tasks_alone(
        self, grid, tmp_path, monkeypatch, reference
    ):
        # a worker that dies while pricing a multi-task group cannot be
        # charged to one task: each task re-runs alone in its own child
        # (one-task groups price through execute, which works here)
        import os
        import signal

        import repro.runtime as runtime

        def dying_group(cells, *args, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(runtime, "execute_group", dying_group)
        outcome, results = _run(
            grid, tmp_path, "resilient", jobs=2, executor="resilient",
        )
        assert outcome.ok == len(grid[1]) and outcome.crashed == 0
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference

    def test_resilient_crash_granularity_is_per_task(
        self, grid, tmp_path, monkeypatch
    ):
        # the victim's compile-key group has 2 mesh cells; only the
        # victim task is lost, its sibling completes in the respawn
        spec, tasks = grid
        victim = tasks[0]
        siblings = [
            t for t in tasks
            if t.compile_key == victim.compile_key
            and t.task_id != victim.task_id
        ]
        assert siblings
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=99"
        )
        _, results = _run(
            grid, tmp_path, "resilient", jobs=2, executor="resilient",
            backoff=0.01,
        )
        assert results[victim.task_id].status == "crashed"
        for s in siblings:
            assert results[s.task_id].status == "ok"

    @pytest.mark.parametrize("name", ["pool", "resilient"])
    def test_retries_heal_a_transient_kill(
        self, grid, tmp_path, monkeypatch, reference, name
    ):
        spec, tasks = grid
        victim = tasks[0]
        # times=1: only the first attempt dies; the retry succeeds
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=1"
        )
        outcome, results = _run(
            grid, tmp_path, name, jobs=2, executor=name,
            retries=2, backoff=0.01,
        )
        assert outcome.crashed == 0 and outcome.ok == len(tasks)
        assert outcome.retried >= 1
        assert results[victim.task_id].attempts == 2
        # the healed record is bit-identical to the unfaulted run
        got = {k: r.deterministic_dict() for k, r in results.items()}
        assert got == reference


class TestHangDetection:
    def test_resilient_kills_and_types_a_sigalrm_proof_hang(
        self, grid, tmp_path, monkeypatch
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"hang:task={victim.task_id},times=99"
        )
        outcome, results = _run(
            grid, tmp_path, "resilient", jobs=2, executor="resilient",
            timeout=2.0, heartbeat_timeout=10.0, backoff=0.01,
        )
        rec = results[victim.task_id]
        assert rec.status == "timeout" and rec.error_kind == "timeout"
        assert "hang detected" in rec.error
        assert outcome.timeouts == 1
        assert outcome.ok == len(tasks) - 1

    def test_inline_downgrades_hang_to_transient_failure(
        self, grid, tmp_path, monkeypatch
    ):
        spec, tasks = grid
        victim = tasks[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"hang:task={victim.task_id},times=99"
        )
        _, results = _run(grid, tmp_path, "inline", executor="inline")
        rec = results[victim.task_id]
        assert rec.status == "error" and rec.error_kind == "fault"
        assert "downgraded" in rec.error


class TestSpawnConfigPassthrough:
    def test_spawn_workers_receive_settings(self, grid, tmp_path):
        # spawn workers re-import ``repro`` and read no environment, so
        # the disk tier and the fault plan reach them only through
        # ExecutorConfig.settings (the environment is clean here)
        spec, tasks = grid
        victim = tasks[0]
        disk = tmp_path / "cache"
        settings = Settings(
            compile_dir=str(disk),
            fault_spec=f"fail:task={victim.task_id},times=99",
        )
        outcome, results = _run(
            grid, tmp_path, "spawned", jobs=2, executor="pool",
            mp_context="spawn", settings=settings,
        )
        assert results[victim.task_id].error_kind == "fault"
        assert outcome.ok == len(tasks) - 1
        groups = len({t.compile_key for t in tasks})
        assert len(list(disk.iterdir())) == groups

    def test_init_worker_applies_settings_and_trace(self, tmp_path):
        # the executor backend's worker config: disk tier, fault plan
        # and tracing flag land in the worker process
        prev_trace = tracing.is_enabled()
        disk = str(tmp_path / "cache")
        try:
            init_worker(
                ExecutorConfig(
                    settings=Settings(compile_dir=disk, fault_spec="fail:n=1"),
                    trace=True,
                ),
                allow_kill=False,
                allow_hang=False,
            )
            assert compile_cache_stats()["dir"] == disk
            assert tracing.is_enabled()
            with pytest.raises(faults.InjectedFault):
                faults.maybe_inject("any", 1)
        finally:
            runner.apply_settings(Settings())
            tracing.set_enabled(prev_trace)
        assert compile_cache_stats()["dir"] is None


class TestTimeoutValidation:
    @pytest.mark.parametrize("bad", [0, -3.5])
    def test_execute_task_rejects_nonpositive_timeout(self, grid, bad):
        with pytest.raises(ValueError, match="timeout must be positive"):
            execute_task(grid[1][0], timeout=bad)

    @pytest.mark.parametrize("bad", [0, -3.5])
    def test_run_campaign_rejects_nonpositive_timeout(
        self, grid, tmp_path, bad
    ):
        with pytest.raises(ValueError, match="timeout must be positive"):
            _run(grid, tmp_path, "bad", timeout=bad)

    def test_cli_rejects_nonpositive_timeout_with_exit_2(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "out.jsonl")
        rc = main([
            "campaign", "run", "--out", out, "--nests", "1",
            "--no-corpus", "--timeout", "0",
        ])
        assert rc == 2
        assert "--timeout must be positive" in capsys.readouterr().err

    def test_cli_rejects_negative_retries_with_exit_2(
        self, tmp_path, capsys
    ):
        out = str(tmp_path / "out.jsonl")
        rc = main([
            "campaign", "run", "--out", out, "--nests", "1",
            "--no-corpus", "--retries", "-1",
        ])
        assert rc == 2
        assert "--retries" in capsys.readouterr().err
