"""Checkpoint/resume, error capture and parallel-vs-serial equality."""

import json
import signal

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignSpecMismatch,
    RunStore,
    SweepTask,
    Workload,
    default_spec,
    execute_task,
    run_campaign,
)
from repro.campaign.sweep import canonical_json


@pytest.fixture(scope="module")
def small_grid():
    # 4 generated + 8 corpus workloads on one mesh = 12 tasks
    spec = default_spec(seed=0, nests=4, machines=("paragon",))
    return spec, spec.expand()


def _deterministic(results):
    return {k: r.deterministic_dict() for k, r in results.items()}


class TestResume:
    def test_interrupted_then_resumed_equals_uninterrupted(
        self, small_grid, tmp_path
    ):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}

        full = str(tmp_path / "full.jsonl")
        run_campaign(tasks, full, CampaignConfig(jobs=1), meta=meta)

        # "kill" the campaign after 5 tasks, then resume to completion
        part = str(tmp_path / "part.jsonl")
        first = run_campaign(
            tasks, part, CampaignConfig(jobs=1, max_tasks=5), meta=meta
        )
        assert first.ran == 5 and first.remaining == len(tasks) - 5
        second = run_campaign(
            tasks, part, CampaignConfig(jobs=1), resume=True, meta=meta
        )
        assert second.prior == 5
        assert second.ran == len(tasks) - 5

        _, full_results = RunStore(full).load()
        _, merged = RunStore(part).load()
        assert _deterministic(full_results) == _deterministic(merged)

    def test_resume_after_truncated_record(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = tmp_path / "killed.jsonl"
        run_campaign(
            tasks, str(path), CampaignConfig(jobs=1, max_tasks=3), meta=meta
        )
        # writer died mid-record: a dangling half line on disk
        path.write_text(path.read_text() + '{"record": "result", "task_id')
        outcome = run_campaign(
            tasks, str(path), CampaignConfig(jobs=1), resume=True, meta=meta
        )
        assert outcome.prior == 3
        _, results = RunStore(str(path)).load()
        assert len(results) == len(tasks)
        assert all(r.status == "ok" for r in results.values())

    def test_resume_is_noop_when_complete(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = str(tmp_path / "done.jsonl")
        run_campaign(tasks, path, meta=meta)
        again = run_campaign(tasks, path, resume=True, meta=meta)
        assert again.ran == 0 and again.prior == len(tasks)

    def test_resume_rewrites_lost_meta_line(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = tmp_path / "lostmeta.jsonl"
        run_campaign(tasks, str(path), CampaignConfig(max_tasks=2), meta=meta)
        # meta line truncated mid-record (leaves an undecodable line the
        # loader counts under _skipped_lines), results kept
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0][:20]] + lines[1:]) + "\n")
        run_campaign(
            tasks, str(path), CampaignConfig(max_tasks=1), resume=True,
            meta=meta,
        )
        restored, _ = RunStore(str(path)).load()
        assert restored["spec_digest"] == spec.digest()
        # ...so the digest guard works again on the next resume
        with pytest.raises(CampaignSpecMismatch):
            run_campaign(
                tasks, str(path), resume=True,
                meta={"spec_digest": "0000aaaa1111"},
            )

    def test_resume_rejects_different_grid(self, small_grid, tmp_path):
        spec, tasks = small_grid
        path = str(tmp_path / "run.jsonl")
        run_campaign(
            tasks, path, CampaignConfig(max_tasks=1),
            meta={"spec_digest": spec.digest()},
        )
        with pytest.raises(CampaignSpecMismatch):
            run_campaign(
                tasks, path, resume=True, meta={"spec_digest": "0000aaaa1111"}
            )

    def test_retry_failures_reruns_failed_records(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        path = str(tmp_path / "retry.jsonl")
        run_campaign(tasks, path, meta=meta)
        store = RunStore(path)
        # forge a transient failure for one completed task
        _, results = store.load()
        victim = results[tasks[0].task_id]
        from repro.campaign import TaskResult

        store.append([
            TaskResult(
                task_id=victim.task_id, workload=victim.workload,
                machine=victim.machine, mesh=victim.mesh, m=victim.m,
                rank_weights=victim.rank_weights, status="timeout",
                error="task exceeded 0.0s",
            )
        ])
        store.close()
        # plain resume: the failure counts as done, nothing re-runs
        plain = run_campaign(tasks, path, resume=True, meta=meta)
        assert plain.ran == 0
        # retry resume: the failed task re-runs and its ok record wins
        retry = run_campaign(
            tasks, path, CampaignConfig(retry_failures=True),
            resume=True, meta=meta,
        )
        assert retry.ran == 1
        _, after = store.load()
        assert after[victim.task_id].status == "ok"
        assert after[victim.task_id] == victim  # seconds excluded from ==

    def test_max_tasks_zero_runs_nothing(self, small_grid, tmp_path):
        spec, tasks = small_grid
        outcome = run_campaign(
            tasks, str(tmp_path / "zero.jsonl"),
            CampaignConfig(max_tasks=0), meta={},
        )
        assert outcome.ran == 0
        assert outcome.remaining == len(tasks)

    def test_negative_max_tasks_rejected(self, small_grid, tmp_path):
        # a negative cap used to slice ``pending[:-1]`` and silently
        # drop the last task
        spec, tasks = small_grid
        path = tmp_path / "neg.jsonl"
        with pytest.raises(ValueError, match="max_tasks must be >= 0"):
            run_campaign(
                tasks, str(path), CampaignConfig(max_tasks=-1), meta={}
            )
        assert not path.exists()

    def test_resume_on_missing_file_starts_fresh(self, small_grid, tmp_path):
        spec, tasks = small_grid
        path = str(tmp_path / "fresh.jsonl")
        outcome = run_campaign(
            tasks, path, CampaignConfig(max_tasks=2), resume=True,
            meta={"spec_digest": spec.digest()},
        )
        assert outcome.ran == 2
        meta, _ = RunStore(path).load()
        assert meta["spec_digest"] == spec.digest()


class TestParallel:
    def test_pool_matches_serial(self, small_grid, tmp_path):
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}
        serial = str(tmp_path / "serial.jsonl")
        pooled = str(tmp_path / "pooled.jsonl")
        run_campaign(tasks, serial, CampaignConfig(jobs=1), meta=meta)
        run_campaign(tasks, pooled, CampaignConfig(jobs=3), meta=meta)
        _, a = RunStore(serial).load()
        _, b = RunStore(pooled).load()
        assert _deterministic(a) == _deterministic(b)


class TestErrorCapture:
    def test_broken_workload_becomes_error_record(self, tmp_path):
        bad = Workload(name="does-not-exist", kind="named")
        task = SweepTask.make(bad, "paragon", (2, 2), 2, True)
        result = execute_task(task)
        assert result.status == "error"
        assert "does-not-exist" in result.error

        # ...and does not sink the campaign around it
        spec = default_spec(seed=0, nests=1, include_corpus=False)
        tasks = spec.expand() + [task]
        path = str(tmp_path / "mixed.jsonl")
        outcome = run_campaign(tasks, path, meta={})
        assert outcome.errors == 1
        assert outcome.ok == len(tasks) - 1

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_timeout_becomes_timeout_record(self):
        # a big domain makes the executor slow enough to trip 1 ms
        slow = Workload(
            name="slow", kind="named", source=(
                "array A(2)\n"
                "for k = 1..N:\n"
                "  for i = 1..N:\n"
                "    for j = 1..N:\n"
                "      S: A[i, j] = f(A[i, j], A[i, k], A[k, j])\n"
            ),
            schedule="outer:1", params={"N": 12}, check_legality=False,
        )
        task = SweepTask.make(slow, "paragon", (4, 4), 2, True)
        result = execute_task(task, timeout=0.001)
        assert result.status == "timeout"
        assert "0.001" in result.error


class TestGroupSplit:
    @pytest.mark.expect_group_split
    def test_price_error_in_one_cell_splits_the_group(
        self, tmp_path, monkeypatch
    ):
        """A price error in one cell re-runs the group as one-task
        groups: only that task gets an ``error_kind="price"`` record,
        its siblings stay bit-identical, and the split is counted."""
        import repro.runtime as runtime
        from repro.obs import metrics

        spec = default_spec(
            seed=0, nests=1, include_corpus=False,
            machines=("paragon",), meshes=((4, 4), (2, 2), (2, 4)),
        )
        tasks = spec.expand()
        assert len({t.compile_key for t in tasks}) == 1
        ref_path = str(tmp_path / "ref.jsonl")
        run_campaign(tasks, ref_path, meta={})
        _, ref = RunStore(ref_path).load()

        victim = next(t for t in tasks if t.mesh == (4, 4))
        execute, execute_group = runtime.execute, runtime.execute_group

        def broken(machine):
            if machine.mesh.dims == victim.mesh:
                raise ArithmeticError("injected price error")

        def bad_execute(program, machine, *args, **kwargs):
            broken(machine)
            return execute(program, machine, *args, **kwargs)

        def bad_execute_group(cells, *args, **kwargs):
            for _program, machine, _coll in cells:
                broken(machine)
            return execute_group(cells, *args, **kwargs)

        monkeypatch.setattr(runtime, "execute", bad_execute)
        monkeypatch.setattr(runtime, "execute_group", bad_execute_group)
        splits = metrics.counter("campaign.price.group_splits")
        by_cause = metrics.counter(
            "campaign.price.group_splits.ArithmeticError"
        )
        before = (splits.value, by_cause.value)
        out = str(tmp_path / "split.jsonl")
        outcome = run_campaign(tasks, out, meta={})
        assert splits.value == before[0] + 1
        assert by_cause.value == before[1] + 1

        _, got = RunStore(out).load()
        assert outcome.errors == 1 and outcome.ok == len(tasks) - 1
        rec = got[victim.task_id]
        assert rec.status == "error" and rec.error_kind == "price"
        assert "injected price error" in rec.error
        for t in tasks:
            if t.task_id != victim.task_id:
                assert canonical_json(
                    got[t.task_id].deterministic_dict()
                ) == canonical_json(ref[t.task_id].deterministic_dict())


class TestGroupDeadline:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
    )
    def test_slow_group_reruns_cell_by_cell(self, tmp_path, monkeypatch):
        """Past the group deadline (timeout x cells) the group re-runs
        as one-task groups under the per-task timeout: only the slow
        cell ends as a timeout record."""
        import time

        import repro.runtime as runtime
        from repro.obs import metrics

        spec = default_spec(
            seed=0, nests=1, include_corpus=False,
            machines=("paragon",), meshes=((4, 4), (2, 2), (2, 4)),
        )
        tasks = spec.expand()
        victim = next(t for t in tasks if t.mesh == (4, 4))
        execute = runtime.execute

        def stalled_group(cells, *args, **kwargs):
            time.sleep(60)

        def slow_execute(program, machine, *args, **kwargs):
            if machine.mesh.dims == victim.mesh:
                time.sleep(60)
            return execute(program, machine, *args, **kwargs)

        monkeypatch.setattr(runtime, "execute_group", stalled_group)
        monkeypatch.setattr(runtime, "execute", slow_execute)
        deadlines = metrics.counter("campaign.price.group_timeouts")
        before = deadlines.value
        outcome = run_campaign(
            tasks, str(tmp_path / "t.jsonl"), CampaignConfig(timeout=0.3),
            meta={},
        )
        assert deadlines.value == before + 1
        assert outcome.timeouts == 1 and outcome.ok == len(tasks) - 1
        _, got = RunStore(str(tmp_path / "t.jsonl")).load()
        rec = got[victim.task_id]
        assert rec.status == "timeout" and rec.error_kind == "timeout"
        assert rec.error == "task exceeded 0.3s"


class TestMachinesSatellite:
    def test_paragon_models_do_not_share_cost_params(self):
        from repro.machine import MeshModel

        a, b = MeshModel(2, 2), MeshModel(4, 4)
        assert a.params is not b.params
        assert a.params == b.params  # same defaults, distinct instances

        t1, t2 = MeshModel(2, 2, 2), MeshModel(2, 2, 2)
        assert t1.params is not t2.params
