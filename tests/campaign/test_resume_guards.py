"""Resume correctness under real failure: shard guards, failure-retry
compaction and a campaign process SIGKILLed mid-write."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignSpecMismatch,
    RunStore,
    default_spec,
    run_campaign,
    shard_tasks,
)


@pytest.fixture(scope="module")
def small_grid():
    spec = default_spec(
        seed=0, nests=4, include_corpus=False, machines=("paragon",),
    )
    return spec, spec.expand()


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)


class TestShardGuard:
    def test_resuming_with_wrong_shard_is_refused(self, small_grid, tmp_path):
        spec, tasks = small_grid
        path = str(tmp_path / "shard.jsonl")
        meta = {"spec_digest": spec.digest(), "shard": "0/2"}
        run_campaign(
            shard_tasks(tasks, 0, 2), path,
            CampaignConfig(max_tasks=1), meta=meta,
        )
        # same full-grid digest, different shard: must be refused
        with pytest.raises(CampaignSpecMismatch, match="shard 0/2"):
            run_campaign(
                shard_tasks(tasks, 1, 2), path, resume=True,
                meta={"spec_digest": spec.digest(), "shard": "1/2"},
            )
        # forgetting --shard entirely is refused too
        with pytest.raises(CampaignSpecMismatch, match="none \\(full grid\\)"):
            run_campaign(
                tasks, path, resume=True,
                meta={"spec_digest": spec.digest()},
            )
        # the original shard resumes fine
        outcome = run_campaign(
            shard_tasks(tasks, 0, 2), path, resume=True, meta=meta,
        )
        assert outcome.prior == 1

    def test_full_grid_checkpoint_refuses_shard_resume(
        self, small_grid, tmp_path
    ):
        spec, tasks = small_grid
        path = str(tmp_path / "full.jsonl")
        meta = {"spec_digest": spec.digest()}
        run_campaign(tasks, path, CampaignConfig(max_tasks=1), meta=meta)
        with pytest.raises(CampaignSpecMismatch, match="full grid"):
            run_campaign(
                shard_tasks(tasks, 0, 2), path, resume=True,
                meta={"spec_digest": spec.digest(), "shard": "0/2"},
            )


class TestRetryFailuresCompaction:
    def test_superseded_failure_lines_are_compacted_away(
        self, small_grid, tmp_path, monkeypatch
    ):
        spec, tasks = small_grid
        victim = tasks[0]
        path = tmp_path / "heal.jsonl"
        meta = {"spec_digest": spec.digest()}

        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"fail:task={victim.task_id},times=99"
        )
        first = run_campaign(tasks, str(path), CampaignConfig(), meta=meta)
        assert first.errors == 1

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        healed = run_campaign(
            tasks, str(path), CampaignConfig(retry_failures=True),
            resume=True, meta=meta,
        )
        assert healed.ran == 1 and healed.ok == 1

        # exactly one meta line + one line per task: the stale failure
        # line was compacted, not merely superseded
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines() if line
        ]
        assert lines[0]["record"] == "meta"
        assert lines[0]["spec_digest"] == spec.digest()
        assert len(lines) == 1 + len(tasks)
        by_id = [ln for ln in lines[1:] if ln["task_id"] == victim.task_id]
        assert len(by_id) == 1 and by_id[0]["status"] == "ok"

    def test_without_retry_failures_last_record_wins(
        self, small_grid, tmp_path, monkeypatch
    ):
        spec, tasks = small_grid
        victim = tasks[0]
        path = str(tmp_path / "keep.jsonl")
        meta = {"spec_digest": spec.digest()}
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"fail:task={victim.task_id},times=99"
        )
        run_campaign(tasks, path, CampaignConfig(), meta=meta)
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        # failures count as done: nothing re-runs, the record stays
        again = run_campaign(tasks, path, CampaignConfig(),
                             resume=True, meta=meta)
        assert again.ran == 0 and again.prior == len(tasks)
        _, results = RunStore(path).load()
        assert results[victim.task_id].status == "error"
        assert results[victim.task_id].error_kind == "fault"


class TestKilledMidWrite:
    def test_sigkilled_campaign_resumes_to_identical_results(
        self, small_grid, tmp_path
    ):
        """SIGKILL a real campaign process mid-write, then resume: the
        merged store must equal an uninterrupted run bit-for-bit on
        deterministic fields."""
        spec, tasks = small_grid
        meta = {"spec_digest": spec.digest()}

        full = str(tmp_path / "full.jsonl")
        run_campaign(tasks, full, CampaignConfig(), meta=meta)
        _, want = RunStore(full).load()

        out = str(tmp_path / "killed.jsonl")
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                "--out", out, "--seed", "0", "--nests", "4",
                "--no-corpus", "--machines", "paragon",
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)))),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # wait for a few records to land, then kill without warning
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                try:
                    with open(out) as fh:
                        if sum(1 for _ in fh) >= 3:
                            break
                except FileNotFoundError:
                    pass
                time.sleep(0.01)
            proc.kill()
        finally:
            proc.wait(timeout=30)

        resumed = run_campaign(
            tasks, out, CampaignConfig(), resume=True, meta=meta,
        )
        assert resumed.prior + resumed.ran >= len(tasks)
        got_meta, got = RunStore(out).load()
        assert got_meta["spec_digest"] == spec.digest()
        assert {k: r.deterministic_dict() for k, r in got.items()} == {
            k: r.deterministic_dict() for k, r in want.items()
        }

    def test_kill_while_worker_running_under_pool(
        self, small_grid, tmp_path, monkeypatch
    ):
        """Campaign killed while its *worker* is mid-task (injected
        worker kill with no retries), resumed with retry_failures: the
        crashed record is re-run and converges to the clean result."""
        spec, tasks = small_grid
        victim = tasks[0]
        meta = {"spec_digest": spec.digest()}

        full = str(tmp_path / "full.jsonl")
        run_campaign(tasks, full, CampaignConfig(), meta=meta)
        _, want = RunStore(full).load()

        out = str(tmp_path / "crashed.jsonl")
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT", f"kill:task={victim.task_id},times=99"
        )
        first = run_campaign(
            tasks, out,
            CampaignConfig(jobs=2, backoff=0.01),
            meta=meta,
        )
        assert first.crashed >= 1

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        run_campaign(
            tasks, out, CampaignConfig(retry_failures=True),
            resume=True, meta=meta,
        )
        _, got = RunStore(out).load()
        assert {k: r.deterministic_dict() for k, r in got.items()} == {
            k: r.deterministic_dict() for k, r in want.items()
        }
