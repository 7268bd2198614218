"""JSONL store: append/load roundtrip, truncation tolerance, summary,
durability knobs and crash-safe rewrites."""

import dataclasses
import glob
import json
import os
import random

import pytest

from repro._config import Settings
from repro.campaign import (
    CampaignConfig,
    RunStore,
    TaskResult,
    default_spec,
    merge_stores,
    run_campaign,
    summarize_results,
)
from repro.campaign.sweep import group_by_compile_key


def _result(i, status="ok", machine="paragon"):
    return TaskResult(
        task_id=f"id{i:04d}",
        workload=f"wl{i}",
        machine=machine,
        mesh=(4, 4),
        m=2,
        rank_weights=True,
        status=status,
        counts={"local": 2, "general": 1} if status == "ok" else {},
        residuals=1 if status == "ok" else 0,
        total_time=10.0 * (i + 1) if status == "ok" else 0.0,
        total_messages=5,
        total_volume=5,
        baseline_residuals=2,
        baseline_time=30.0 * (i + 1) if status == "ok" else 0.0,
        error=None if status == "ok" else "boom",
        seconds=0.5,
    )


class TestRunStore:
    def test_roundtrip(self, tmp_path):
        store = RunStore(str(tmp_path / "run.jsonl"))
        store.start({"spec_digest": "abc"})
        for i in range(3):
            store.append([_result(i)])
        meta, results = store.load()
        assert meta["spec_digest"] == "abc"
        assert sorted(results) == ["id0000", "id0001", "id0002"]
        assert results["id0001"] == _result(1)

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = RunStore(str(path))
        store.start({"spec_digest": "abc"})
        store.append([_result(0)])
        store.append([_result(1)])
        # simulate a writer killed mid-record
        text = path.read_text()
        path.write_text(text + json.dumps(_result(2).to_dict())[: 40])
        meta, results = store.load()
        assert sorted(results) == ["id0000", "id0001"]
        assert meta["_skipped_lines"] == 1

    def test_json_valid_but_malformed_record_is_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = RunStore(str(path))
        store.start({"spec_digest": "abc"})
        store.append([_result(0)])
        bad = _result(1).to_dict()
        bad["mesh"] = 7  # scalar where a pair belongs
        with open(path, "a") as fh:
            fh.write(json.dumps(bad) + "\n")
        meta, results = store.load()
        assert sorted(results) == ["id0000"]
        assert meta["_skipped_lines"] == 1

    def test_append_meta_restores_lost_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = RunStore(str(path))
        store.start({"spec_digest": "abc"})
        store.append([_result(0)])
        # drop the meta line, keep the result
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        meta, _ = store.load()
        assert "spec_digest" not in meta
        store.append_meta({"spec_digest": "abc"})
        meta, results = store.load()
        assert meta["spec_digest"] == "abc"
        assert sorted(results) == ["id0000"]

    def test_load_missing_file(self, tmp_path):
        meta, results = RunStore(str(tmp_path / "nope.jsonl")).load()
        assert meta == {} and results == {}

    def test_deterministic_dict_excludes_wall_clock(self):
        a, b = _result(0), _result(0)
        b.seconds = 99.0
        assert a.deterministic_dict() == b.deterministic_dict()
        assert a.to_dict() != b.to_dict()

    def test_deterministic_dict_excludes_attempt_count(self):
        # a retried-ok record must converge bit-identically with a
        # first-try-ok record (the chaos gate depends on this)
        a, b = _result(0), _result(0)
        b.attempts = 3
        assert a.deterministic_dict() == b.deterministic_dict()

    def test_default_fields_omitted_for_byte_compat(self):
        # pre-taxonomy stores must stay byte-identical: error_kind=None
        # and attempts=1 never appear on the wire
        d = _result(0).to_dict()
        assert "error_kind" not in d and "attempts" not in d
        r = _result(1, status="error")
        r.error_kind = "compile"
        r.attempts = 2
        d = r.to_dict()
        assert d["error_kind"] == "compile" and d["attempts"] == 2
        back = TaskResult.from_dict(d)
        assert back.error_kind == "compile" and back.attempts == 2


class TestDurability:
    def test_fsync_knob_from_env(self, tmp_path, monkeypatch):
        # the knob reaches a campaign's store through the run's Settings
        # snapshot; RunStore itself never reads the environment
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        monkeypatch.setenv("REPRO_STORE_FSYNC", "1")
        assert RunStore(str(tmp_path / "a.jsonl")).fsync is False
        run_campaign([], str(tmp_path / "b.jsonl"))
        assert len(synced) == 1  # the meta record
        monkeypatch.delenv("REPRO_STORE_FSYNC")
        run_campaign([], str(tmp_path / "c.jsonl"))
        assert len(synced) == 1

    def test_fsynced_append_roundtrips(self, tmp_path):
        store = RunStore(str(tmp_path / "run.jsonl"), fsync=True)
        store.start({"spec_digest": "abc"})
        store.append([_result(0)])
        meta, results = store.load()
        assert meta["spec_digest"] == "abc" and sorted(results) == ["id0000"]

    def test_start_leaves_no_temp_files(self, tmp_path):
        store = RunStore(str(tmp_path / "run.jsonl"))
        store.start({"spec_digest": "abc"})
        store.compact({"spec_digest": "abc"}, [_result(0)])
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []

    def test_compact_drops_superseded_lines_and_markers(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = RunStore(str(path))
        store.start({"spec_digest": "abc"})
        store.append([_result(0, status="error")])
        store.append([_result(0)])  # supersedes the failure
        text = path.read_text()
        path.write_text(text + '{"half a rec')  # killed writer
        meta, results = store.load()
        assert meta["_skipped_lines"] == 1
        store.compact(meta, results.values())
        meta, results = store.load()
        assert "_skipped_lines" not in meta
        assert meta["spec_digest"] == "abc"
        assert len(path.read_text().splitlines()) == 2  # meta + 1 result
        assert results["id0000"].status == "ok"


class TestGroupWrites:
    """A campaign writes each compile-key group's records with one
    ``RunStore.append`` (one write and one flush, plus one fsync when
    enabled) through one handle that the run closes."""

    @pytest.fixture(scope="class")
    def grid(self):
        # 3 generated + 8 corpus nests, paragon and cm5 on one mesh
        tasks = default_spec(seed=0, nests=3, meshes=((2, 2),)).expand()
        return tasks, group_by_compile_key(tasks)

    def test_one_append_per_group(self, grid, tmp_path, monkeypatch):
        tasks, groups = grid
        batches = []
        append = RunStore.append

        def counted(self, results):
            batches.append([r.task_id for r in results])
            return append(self, results)

        monkeypatch.setattr(RunStore, "append", counted)
        path = tmp_path / "run.jsonl"
        outcome = run_campaign(
            tasks, str(path), CampaignConfig(), meta={}
        )
        assert outcome.ran == len(tasks)
        assert batches == [[t.task_id for t in g] for g in groups]
        # one meta line, then every record on its own line
        assert len(path.read_text().splitlines()) == 1 + len(tasks)

    def test_one_fsync_per_group(self, grid, tmp_path, monkeypatch):
        tasks, groups = grid
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        run_campaign(
            tasks, str(tmp_path / "run.jsonl"),
            CampaignConfig(settings=Settings(fsync=True)),
            meta={},
        )
        assert len(synced) == 1 + len(groups)  # the meta record + groups

    def test_handle_closed_after_run(self, tmp_path, monkeypatch):
        stores = []
        init = RunStore.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            stores.append(self)

        monkeypatch.setattr(RunStore, "__init__", tracked)
        tasks = default_spec(seed=0, nests=1, meshes=((2, 2),)).expand()
        run_campaign(tasks[:2], str(tmp_path / "run.jsonl"), meta={})
        assert [s._fh for s in stores] == [None]

    def test_group_append_is_one_write_and_flush(self, tmp_path, monkeypatch):
        from repro.campaign import store as store_module

        calls = []

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                calls.append("write")
                return self.fh.write(text)

            def flush(self):
                calls.append("flush")
                self.fh.flush()

            def close(self):
                self.fh.close()

        store = RunStore(str(tmp_path / "run.jsonl"))
        store.start({"spec_digest": "abc"})
        monkeypatch.setattr(
            store_module, "open",
            lambda *args, **kwargs: Recording(open(*args, **kwargs)),
            raising=False,
        )
        store.append([_result(i) for i in range(3)])
        store.append([_result(3)])
        store.close()
        monkeypatch.undo()
        assert calls == ["write", "flush", "write", "flush"]
        meta, results = store.load()
        assert sorted(results) == [f"id{i:04d}" for i in range(4)]
        assert results["id0002"] == _result(2)


class TestMergeCrashSafety:
    def _shard(self, tmp_path, name, indices, digest="abc"):
        p = str(tmp_path / name)
        store = RunStore(p)
        store.start({"spec_digest": digest})
        for i in indices:
            store.append([_result(i)])
        return p

    def test_failed_merge_leaves_existing_output_untouched(self, tmp_path):
        a = self._shard(tmp_path, "a.jsonl", [0], digest="abc")
        b = self._shard(tmp_path, "b.jsonl", [1], digest="zzz")
        out = tmp_path / "out.jsonl"
        out.write_text("precious bytes\n")
        with pytest.raises(ValueError, match="different grids"):
            merge_stores([a, b], str(out))
        assert out.read_text() == "precious bytes\n"
        assert glob.glob(str(tmp_path / "out.jsonl.tmp.*")) == []

    def test_successful_merge_is_atomic_and_clean(self, tmp_path):
        a = self._shard(tmp_path, "a.jsonl", [0, 1])
        b = self._shard(tmp_path, "b.jsonl", [1, 2])
        out = str(tmp_path / "out.jsonl")
        summary = merge_stores([a, b], out)
        assert summary["results"] == 3 and summary["duplicates"] == 1
        assert glob.glob(out + ".tmp.*") == []
        meta, results = RunStore(out).load()
        assert meta["spec_digest"] == "abc"
        assert sorted(results) == ["id0000", "id0001", "id0002"]


class TestSummarize:
    def test_grouping_and_ratios(self):
        results = [_result(0), _result(1), _result(2, status="error"),
                   _result(3, machine="cm5")]
        rows = summarize_results(results)
        assert [r["machine"] for r in rows] == ["cm5", "paragon"]
        paragon = rows[1]
        assert paragon["tasks"] == 3
        assert paragon["ok"] == 2
        assert paragon["errors"] == 1
        assert paragon["local"] == 4
        assert paragon["general"] == 2
        assert paragon["residuals"] == 2
        assert paragon["baseline_residuals"] == 4
        assert paragon["mean_time_ratio"] == 3.0

    def test_rows_do_not_depend_on_arrival_order(self):
        """Sums run in ``task_id`` order, so a shuffled result list (a
        ``jobs > 1`` run's completion order) gives identical rows, floats
        compared by their hex form."""
        # ratios 0.1, 0.2, 0.3 and seconds 0.1, 0.2, 0.3 sum to
        # different floats in different orders
        results = [
            dataclasses.replace(
                _result(i), total_time=10.0, baseline_time=float(i + 1),
                seconds=(i + 1) / 10,
            )
            for i in range(3)
        ] + [_result(3, machine="cm5"), _result(4, status="error")]
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

        def hexed(rows):
            return [
                {k: v.hex() if isinstance(v, float) else v for k, v in r.items()}
                for r in rows
            ]

        want = hexed(summarize_results(results))
        rng = random.Random(5)
        for _ in range(12):
            shuffled = rng.sample(results, len(results))
            assert hexed(summarize_results(shuffled)) == want

    def test_all_failed_group_has_null_ratio_and_valid_json(self):
        rows = summarize_results([_result(0, status="error")])
        assert rows[0]["mean_time_ratio"] is None
        # must stay strict-JSON-serializable (no NaN tokens in BENCH_*.json)
        json.dumps(rows, allow_nan=False)

        from repro.report import format_campaign_summary

        assert "-" in format_campaign_summary(rows)

    def test_formatting(self):
        from repro.report import format_campaign_summary

        text = format_campaign_summary(summarize_results([_result(0)]))
        assert "campaign summary" in text
        assert "paragon" in text
        assert format_campaign_summary([]) == "campaign: no results"
