"""The persistent compile-cache disk tier.

Invariants: warm entries eliminate compiles entirely; stale, corrupt,
truncated, foreign or concurrently-written entries degrade to misses
(never errors); stored task records are byte-identical with the tier on
or off; and the directory travels in the ``Settings`` snapshot through
``ExecutorConfig``/worker init so spawn-context workers share the
parent's cache.
"""

import os
import pickle

import pytest

from repro.campaign import (
    CampaignConfig,
    RunStore,
    Settings,
    clear_baseline_cache,
    clear_compile_cache,
    code_fingerprint,
    compile_cache_stats,
    default_spec,
    run_campaign,
)
from repro.campaign import runner
from repro.campaign.sweep import canonical_json


@pytest.fixture(scope="module")
def grid():
    spec = default_spec(seed=0, nests=3, meshes=((4, 4), (2, 2)))
    return spec, spec.expand()


@pytest.fixture(autouse=True)
def fresh_state():
    clear_compile_cache()
    clear_baseline_cache()
    yield
    clear_compile_cache()
    clear_baseline_cache()


def _run(tasks, tmp_path, name, disk=None, **cfg):
    clear_compile_cache()
    clear_baseline_cache()
    cfg.setdefault("jobs", 1)
    outcome = run_campaign(
        tasks,
        str(tmp_path / f"{name}.jsonl"),
        CampaignConfig(settings=Settings(compile_dir=disk), **cfg),
        meta={},
    )
    _, results = RunStore(str(tmp_path / f"{name}.jsonl")).load()
    return outcome, results


class TestDiskTierBasics:
    def test_default_off(self, grid, tmp_path):
        _spec, tasks = grid
        assert compile_cache_stats()["dir"] is None
        _run(tasks, tmp_path, "plain")
        stats = compile_cache_stats()
        assert stats["disk_hits"] == stats["disk_misses"] == 0
        assert stats["disk_writes"] == 0

    def test_cold_run_populates_then_warm_run_hits(self, grid, tmp_path):
        _spec, tasks = grid
        nests = len({t.compile_key for t in tasks})
        disk = str(tmp_path / "cache")

        _run(tasks, tmp_path, "populate", disk=disk)
        stats = compile_cache_stats()
        assert stats["disk_writes"] == nests
        assert stats["disk_misses"] == nests
        assert stats["disk_hits"] == 0
        entries = os.listdir(disk)
        assert len(entries) == nests
        assert all(e.endswith(f"-{code_fingerprint()}.pkl") for e in entries)

        outcome, _ = _run(tasks, tmp_path, "warm", disk=disk)
        stats = compile_cache_stats()
        assert stats["disk_hits"] == nests
        assert stats["disk_misses"] == 0
        assert stats["disk_writes"] == 0
        assert outcome.ok == len(tasks)

    def test_warm_entries_skip_compilation_entirely(
        self, grid, tmp_path, monkeypatch
    ):
        _spec, tasks = grid
        disk = str(tmp_path / "cache")
        _run(tasks, tmp_path, "populate", disk=disk)

        import repro.driver as driver

        def boom(*args, **kwargs):
            raise AssertionError("compile_nest ran despite a warm disk cache")

        monkeypatch.setattr(driver, "compile_nest", boom)
        outcome, _ = _run(tasks, tmp_path, "warm", disk=disk)
        assert outcome.ok == len(tasks)
        assert outcome.errors == 0


class TestGoldenByteIdentity:
    def test_records_byte_identical_with_tier_on_or_off(self, grid, tmp_path):
        _spec, tasks = grid
        disk = str(tmp_path / "cache")
        _, plain = _run(tasks, tmp_path, "plain")
        _run(tasks, tmp_path, "populate", disk=disk)
        _, warm = _run(tasks, tmp_path, "warm", disk=disk)
        assert set(plain) == set(warm) == {t.task_id for t in tasks}
        for tid in plain:
            assert canonical_json(
                plain[tid].deterministic_dict()
            ) == canonical_json(warm[tid].deterministic_dict()), tid


class TestCorruptionDegradesToMisses:
    def _populate(self, grid, tmp_path):
        _spec, tasks = grid
        disk = str(tmp_path / "cache")
        _run(tasks, tmp_path, "populate", disk=disk)
        return tasks, disk

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda data: b"",  # truncated to nothing
            lambda data: b"not a pickle",
            lambda data: data[: len(data) // 2],  # torn write, no rename
            lambda data: pickle.dumps({"key": "wrong"}),
            lambda data: pickle.dumps([1, 2, 3]),
        ],
        ids=["empty", "garbage", "truncated", "foreign-key", "wrong-shape"],
    )
    def test_corrupt_entries_miss_and_rewrite(self, grid, tmp_path, mangle):
        tasks, disk = self._populate(grid, tmp_path)
        nests = len({t.compile_key for t in tasks})
        victim = os.path.join(disk, sorted(os.listdir(disk))[0])
        with open(victim, "rb") as fh:
            payload = fh.read()
        with open(victim, "wb") as fh:
            fh.write(mangle(payload))
        outcome, _ = _run(tasks, tmp_path, "recover", disk=disk)
        stats = compile_cache_stats()
        assert outcome.ok == len(tasks)
        assert outcome.errors == 0
        assert stats["disk_hits"] == nests - 1
        assert stats["disk_misses"] == 1
        assert stats["disk_writes"] == 1
        # the recompile repaired the entry in place
        assert open(victim, "rb").read() == payload

    def test_stale_fingerprint_misses_by_filename(
        self, grid, tmp_path, monkeypatch
    ):
        tasks, disk = self._populate(grid, tmp_path)
        nests = len({t.compile_key for t in tasks})
        monkeypatch.setattr(runner, "_code_fingerprint_cache", "0" * 12)
        outcome, _ = _run(tasks, tmp_path, "stale", disk=disk)
        stats = compile_cache_stats()
        assert outcome.ok == len(tasks)
        assert stats["disk_hits"] == 0
        assert stats["disk_misses"] == nests
        assert stats["disk_writes"] == nests
        # old and new generations coexist; neither clobbers the other
        assert len(os.listdir(disk)) == 2 * nests

    def test_concurrent_writer_temp_files_are_ignored(self, grid, tmp_path):
        tasks, disk = self._populate(grid, tmp_path)
        nests = len({t.compile_key for t in tasks})
        # a concurrent writer mid-store leaves only .tmp files behind
        leftover = os.path.join(disk, ".deadbeef-xyz.tmp")
        with open(leftover, "wb") as fh:
            fh.write(b"partial")
        outcome, _ = _run(tasks, tmp_path, "tmpfiles", disk=disk)
        assert outcome.ok == len(tasks)
        assert compile_cache_stats()["disk_hits"] == nests
        assert os.path.exists(leftover)  # never touched

    def test_last_complete_write_wins(self, grid, tmp_path, monkeypatch):
        _spec, tasks = grid
        task = tasks[0]
        monkeypatch.setattr(runner, "_compile_cache_dir", str(tmp_path / "cache"))
        cw, _ = runner._compile_for_task(task)
        # two writers racing on the same key: both complete, the
        # rename is atomic, and the survivor loads cleanly
        runner._disk_store(task.compile_key, cw)
        runner._disk_store(task.compile_key, cw)
        assert runner._disk_load(task.compile_key) is not None

    def test_unusable_directory_is_not_an_error(self, grid, tmp_path):
        # the directory's parent is a regular file: makedirs and every
        # open under it fail, and the campaign must not care
        _spec, tasks = grid
        blocked = tmp_path / "blocked"
        blocked.write_bytes(b"in the way")
        outcome, _ = _run(tasks, tmp_path, "ro", disk=str(blocked / "cache"))
        assert outcome.ok == len(tasks)
        assert outcome.errors == 0
        assert compile_cache_stats()["disk_writes"] == 0
        assert compile_cache_stats()["disk_hits"] == 0


class TestWorkerPassthrough:
    def test_dir_travels_through_executor_config(self, grid, tmp_path):
        from repro.campaign.executors.base import ExecutorConfig, init_worker

        disk = str(tmp_path / "cache")
        init_worker(
            ExecutorConfig(settings=Settings(compile_dir=disk)),
            allow_kill=False,
            allow_hang=False,
        )
        try:
            assert compile_cache_stats()["dir"] == disk
        finally:
            runner.apply_settings(Settings())

    def test_spawn_workers_populate_parent_directory(self, grid, tmp_path):
        # spawn workers re-import the runner with the disk tier off,
        # so the directory must arrive via worker init for entries to
        # land
        _spec, tasks = grid
        nests = len({t.compile_key for t in tasks})
        disk = str(tmp_path / "cache")
        outcome, _ = _run(
            tasks,
            tmp_path,
            "spawned",
            disk=disk,
            jobs=2,
            mp_context="spawn",
        )
        assert outcome.ok == len(tasks)
        assert len(os.listdir(disk)) == nests


class _ClassRecorder(pickle.Unpickler):
    """Unpickler that records every class a pickle references."""

    def __init__(self, fh):
        super().__init__(fh)
        self.seen = set()

    def find_class(self, module, name):
        self.seen.add(f"{module}.{name}")
        return super().find_class(module, name)


def _pickled_classes(path):
    with open(path, "rb") as fh:
        recorder = _ClassRecorder(fh)
        recorder.load()
    return recorder.seen


#: module prefixes of the state pricing keeps with an entry: programs
#: and extractions, machine models, and the arrays behind them
_PRICING_STATE = ("repro.runtime", "repro.machine", "numpy")


class TestEntriesCarryNoPricingState:
    def test_pickles_carry_no_program_machine_or_array(self, grid, tmp_path):
        """A disk entry holds the compile outputs only — also when its
        entry is written again after pricing filled its cells, the
        mapping's placement stages and the extractions' rows."""
        _spec, tasks = grid
        disk = str(tmp_path / "cache")
        _run(tasks, tmp_path, "populate", disk=disk)
        # the cold pickles, written before pricing
        for name in os.listdir(disk):
            seen = _pickled_classes(os.path.join(disk, name))
            assert "repro.campaign.runner._CompiledWorkload" in seen
            assert not [c for c in seen if c.startswith(_PRICING_STATE)]
        # the same entries, priced (and priced warm), stored again
        try:
            run_campaign(
                tasks, str(tmp_path / "warm.jsonl"),
                CampaignConfig(settings=Settings(compile_dir=disk)), meta={},
            )
            # the run restored the default settings on its way out
            runner.apply_settings(Settings(compile_dir=disk))
            priced = list(runner._compile_cache.items())
            assert priced and all(cw.programs for _, cw in priced)
            writes = compile_cache_stats()["disk_writes"]
            for key, cw in priced:
                runner._disk_store(key, cw)
            # (a pickling error would be a silent miss, not a write)
            assert compile_cache_stats()["disk_writes"] == writes + len(priced)
            for key, cw in priced:
                seen = _pickled_classes(runner._disk_path(key))
                assert not [c for c in seen if c.startswith(_PRICING_STATE)]
                loaded = runner._disk_load(key)
                assert loaded.programs == {}
                assert loaded.workload_digest is None
        finally:
            runner.apply_settings(Settings())

    def test_disk_loaded_entry_prices_bit_identically(self, grid, tmp_path):
        """An entry loaded from disk builds its cells afresh, and its
        cold and warm passes write the records of a plain run."""
        _spec, tasks = grid
        disk = str(tmp_path / "cache")
        _, plain = _run(tasks, tmp_path, "plain")
        _run(tasks, tmp_path, "populate", disk=disk)
        _, loaded = _run(tasks, tmp_path, "loaded", disk=disk)
        assert compile_cache_stats()["disk_hits"] == len(
            {t.compile_key for t in tasks}
        )
        # the disk-loaded entries now sit in the LRU with their cells
        outcome = run_campaign(
            tasks, str(tmp_path / "again.jsonl"),
            CampaignConfig(settings=Settings(compile_dir=disk)), meta={},
        )
        assert outcome.compile_cache_hits == len(tasks)
        _, again = RunStore(str(tmp_path / "again.jsonl")).load()
        for tid in plain:
            want = canonical_json(plain[tid].deterministic_dict())
            assert canonical_json(loaded[tid].deterministic_dict()) == want
            assert canonical_json(again[tid].deterministic_dict()) == want
