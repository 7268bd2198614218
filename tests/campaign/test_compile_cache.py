"""Compile-once/price-many: the runner's compile cache must change
*nothing* about what lands on disk — records are byte-identical to a
recompile-every-cell run — while compiling each nest once per grid.
"""

import pytest

from repro.campaign import (
    CampaignConfig,
    RunStore,
    clear_compile_cache,
    compile_cache_stats,
    default_spec,
    execute_task,
    group_by_compile_key,
    run_campaign,
)
from repro.campaign import runner
from repro.campaign.sweep import canonical_json


@pytest.fixture(scope="module")
def multi_cell_grid():
    # 2 machines x 2 meshes = 4 cells per nest at m = 2
    spec = default_spec(
        seed=0, nests=3, meshes=((4, 4), (2, 2)),
    )
    return spec, spec.expand()


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestCompileKeyGrouping:
    def test_cells_of_one_nest_share_a_compile_key(self, multi_cell_grid):
        _spec, tasks = multi_cell_grid
        keys = {}
        for t in tasks:
            keys.setdefault((t.workload.name, t.m, t.rank_weights), set()).add(
                t.compile_key
            )
        for ident, ks in keys.items():
            assert len(ks) == 1, ident

    def test_compile_key_independent_of_machine_and_mesh(self, multi_cell_grid):
        _spec, tasks = multi_cell_grid
        by_key = {}
        for t in tasks:
            by_key.setdefault(t.compile_key, []).append(t)
        # 4 cells per compile key on this grid
        assert all(len(g) == 4 for g in by_key.values())
        for g in by_key.values():
            assert len({(t.machine, t.mesh) for t in g}) == 4

    def test_compile_key_encoded_once_per_task(self, monkeypatch):
        """Reading ``compile_key`` again re-encodes nothing: one
        ``canonical_json`` call per task however often the key is
        read, and the same digest as a fresh encoding."""
        import hashlib
        import pickle

        from repro.campaign import sweep

        tasks = default_spec(seed=0, nests=2, meshes=((4, 4),)).expand()
        encoded = []
        encode = sweep.canonical_json

        def counting(obj):
            encoded.append(obj)
            return encode(obj)

        monkeypatch.setattr(sweep, "canonical_json", counting)
        for _ in range(5):
            keys = [t.compile_key for t in tasks]
        assert len(encoded) == len(tasks)
        for t, key in zip(tasks, keys):
            spec = {
                "workload": t.workload.to_dict(),
                "m": t.m,
                "rank_weights": t.rank_weights,
            }
            digest = hashlib.sha1(encode(spec).encode()).hexdigest()[:12]
            assert key == digest
            # the cached key rides along with a pickled task
            assert pickle.loads(pickle.dumps(t)).compile_key == key
        assert len(encoded) == len(tasks)

    def test_grouping_preserves_order(self, multi_cell_grid):
        _spec, tasks = multi_cell_grid
        groups = group_by_compile_key(tasks)
        flat = [t.task_id for g in groups for t in g]
        assert sorted(flat) == sorted(t.task_id for t in tasks)
        # tasks within a group keep grid order
        index = {t.task_id: i for i, t in enumerate(tasks)}
        for g in groups:
            positions = [index[t.task_id] for t in g]
            assert positions == sorted(positions)


class TestCacheBehaviour:
    def test_inline_run_compiles_once_per_nest(self, multi_cell_grid, tmp_path):
        _spec, tasks = multi_cell_grid
        outcome = run_campaign(
            tasks, str(tmp_path / "c.jsonl"), CampaignConfig(jobs=1), meta={}
        )
        nests = len({t.compile_key for t in tasks})
        assert outcome.compile_cache_misses == nests
        assert outcome.compile_cache_hits == len(tasks) - nests
        assert outcome.errors == 0
        stats = compile_cache_stats()
        assert stats["hits"] == outcome.compile_cache_hits
        assert stats["misses"] == outcome.compile_cache_misses

    def test_pool_run_compiles_once_per_nest(self, multi_cell_grid, tmp_path):
        _spec, tasks = multi_cell_grid
        outcome = run_campaign(
            tasks, str(tmp_path / "p.jsonl"), CampaignConfig(jobs=2), meta={}
        )
        nests = len({t.compile_key for t in tasks})
        # grouping pins every cell of one nest to one worker, so the
        # compile count is exact whichever worker of the pool runs it
        assert outcome.compile_cache_misses == nests
        assert outcome.compile_cache_hits == len(tasks) - nests

    def test_cache_disable_compiles_once_per_group(
        self, multi_cell_grid, tmp_path, monkeypatch
    ):
        # a group compiles once even with the LRU off: its first task
        # reports the miss, the other cells reuse that compile
        _spec, tasks = multi_cell_grid
        monkeypatch.setattr(runner, "COMPILE_CACHE_SIZE", 0)
        outcome = run_campaign(
            tasks, str(tmp_path / "d.jsonl"), CampaignConfig(jobs=1), meta={}
        )
        nests = len({t.compile_key for t in tasks})
        assert outcome.compile_cache_misses == nests
        assert outcome.compile_cache_hits == len(tasks) - nests
        assert compile_cache_stats()["size"] == 0

    def test_lru_eviction_bounds_entries(self, multi_cell_grid, monkeypatch):
        _spec, tasks = multi_cell_grid
        monkeypatch.setattr(runner, "COMPILE_CACHE_SIZE", 2)
        for t in tasks:
            execute_task(t)
        stats = compile_cache_stats()
        assert stats["size"] <= 2


class TestGoldenByteIdentity:
    def test_records_byte_identical_to_recompiling(
        self, multi_cell_grid, tmp_path, monkeypatch
    ):
        """The golden check: cached and cache-disabled campaigns write
        records whose deterministic payloads (task ids, digests, counts,
        times, ratios — everything but wall-clock seconds) serialize to
        identical bytes."""
        _spec, tasks = multi_cell_grid
        cached_path = str(tmp_path / "cached.jsonl")
        plain_path = str(tmp_path / "plain.jsonl")

        run_campaign(tasks, cached_path, CampaignConfig(jobs=1), meta={})
        clear_compile_cache()
        monkeypatch.setattr(runner, "COMPILE_CACHE_SIZE", 0)
        run_campaign(tasks, plain_path, CampaignConfig(jobs=1), meta={})

        _, cached = RunStore(cached_path).load()
        _, plain = RunStore(plain_path).load()
        assert set(cached) == set(plain) == {t.task_id for t in tasks}
        for tid in cached:
            assert canonical_json(
                cached[tid].deterministic_dict()
            ) == canonical_json(plain[tid].deterministic_dict()), tid

    def test_cache_hit_flag_never_reaches_disk(self, multi_cell_grid, tmp_path):
        _spec, tasks = multi_cell_grid
        path = str(tmp_path / "flags.jsonl")
        run_campaign(tasks, path, CampaignConfig(jobs=1), meta={})
        with open(path) as fh:
            assert "compile_cache_hit" not in fh.read()
        # ...and the loader leaves the in-memory flag unknown
        _, results = RunStore(path).load()
        assert all(r.compile_cache_hit is None for r in results.values())

    def test_resume_equivalence_with_cache(self, multi_cell_grid, tmp_path):
        """Interrupted-and-resumed equals uninterrupted, cache on."""
        _spec, tasks = multi_cell_grid
        full = str(tmp_path / "full.jsonl")
        part = str(tmp_path / "part.jsonl")
        run_campaign(tasks, full, CampaignConfig(jobs=1), meta={})
        run_campaign(tasks, part, CampaignConfig(jobs=1, max_tasks=5), meta={})
        clear_compile_cache()  # a fresh process resumes
        run_campaign(tasks, part, CampaignConfig(jobs=1), resume=True, meta={})
        _, a = RunStore(full).load()
        _, b = RunStore(part).load()
        assert {k: r.deterministic_dict() for k, r in a.items()} == {
            k: r.deterministic_dict() for k, r in b.items()
        }
