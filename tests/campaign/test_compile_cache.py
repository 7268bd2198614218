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


class TestCellLifetime:
    """A compile entry keeps one heuristic program per mesh, whose
    extraction keeps its folded rows and pricing rows, and they live
    and die with the entry; the process keeps one machine model per
    (machine name, mesh) cell until ``clear_compile_cache()``."""

    @staticmethod
    def _entry(tasks):
        """The LRU entry of ``tasks``' first compile key, and one of its
        programs."""
        cw = runner._compile_cache[tasks[0].compile_key]
        return cw, next(iter(cw.programs.values()))

    def test_warm_rerun_reuses_cells(self, multi_cell_grid, tmp_path):
        _spec, tasks = multi_cell_grid
        run_campaign(tasks, str(tmp_path / "a.jsonl"), CampaignConfig(), meta={})
        cw, program = self._entry(tasks)
        meshes = {t.mesh for t in tasks if t.compile_key == tasks[0].compile_key}
        # twin cells share one program per mesh
        assert set(cw.programs) == meshes
        extraction = program.comm_batches()
        assert extraction.rows is not None
        models = dict(runner._machine_models)
        assert set(models) == {(t.machine, t.mesh) for t in tasks}
        run_campaign(tasks, str(tmp_path / "b.jsonl"), CampaignConfig(), meta={})
        assert self._entry(tasks)[1] is program
        assert program.comm_batches() is extraction
        assert runner._machine_models == models

    def test_clear_drops_cells(self, multi_cell_grid, tmp_path):
        import gc
        import weakref

        _spec, tasks = multi_cell_grid
        run_campaign(tasks, str(tmp_path / "a.jsonl"), CampaignConfig(), meta={})
        cw, program = self._entry(tasks)
        _spec, machine, _coll = next(iter(runner._machine_models.values()))
        refs = [weakref.ref(x) for x in (cw, program, machine)]
        del cw, program, machine
        clear_compile_cache()
        gc.collect()
        assert [r() for r in refs] == [None, None, None]

    def test_eviction_drops_cells(self, multi_cell_grid, monkeypatch):
        import gc
        import weakref

        _spec, tasks = multi_cell_grid
        monkeypatch.setattr(runner, "COMPILE_CACHE_SIZE", 1)
        first = [t for t in tasks if t.compile_key == tasks[0].compile_key]
        runner.run_task_group(first)
        cw, program = self._entry(first)
        refs = [weakref.ref(cw), weakref.ref(program)]
        del cw, program
        other = [t for t in tasks if t.compile_key != first[0].compile_key]
        runner.run_task_group(
            [t for t in other if t.compile_key == other[0].compile_key]
        )
        gc.collect()
        assert first[0].compile_key not in runner._compile_cache
        assert [r() for r in refs] == [None, None]

    def test_reregistered_machine_builds_a_new_model(
        self, multi_cell_grid, tmp_path, monkeypatch
    ):
        """Re-registering a machine name under a warm compile entry
        prices the next run on the new model, exactly like a fresh
        compile, and never on the model kept for that cell."""
        from repro.machine import CostParams, MachineSpec, MeshModel
        from repro.machine import model as machine_model

        _spec, tasks = multi_cell_grid
        tasks = [t for t in tasks if t.machine == "paragon"]
        run_campaign(tasks, str(tmp_path / "old.jsonl"), CampaignConfig(), meta={})
        slow = CostParams(alpha=19.7, beta=1.3, gamma=0.41)
        monkeypatch.setitem(
            machine_model._REGISTRY,
            "paragon",
            MachineSpec(
                name="paragon", mesh_rank=2,
                factory=lambda *dims: MeshModel(*dims, params=slow),
            ),
        )
        run_campaign(tasks, str(tmp_path / "warm.jsonl"), CampaignConfig(), meta={})
        clear_compile_cache()
        run_campaign(tasks, str(tmp_path / "fresh.jsonl"), CampaignConfig(), meta={})
        old, warm, fresh = (
            RunStore(str(tmp_path / f"{name}.jsonl")).load()[1]
            for name in ("old", "warm", "fresh")
        )
        assert {k: r.total_time for k, r in warm.items()} == {
            k: r.total_time for k, r in fresh.items()
        }
        assert any(warm[k].total_time != old[k].total_time for k in old)

    def test_rotation_rederives_the_send_rows(self, multi_cell_grid, tmp_path):
        """A ``rotate_component`` on a cached mapping (a
        ``mutation_count`` bump) makes the kept program extract and
        fill its pricing rows again, bit-identical to a fresh program's."""
        import numpy as np

        from repro.linalg import IntMat
        from repro.machine import MeshModel
        from repro.runtime import MappedProgram, execute

        _spec, tasks = multi_cell_grid
        run_campaign(tasks, str(tmp_path / "a.jsonl"), CampaignConfig(), meta={})
        for cw in list(runner._compile_cache.values()):
            for program in cw.programs.values():
                before = program.comm_batches()
                al = program.mapping.alignment
                for root in sorted(set(al.component_root_of.values())):
                    al.rotate_component(root, IntMat([[0, 1], [1, 0]]))
                machine = MeshModel(*program.folding.mesh.dims)
                kept = execute(program, machine)
                after = program.comm_batches()
                assert after is not before and after.rows is not None
                fresh = MappedProgram(
                    program.mapping, program.folding, program.params
                )
                assert execute(fresh, machine) == kept
                rows = fresh.comm_batches().rows
                assert np.array_equal(after.rows.send, rows.send)
                assert after.rows.n_phys_local == rows.n_phys_local

    def test_cache_off_records_byte_identical_to_warm_cells(
        self, multi_cell_grid, tmp_path, monkeypatch
    ):
        """A warm rerun prices through the kept cells; with the LRU off
        every group builds its cells afresh — the records are the same
        bytes."""
        _spec, tasks = multi_cell_grid
        warm_path = str(tmp_path / "warm.jsonl")
        plain_path = str(tmp_path / "plain.jsonl")
        run_campaign(tasks, str(tmp_path / "cold.jsonl"), CampaignConfig(), meta={})
        run_campaign(tasks, warm_path, CampaignConfig(), meta={})
        clear_compile_cache()
        monkeypatch.setattr(runner, "COMPILE_CACHE_SIZE", 0)
        run_campaign(tasks, plain_path, CampaignConfig(), meta={})
        _, warm = RunStore(warm_path).load()
        _, plain = RunStore(plain_path).load()
        assert set(warm) == set(plain) == {t.task_id for t in tasks}
        for tid in warm:
            assert canonical_json(
                warm[tid].deterministic_dict()
            ) == canonical_json(plain[tid].deterministic_dict()), tid
