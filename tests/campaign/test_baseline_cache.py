"""Baseline price memo: the Feautrier baseline is rank-weights
independent, so a knob sweep must price each (workload, m, machine,
mesh) baseline once — without changing a byte of what lands on disk.
Also covers the record identity of whole-group pricing against
one-task groups of the same group function.
"""

import pytest

from repro.campaign import (
    CampaignConfig,
    RunStore,
    baseline_cache_stats,
    clear_baseline_cache,
    clear_compile_cache,
    run_campaign,
    run_task_group,
)
from repro.campaign import runner
from repro.campaign.sweep import canonical_json, default_spec


@pytest.fixture(scope="module")
def rw_sweep_grid():
    # rank_weights swept: 2 nests x 4 machine x mesh cells x 2 knob
    # values; the baseline of the second knob value is a pure re-price
    spec = default_spec(
        seed=0,
        nests=2,
        include_corpus=False,
        meshes=((4, 4), (2, 2)),
        rank_weights=(True, False),
    )
    return spec.expand()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_compile_cache()
    clear_baseline_cache()
    yield
    clear_compile_cache()
    clear_baseline_cache()


class TestBaselineCacheBehaviour:
    def test_rank_weight_sweep_hits_across_groups(self, rw_sweep_grid, tmp_path):
        outcome = run_campaign(
            rw_sweep_grid, str(tmp_path / "b.jsonl"), CampaignConfig(jobs=1),
            meta={},
        )
        cells = len(rw_sweep_grid) // 2  # distinct (wl, machine, mesh)
        assert outcome.errors == 0
        assert outcome.baseline_cache_misses == cells
        assert outcome.baseline_cache_hits == cells
        stats = baseline_cache_stats()
        assert stats["hits"] == outcome.baseline_cache_hits
        assert stats["misses"] == outcome.baseline_cache_misses

    def test_hits_reported_in_describe(self, rw_sweep_grid, tmp_path):
        outcome = run_campaign(
            rw_sweep_grid, str(tmp_path / "d.jsonl"), CampaignConfig(jobs=1),
            meta={},
        )
        text = outcome.describe()
        assert "baseline cache" in text
        hits = outcome.baseline_cache_hits
        total = hits + outcome.baseline_cache_misses
        assert f"{hits}/{total} hit(s)" in text

    def test_disabled_cache_always_misses(
        self, rw_sweep_grid, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "BASELINE_CACHE_SIZE", 0)
        outcome = run_campaign(
            rw_sweep_grid, str(tmp_path / "off.jsonl"),
            CampaignConfig(jobs=1), meta={},
        )
        assert outcome.baseline_cache_hits == 0
        assert outcome.baseline_cache_misses == len(rw_sweep_grid)

    def test_cache_hits_on_per_task_path_too(self, rw_sweep_grid):
        # one-task groups price through execute(), not execute_group()
        results = [run_task_group([t])[0] for t in rw_sweep_grid]
        cells = len(rw_sweep_grid) // 2
        assert all(r.status == "ok" for r in results)
        assert sum(r.baseline_cache_hit for r in results) == cells
        assert sum(not r.baseline_cache_hit for r in results) == cells

    def test_lru_eviction_bounds_entries(
        self, rw_sweep_grid, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner, "BASELINE_CACHE_SIZE", 2)
        run_campaign(
            rw_sweep_grid, str(tmp_path / "lru.jsonl"),
            CampaignConfig(jobs=1), meta={},
        )
        assert baseline_cache_stats()["size"] <= 2


def _spec(**kw):
    args = dict(
        seed=0, nests=2, include_corpus=False, meshes=((4, 4), (2, 2))
    )
    args.update(kw)
    return default_spec(**args)


class TestPerGroupKeys:
    """Each cell's key is the group's one workload digest plus its
    ``(m, machine, mesh)``."""

    def test_rank_weights_alone_share_every_baseline(self, tmp_path):
        first, second = (
            _spec(rank_weights=(rw,)).expand() for rw in (True, False)
        )
        assert {t.compile_key for t in first}.isdisjoint(
            t.compile_key for t in second
        )
        cold = run_campaign(
            first, str(tmp_path / "a.jsonl"), CampaignConfig(jobs=1), meta={}
        )
        warm = run_campaign(
            second, str(tmp_path / "b.jsonl"), CampaignConfig(jobs=1), meta={}
        )
        assert cold.baseline_cache_misses == len(first)
        assert warm.baseline_cache_hits == len(second)
        assert warm.baseline_cache_misses == 0
        _, a = RunStore(str(tmp_path / "a.jsonl")).load()
        _, b = RunStore(str(tmp_path / "b.jsonl")).load()
        assert sorted(r.baseline_time for r in a.values()) == sorted(
            r.baseline_time for r in b.values()
        )

    @pytest.mark.parametrize(
        "other",
        [dict(machines=("paragon",)), dict(meshes=((3, 2),))],
        ids=["machine", "mesh"],
    )
    def test_other_machine_or_mesh_misses(self, other, tmp_path):
        run_campaign(
            _spec(machines=("cm5",)).expand(), str(tmp_path / "a.jsonl"),
            CampaignConfig(jobs=1), meta={},
        )
        tasks = _spec(**{"machines": ("cm5",), **other}).expand()
        outcome = run_campaign(
            tasks, str(tmp_path / "b.jsonl"), CampaignConfig(jobs=1), meta={}
        )
        assert outcome.baseline_cache_hits == 0
        assert outcome.baseline_cache_misses == len(tasks)

    def test_keys_share_one_workload_digest_per_group(self, rw_sweep_grid):
        key = rw_sweep_grid[0].compile_key
        group = [t for t in rw_sweep_grid if t.compile_key == key]
        keys = runner._baseline_price_keys(group)
        assert len(group) > 1 and len(set(keys)) == len(group)
        assert len({k[0] for k in keys}) == 1
        assert [k[1:] for k in keys] == [
            (t.m, t.machine, tuple(t.mesh)) for t in group
        ]

    def test_steady_rerun_of_the_bench_grid_hits_every_baseline(
        self, tmp_path
    ):
        tasks = default_spec(
            seed=0, nests=8, machines=("paragon", "cm5"),
            meshes=((4, 4), (2, 2)), ms=(2,), shapes=("rect",),
        ).expand()
        for name in ("warm", "steady"):
            outcome = run_campaign(
                tasks, str(tmp_path / f"{name}.jsonl"),
                CampaignConfig(jobs=1), meta={},
            )
        assert outcome.ok == len(tasks)
        assert outcome.baseline_cache_hits == len(tasks)


class TestGoldenByteIdentity:
    def test_batched_records_identical_to_per_task(
        self, rw_sweep_grid, tmp_path, monkeypatch
    ):
        """The golden check: a whole-group campaign and one-task groups
        of the same group function (baseline cache off) write records
        whose deterministic payloads serialize to identical bytes."""
        batched_path = str(tmp_path / "batched.jsonl")
        plain_path = str(tmp_path / "plain.jsonl")

        run_campaign(
            rw_sweep_grid, batched_path, CampaignConfig(jobs=1), meta={}
        )
        clear_compile_cache()
        clear_baseline_cache()
        monkeypatch.setattr(runner, "BASELINE_CACHE_SIZE", 0)
        store = RunStore(plain_path)
        store.start({})
        for task in rw_sweep_grid:
            store.append(run_task_group([task]))
        store.close()

        _, batched = RunStore(batched_path).load()
        _, plain = RunStore(plain_path).load()
        assert set(batched) == set(plain) == {
            t.task_id for t in rw_sweep_grid
        }
        for tid in batched:
            assert canonical_json(
                batched[tid].deterministic_dict()
            ) == canonical_json(plain[tid].deterministic_dict()), tid

    def test_hit_flag_never_reaches_disk(self, rw_sweep_grid, tmp_path):
        path = str(tmp_path / "flags.jsonl")
        run_campaign(
            rw_sweep_grid, path, CampaignConfig(jobs=1), meta={}
        )
        with open(path) as fh:
            assert "baseline_cache_hit" not in fh.read()
        _, results = RunStore(path).load()
        assert all(r.baseline_cache_hit is None for r in results.values())
