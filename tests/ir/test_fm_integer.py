"""The integer Fourier–Motzkin kernel against its ``Fraction`` twin.

The int64 kernel must return *identical* feasibility verdicts to the
exact ``Fraction`` baseline — over a 50-seed corpus of random
rectangular and triangular constraint systems, their mutated-infeasible
twins, and the full dependence pipeline of generated workloads — and
must hand off to the baseline (not wrap around) when entries threaten
int64 overflow.  The memo layer must likewise be invisible: cached and
uncached dependence analysis agree result-for-result.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.campaign.workloads import (
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import dependence as dep
from repro.ir import (
    clear_dependence_caches,
    dependence_cache_stats,
    find_dependences,
    infer_schedules,
)

SEEDS = range(50)


def _as_fraction_ineqs(rows, nvars):
    return [(tuple(Fraction(x) for x in r[:nvars]), Fraction(r[nvars])) for r in rows]


def _rect_system(rng, nvars):
    """A random box: lo_v <= y_v <= hi_v (sometimes an empty interval)."""
    rows = []
    for v in range(nvars):
        lo = rng.randint(-6, 3)
        hi = lo + rng.randint(-2, 7)  # negative span => infeasible box
        hi_row = [0] * nvars + [hi]
        hi_row[v] = 1
        rows.append(hi_row)
        lo_row = [0] * nvars + [-lo]
        lo_row[v] = -1
        rows.append(lo_row)
    return rows


def _tri_system(rng, nvars):
    """A box plus random coupling rows (triangular-domain shapes)."""
    rows = _rect_system(rng, nvars)
    for _ in range(rng.randint(1, max(nvars, 1))):
        row = [0] * (nvars + 1)
        for _ in range(rng.randint(1, 2) if nvars == 1 else 2):
            row[rng.randrange(nvars)] = rng.choice([-3, -2, -1, 1, 2, 3])
        row[nvars] = rng.randint(-4, 6)
        rows.append(row)
    return rows


def _mutate_infeasible(rng, rows, nvars):
    """Append the strict complement of one nonzero row: together with
    the original (``a.y <= b`` and ``a.y >= b+1``) the system has no
    rational point, whatever else it contains."""
    candidates = [r for r in rows if any(r[:nvars])]
    r = rng.choice(candidates)
    return rows + [[-x for x in r[:nvars]] + [-r[nvars] - 1]]


class TestVerdictIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_systems_match_fraction_baseline(self, seed):
        rng = random.Random(seed)
        for build in (_rect_system, _tri_system):
            nvars = rng.randint(1, 4)
            rows = build(rng, nvars)
            expected = dep._fourier_motzkin_fraction(
                _as_fraction_ineqs(rows, nvars), nvars
            )
            got = dep._fourier_motzkin_int(
                np.array(rows, dtype=np.int64), nvars
            )
            assert got == expected, (seed, build.__name__, rows)
            # the scalar small-system twin and the dispatcher must
            # agree with both kernels
            assert dep._fourier_motzkin_scalar(rows, nvars) == expected
            assert dep._fm_feasible(rows, nvars) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutated_infeasible_twins(self, seed):
        rng = random.Random(1000 + seed)
        nvars = rng.randint(1, 4)
        rows = _mutate_infeasible(rng, _tri_system(rng, nvars), nvars)
        assert dep._fourier_motzkin_int(
            np.array(rows, dtype=np.int64), nvars
        ) is False
        assert dep._fourier_motzkin_scalar(rows, nvars) is False
        assert dep._fourier_motzkin_fraction(
            _as_fraction_ineqs(rows, nvars), nvars
        ) is False

    def test_contradiction_without_variables_is_caught_early(self):
        # 0 <= -1 present from the start: the early-exit check must
        # report infeasibility even with no eliminations left to run
        rows = [[0, 0, -1], [1, 0, 5], [0, 1, 5]]
        assert dep._fourier_motzkin_int(np.array(rows, dtype=np.int64), 2) is False
        assert dep._fourier_motzkin_fraction(_as_fraction_ineqs(rows, 2), 2) is False

    def test_infeasibility_created_by_last_round_is_caught(self):
        # y0 <= 0 and y0 >= 1 only combine in the final round
        rows = [[1, 0], [-1, -1]]
        assert dep._fm_feasible(rows, 1) is False

    def test_unbounded_variable_projects_out(self):
        # y0 only bounded above, y1 infeasible: verdict comes from y1
        rows = [[1, 0, 5], [0, 1, 0], [0, -1, -1]]
        assert dep._fm_feasible(rows, 2) is False
        rows_ok = [[1, 0, 5], [0, 1, 3], [0, -1, 0]]
        assert dep._fm_feasible(rows_ok, 2) is True


class TestOverflowFallback:
    def test_kernel_raises_on_threatened_overflow(self):
        big = 2 ** 45
        rows = np.array(
            [[big, 1, big], [-big, 1, 0], [0, -1, 0]], dtype=np.int64
        )
        with pytest.raises(dep._FMOverflow):
            dep._fourier_motzkin_int(rows, 2)

    def test_dispatcher_falls_back_to_fraction_verdict(self):
        big = 2 ** 45
        feasible = [[big, 1, big], [-big, 1, 0], [0, -1, 0]]
        expected = dep._fourier_motzkin_fraction(
            _as_fraction_ineqs(feasible, 2), 2
        )
        assert dep._fm_feasible(feasible, 2) == expected
        # and entries beyond int64 never reach the numpy kernel at all
        huge = [[2 ** 70, 1], [-(2 ** 70), -1]]
        assert dep._fm_feasible(huge, 1) == dep._fourier_motzkin_fraction(
            _as_fraction_ineqs(huge, 1), 1
        )

    def test_legacy_entry_accepts_fractions(self):
        # the historical signature still takes genuinely rational rows
        ineqs = [
            ((Fraction(1, 2),), Fraction(3)),
            ((Fraction(-1, 3),), Fraction(-1)),
        ]
        assert dep._fourier_motzkin(ineqs, 1) is True
        ineqs_bad = ineqs + [((Fraction(1),), Fraction(-10))]
        assert dep._fourier_motzkin(ineqs_bad, 1) is False


def _pipeline_workloads():
    wls = (
        generate_workloads(seed=3, count=4)
        + generate_triangular_workloads(seed=4, count=3)
        + triangular_corpus()
    )
    return [(w.resolve(), dict(w.params)) for w in wls]


class TestPipelineIdentity:
    def test_dependences_match_forced_fraction_path(self, monkeypatch):
        """End to end: the dependence sets of real workloads are
        identical whether every FM system runs on the int64 kernel or
        on the Fraction baseline."""
        nests = _pipeline_workloads()
        monkeypatch.setattr(dep, "DEPENDENCE_CACHE_SIZE", 0)
        fast = [find_dependences(n, p) for n, p in nests]

        def fraction_only(rows, nvars):
            return dep._fourier_motzkin_fraction(
                _as_fraction_ineqs(rows, nvars), nvars
            )

        monkeypatch.setattr(dep, "_fm_feasible", fraction_only)
        slow = [find_dependences(n, p) for n, p in nests]
        assert fast == slow


class TestDependenceMemo:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_dependence_caches()
        yield
        clear_dependence_caches()

    def test_memoized_results_identical_to_uncached(self, monkeypatch):
        nests = _pipeline_workloads()
        with monkeypatch.context() as m:
            m.setattr(dep, "DEPENDENCE_CACHE_SIZE", 0)
            uncached_deps = [find_dependences(n, p) for n, p in nests]
            uncached_scheds = [infer_schedules(n, p) for n, p in nests]
        cached_deps = [find_dependences(n, p) for n, p in nests]
        cached_scheds = [infer_schedules(n, p) for n, p in nests]
        assert cached_deps == uncached_deps
        for a, b in zip(cached_scheds, uncached_scheds):
            assert a.schedules == b.schedules

    def test_repeat_analysis_hits_the_cache(self):
        nest, params = _pipeline_workloads()[0]
        find_dependences(nest, params)
        before = dependence_cache_stats()["test_dependence"]
        find_dependences(nest, params)
        after = dependence_cache_stats()["test_dependence"]
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_schedule_memo_hits_across_reinference(self):
        for nest, params in _pipeline_workloads():
            infer_schedules(nest, params)
        before = dependence_cache_stats()["inner_loops_parallel"]
        for nest, params in _pipeline_workloads():
            infer_schedules(nest, params)
        after = dependence_cache_stats()["inner_loops_parallel"]
        assert after["misses"] == before["misses"]

    def test_disabling_bypasses_and_clears(self, monkeypatch):
        nest, params = _pipeline_workloads()[0]
        find_dependences(nest, params)
        assert dependence_cache_stats()["test_dependence"]["size"] > 0
        monkeypatch.setattr(dep, "DEPENDENCE_CACHE_SIZE", 0)
        clear_dependence_caches()
        stats = dependence_cache_stats()["test_dependence"]
        assert stats == {"hits": 0, "misses": 0, "size": 0, "maxsize": stats["maxsize"]}
        find_dependences(nest, params)
        assert dependence_cache_stats()["test_dependence"]["size"] == 0

    def test_counters_live_in_obs_registry(self):
        from repro import obs

        nest, params = _pipeline_workloads()[0]
        find_dependences(nest, params)
        snap = obs.snapshot()
        names = {
            "ir.dependence.cache.test_dependence.hits",
            "ir.dependence.cache.test_dependence.misses",
            "ir.dependence.cache.inner_loops_parallel.hits",
            "ir.dependence.cache.inner_loops_parallel.misses",
            "ir.dependence.cache",  # the full-stats provider
        }
        assert names <= set(snap)
