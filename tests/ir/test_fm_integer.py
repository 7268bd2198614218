"""The integer Fourier–Motzkin kernel against the ``Fraction`` oracle.

``_fm_feasible`` (elimination on Python ints) must return *identical*
feasibility verdicts to ``tests/oracles/dependence.py`` — over a 50-seed
corpus of random rectangular and triangular constraint systems, their
mutated-infeasible twins, generated systems of 0–64 rows with entries
up to +-2**70, and the full dependence pipeline of generated
workloads.  The memo layer must likewise be invisible: cached and
uncached dependence analysis agree result-for-result.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles.dependence import fm_feasible as oracle_feasible

SEEDS = range(50)


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
            expected = oracle_feasible(rows, nvars)
            assert dep._fm_feasible(rows, nvars) == expected, (
                seed,
                build.__name__,
                rows,
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutated_infeasible_twins(self, seed):
        rng = random.Random(1000 + seed)
        nvars = rng.randint(1, 4)
        rows = _mutate_infeasible(rng, _tri_system(rng, nvars), nvars)
        assert dep._fm_feasible(rows, nvars) is False
        assert oracle_feasible(rows, nvars) is False

    def test_contradiction_without_variables_is_caught_early(self):
        # 0 <= -1 present from the start: the early-exit check must
        # report infeasibility even with no eliminations left to run
        rows = [[0, 0, -1], [1, 0, 5], [0, 1, 5]]
        assert dep._fm_feasible(rows, 2) is False
        assert oracle_feasible(rows, 2) is False

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


BIG = 2 ** 70

# mostly small coefficients, sometimes up to +-2**70
coefficients = st.one_of(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-BIG, BIG),
)


@st.composite
def fm_systems(draw):
    """``([coeffs..., rhs] rows, nvars)``: 0–64 rows (half the time at
    most 8) over 1–5 variables placed around an integer point, with
    slack that may cut it off, plus a zero, duplicated (scaled) or
    contradictory row, or a pair of bounds one unit apart.  At most 16
    rows couple two variables: elimination grows exponentially with
    the coupling, and with up to 32 such rows single systems took over
    5 s in the oracle and 0.5 s in the kernel."""
    nvars = draw(st.integers(1, 5))
    point = [draw(st.integers(-5, 5)) for _ in range(nvars)]
    nrows = draw(st.one_of(st.integers(0, 8), st.integers(0, 64)))
    coupling = draw(st.integers(0, 16))
    min_slack = draw(st.sampled_from([0, -2]))
    rows = []
    for i in range(nrows):
        support = draw(
            st.lists(
                st.integers(0, nvars - 1),
                min_size=1,
                max_size=2 if i < coupling else 1,
                unique=True,
            )
        )
        row = [0] * (nvars + 1)
        for v in support:
            row[v] = draw(coefficients)
        slack = draw(st.integers(min_slack, 5))
        row[nvars] = sum(a * p for a, p in zip(row, point)) + slack
        rows.append(row)
    tweak = draw(
        st.sampled_from(["none", "zero_row", "dup_row", "contradict", "gap"])
    )
    if tweak == "gap":  # k + 1 <= y_v <= k: empty by exactly one unit
        v = draw(st.integers(0, nvars - 1))
        k = draw(st.integers(-5, 5))
        for sign, rhs in ((1, k), (-1, -k - 1)):
            row = [0] * nvars + [rhs]
            row[v] = sign
            rows.insert(draw(st.integers(0, len(rows))), row)
    elif tweak == "zero_row":
        rows.append([0] * nvars + [draw(st.integers(-3, 3))])
    elif rows and tweak == "dup_row":
        k = draw(st.integers(1, 3))
        rows.append([k * x for x in draw(st.sampled_from(rows))])
    elif rows and tweak == "contradict":
        r = draw(st.sampled_from(rows))
        rows.append([-x for x in r[:nvars]] + [-r[nvars] - 1])
    return rows, nvars


class TestDifferential:
    @given(fm_systems())
    @settings(max_examples=150, deadline=None)
    def test_generated_systems_match_oracle(self, system):
        rows, nvars = system
        assert dep._fm_feasible(rows, nvars) == oracle_feasible(rows, nvars)


class TestHugeMagnitudes:
    def test_wide_entries_match_oracle(self):
        # a round of these squares 2**45: past int64, exact on ints
        big = 2 ** 45
        guarded = [[big, 1, big], [-big, 1, 0], [0, -1, 0]]
        assert dep._fm_feasible(guarded, 2) == oracle_feasible(guarded, 2)
        # entries past int64 altogether: y = 2**-70 is the one point
        huge = [[2 ** 70, 1], [-(2 ** 70), -1]]
        assert dep._fm_feasible(huge, 1) is oracle_feasible(huge, 1) is True
        cut = [[2 ** 70, 1], [-(2 ** 70), -2]]
        assert dep._fm_feasible(cut, 1) is oracle_feasible(cut, 1) is False
        plain = [[1, 0, 5], [0, 1, 3], [0, -1, 0]]
        assert dep._fm_feasible(plain, 2) == oracle_feasible(plain, 2)


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
        identical whether every FM system runs on the integer kernel or
        on the Fraction oracle."""
        nests = _pipeline_workloads()
        monkeypatch.setattr(dep, "DEPENDENCE_CACHE_SIZE", 0)
        fast = [find_dependences(n, p) for n, p in nests]
        monkeypatch.setattr(dep, "_fm_feasible", oracle_feasible)
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
        workloads = _pipeline_workloads()
        clear_dependence_caches()  # the generators infer schedules too
        for nest, params in workloads:
            infer_schedules(nest, params)
        before = dependence_cache_stats()["schedule_depth"]
        # one entry per (nest, params), not one per probed level
        assert before["misses"] == before["size"] <= len(workloads)
        for nest, params in workloads:
            infer_schedules(nest, params)
        after = dependence_cache_stats()["schedule_depth"]
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + len(workloads)

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
            "ir.dependence.cache.schedule_depth.hits",
            "ir.dependence.cache.schedule_depth.misses",
            "ir.dependence.cache",  # the full-stats provider
        }
        assert names <= set(snap)
