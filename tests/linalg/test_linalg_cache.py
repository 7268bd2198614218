"""Tests for the normal-form memoization layer and the exact IntMat
product and determinant (checked against ``tests/oracles/linalg.py``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    IntMat,
    NormalFormCache,
    cache_stats,
    clear_caches,
    best_left_inverse,
    get_cache,
    memoize_normal_form,
    right_hermite,
    smith_normal_form,
)
from repro.linalg.cache import _REGISTRY

from oracles import linalg as oracle


def small_mat(rng, m, n, lo=-6, hi=6):
    return IntMat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)])


class TestNormalFormCache:
    def test_hits_return_identical_objects(self):
        clear_caches()
        a = IntMat([[2, 1], [1, 1]])
        assert right_hermite(a) is right_hermite(a)
        assert smith_normal_form(a) is smith_normal_form(a)
        n = IntMat([[1, 0], [0, 1], [1, 1]])
        assert best_left_inverse(n) is best_left_inverse(n)

    def test_counters(self):
        clear_caches()
        a = IntMat([[3, 1], [0, 2]])
        smith_normal_form(a)
        smith_normal_form(a)
        smith_normal_form(a)
        s = get_cache("smith_normal_form").stats()
        assert s["misses"] == 1 and s["hits"] == 2

    def test_equal_matrices_share_entries(self):
        clear_caches()
        smith_normal_form(IntMat([[5, 2], [1, 1]]))
        r = smith_normal_form(IntMat([[5, 2], [1, 1]]))  # equal, distinct object
        assert get_cache("smith_normal_form").hits == 1
        u, d, v = r
        assert u @ IntMat([[5, 2], [1, 1]]) @ v == d

    def test_lru_eviction_bound(self):
        cache = NormalFormCache("toy", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2
        assert "a" not in cache and "c" in cache

    def test_lru_recency(self):
        cache = NormalFormCache("toy2", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_memoize_decorator_eviction(self):
        calls = []

        @memoize_normal_form("toy_fn", maxsize=2)
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(1) == 2 and fn(2) == 4 and fn(1) == 2
        assert calls == [1, 2]
        fn(3)  # evicts 2
        fn(2)  # recomputes
        assert calls == [1, 2, 3, 2]
        del _REGISTRY["toy_fn"]

    def test_reregistration_replaces_cache(self):
        """Module reload re-executes decorators; the registry must
        accept the new cache instead of erroring at import time."""

        @memoize_normal_form("toy_reload", maxsize=4)
        def first(x):
            return x + 1

        @memoize_normal_form("toy_reload", maxsize=4)
        def second(x):
            return x + 2

        assert get_cache("toy_reload") is second.cache
        assert second(1) == 3
        del _REGISTRY["toy_reload"]

    def test_module_reload_safe(self):
        import importlib

        import repro.linalg.hermite as hermite_mod

        importlib.reload(hermite_mod)  # must not raise
        # and the reloaded function still works + caches
        a = IntMat([[2, 1], [1, 1]])
        assert hermite_mod.right_hermite(a) is hermite_mod.right_hermite(a)

    def test_cache_stats_registry(self):
        stats = cache_stats()
        for name in ("right_hermite", "smith_normal_form", "best_left_inverse"):
            assert name in stats
            assert set(stats[name]) == {"hits", "misses", "size", "maxsize"}

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_cached_results_bit_identical_to_uncached(self, seed):
        rng = random.Random(seed)
        a = small_mat(rng, 3, 3)
        cached = smith_normal_form(a)
        assert cached == smith_normal_form.__wrapped__(a)
        n = small_mat(rng, 3, 2)
        assert best_left_inverse(n) == best_left_inverse.__wrapped__(n)
        from repro.linalg import rank

        if rank(a) == 3:
            assert right_hermite(a) == right_hermite.__wrapped__(a)


class TestIntMatFastPaths:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matmul_numpy_path_exact(self, seed):
        # small entries: the NumPy int64 product is an exact reference
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        a = small_mat(rng, n, n, -80, 80)
        b = small_mat(rng, n, n, -80, 80)
        prod = a.matmul(b)
        assert prod == IntMat.from_numpy(a.to_numpy() @ b.to_numpy())
        assert prod == oracle.matmul(a, b)

    def test_matmul_zero_operand_with_huge_other(self):
        huge = IntMat([[2 ** 100] * 8 for _ in range(8)])
        zero = IntMat.zeros(8, 8)
        assert huge.matmul(zero) == zero
        assert zero.matmul(huge) == zero

    def test_matmul_huge_entries_exact(self):
        big = 10 ** 30
        a = IntMat([[big if i == j else 1 for j in range(8)] for i in range(8)])
        prod = a.matmul(a)
        assert prod == oracle.matmul(a, a)
        assert prod[0, 0] == big * big + 7  # exact, no int64 wraparound

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_det_fast_paths_exact(self, seed):
        # n <= 3 takes the cofactor expansion, larger n Bareiss
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        a = small_mat(rng, n, n, -9, 9)
        assert a.det() == oracle.det(a)

    def test_det_singular_and_pivoting(self):
        z = IntMat([[0, 1, 2, 3], [0, 2, 4, 6], [1, 0, 0, 0], [0, 0, 1, 0]])
        assert z.det() == oracle.det(z) == 0
        perm = IntMat(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
        )
        assert perm.det() == oracle.det(perm) == -1

    def test_det_huge_entries_fall_back(self):
        big = 10 ** 30
        m = IntMat(
            [
                [big, 1, 0, 0],
                [2, big, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
        assert m.det() == big * big - 2

    def test_identity_and_scalar(self):
        assert IntMat.identity(5).det() == 1
        assert IntMat([[7]]).det() == 7


class TestFromNumpyValidation:
    def test_integer_and_bool_ok(self):
        import numpy as np

        assert IntMat.from_numpy(np.array([[1, 2], [3, 4]]))[1, 0] == 3
        assert IntMat.from_numpy(np.array([[True, False]]))[0, 0] == 1

    def test_integral_floats_ok(self):
        import numpy as np

        m = IntMat.from_numpy(np.array([[1.0, -2.0], [3.0, 0.0]]))
        assert m == IntMat([[1, -2], [3, 0]])

    def test_fractional_float_rejected_with_location(self):
        import numpy as np

        with pytest.raises(ValueError, match=r"non-integral entry .* \(1, 0\)"):
            IntMat.from_numpy(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_nan_inf_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="non-finite"):
            IntMat.from_numpy(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            IntMat.from_numpy(np.array([[np.inf, 1.0]]))

    def test_complex_rejected(self):
        import numpy as np

        with pytest.raises(TypeError, match="unsupported dtype"):
            IntMat.from_numpy(np.array([[1 + 0j]]))

    def test_object_bigints_ok(self):
        import numpy as np

        m = IntMat.from_numpy(np.array([[10 ** 40, -1]], dtype=object))
        assert m[0, 0] == 10 ** 40

    def test_one_dimensional_promoted(self):
        import numpy as np

        assert IntMat.from_numpy(np.array([1, 2, 3])).shape == (1, 3)
