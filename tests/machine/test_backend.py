"""The NumPy group-by helpers of :mod:`repro.machine.backend`: the
packed-key ``unique_rows`` fast path and its fallbacks, and
bit-identity of the array-native phase timing oracle with the
per-element one."""

import numpy as np
import pytest

from repro.machine import CostParams, Mesh, Message
from repro.machine.backend import unique_rows

from oracles.machine import phase_time_python
from oracles.pricing import phase_time_arrays


class TestUniqueRows:
    def rows(self, rng, n, cols, high):
        return rng.integers(0, high, size=(n, cols), dtype=np.int64)

    @pytest.mark.parametrize("high", [2, 7, 64])
    @pytest.mark.parametrize("cols", [2, 4, 7])
    def test_packed_matches_axis_unique(self, cols, high):
        rng = np.random.default_rng(cols * 100 + high)
        arr = self.rows(rng, 500, cols, high)
        uniq, counts = unique_rows(arr)
        want_u, want_c = np.unique(arr, axis=0, return_counts=True)
        assert np.array_equal(uniq, want_u)
        assert np.array_equal(counts, want_c)

    def test_negative_values_fall_back(self):
        arr = np.array([[1, -2], [1, -2], [0, 5]], dtype=np.int64)
        uniq, counts = unique_rows(arr)
        want_u, want_c = np.unique(arr, axis=0, return_counts=True)
        assert np.array_equal(uniq, want_u)
        assert np.array_equal(counts, want_c)

    def test_wide_values_fall_back(self):
        # 3 columns x 2**40 values cannot pack into 63 bits
        arr = np.array(
            [[2**40, 1, 2**40], [2**40, 1, 2**40], [0, 0, 1]],
            dtype=np.int64,
        )
        uniq, counts = unique_rows(arr)
        want_u, want_c = np.unique(arr, axis=0, return_counts=True)
        assert np.array_equal(uniq, want_u)
        assert np.array_equal(counts, want_c)

    def test_empty(self):
        arr = np.empty((0, 4), dtype=np.int64)
        uniq, counts = unique_rows(arr)
        assert uniq.shape == (0, 4)
        assert counts.shape == (0,)


class TestPhaseTimeArrays:
    """The array-native phase timing oracle must price exactly like the
    ``Message``-object ``phase_time_python``."""

    def random_messages_2d(self, rng, mesh, n):
        coords = rng.integers(
            0, mesh.dims, size=(n, 2, 2), dtype=np.int64
        )
        sizes = rng.integers(1, 50, size=n, dtype=np.int64)
        msgs = [
            Message(src=tuple(c[0]), dst=tuple(c[1]), size=int(s))
            for c, s in zip(coords.tolist(), sizes.tolist())
        ]
        return coords[:, 0], coords[:, 1], sizes, msgs

    @pytest.mark.parametrize("seed", range(5))
    def test_2d_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        mesh = Mesh(4, 3)
        params = CostParams()
        senders, receivers, sizes, msgs = self.random_messages_2d(
            rng, mesh, 40
        )
        want = phase_time_python(mesh, msgs, params)
        got = phase_time_arrays(mesh, senders, receivers, sizes, params)
        assert got == want

    @pytest.mark.parametrize("seed", range(3))
    def test_3d_bit_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        mesh = Mesh(3, 2, 2)
        params = CostParams()
        coords = rng.integers(0, (3, 2, 2), size=(30, 2, 3), dtype=np.int64)
        sizes = rng.integers(1, 50, size=30, dtype=np.int64)
        msgs = [
            Message(src=tuple(c[0]), dst=tuple(c[1]), size=int(s))
            for c, s in zip(coords.tolist(), sizes.tolist())
        ]
        want = phase_time_python(mesh, msgs, params)
        got = phase_time_arrays(
            mesh, coords[:, 0], coords[:, 1], sizes, params
        )
        assert got == want

    def test_all_local(self):
        mesh = Mesh(4, 4)
        params = CostParams()
        senders = np.array([[1, 1], [2, 3]], dtype=np.int64)
        sizes = np.array([10, 20], dtype=np.int64)
        msgs = [
            Message(src=(1, 1), dst=(1, 1), size=10),
            Message(src=(2, 3), dst=(2, 3), size=20),
        ]
        assert phase_time_arrays(
            mesh, senders, senders, sizes, params
        ) == phase_time_python(mesh, msgs, params)

    def test_empty_phase(self):
        mesh = Mesh(4, 4)
        params = CostParams()
        empty = np.empty((0, 2), dtype=np.int64)
        assert phase_time_arrays(
            mesh, empty, empty, np.empty(0, dtype=np.int64), params
        ) == phase_time_python(mesh, [], params)
