"""Fused segmented pricing vs the per-phase oracle.

The segmented kernel (`phase_times_segmented`) and the executor path
that feeds it must be **bit-identical** to per-phase pricing
(``tests/oracles/pricing.py``) — every ``CommReport``/``PhaseReport``
float compares exactly, over rectangular and triangular corpora, 2-D
and 3-D machines, macro/collective labels, the batched
``execute_group`` path and the campaign store payloads.
"""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_nest
from repro.campaign import (
    CampaignConfig,
    RunStore,
    clear_baseline_cache,
    clear_compile_cache,
    default_spec,
    run_campaign,
)
from repro.campaign.sweep import canonical_json
from repro.campaign.workloads import (
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)
from repro.ir import motivating_example
from repro.machine import (
    CM5Model,
    CostParams,
    Mesh,
    MeshModel,
    Message,
    machine_spec,
    phase_times_segmented,
)
from repro.obs import clear_spans, metrics, set_enabled, span_snapshot
from repro.runtime import execute, execute_group

import oracles.pricing
from oracles.machine import phase_time_python
from oracles.pricing import (
    execute_per_phase,
    per_phase_pricing,
    phase_time_arrays,
)
from test_group_pricing import CELLS_2D, CELLS_3D, compile_cells

PARAMS = {"N": 3, "M": 3}

#: float64 stops representing every integer here: sums past it are
#: where a float accumulator would round
F64_EXACT = 2 ** 53


def random_phases(rng, mesh_dims, n_phases, events_per_phase, max_size=9):
    """Random message matrices with an explicit segment column; some
    rows are deliberately local (src == dst) and one segment may be
    empty."""
    rank = len(mesh_dims)
    rows = []
    for pid in range(n_phases):
        n = events_per_phase if pid != 1 else 0  # keep one empty segment
        for _ in range(n):
            src = [int(rng.integers(0, d)) for d in mesh_dims]
            if rng.random() < 0.15:
                dst = list(src)  # local message
            else:
                dst = [int(rng.integers(0, d)) for d in mesh_dims]
            rows.append([pid] + src + dst + [int(rng.integers(1, max_size))])
    arr = np.array(rows, dtype=np.int64)
    phase_ids = arr[:, 0]
    senders = arr[:, 1: 1 + rank]
    receivers = arr[:, 1 + rank: 1 + 2 * rank]
    sizes = arr[:, 1 + 2 * rank]
    return senders, receivers, sizes, phase_ids


class TestKernelBitIdentity:
    """`phase_times_segmented` segment-by-segment against
    `phase_time_arrays`, on 2-D and 3-D meshes."""

    @pytest.mark.parametrize("dims", [(4, 4), (3, 2), (2, 2, 2), (3, 2, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_phase(self, dims, seed):
        rng = np.random.default_rng(seed)
        mesh = machine_spec("t3d" if len(dims) == 3 else "paragon").make(
            dims
        ).mesh
        senders, receivers, sizes, phase_ids = random_phases(
            rng, dims, n_phases=5, events_per_phase=13
        )
        params = CostParams(alpha=19.7, beta=1.3, gamma=0.41)
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, params
        )
        assert len(srep) == 5
        for pid in range(5):
            m = phase_ids == pid
            want = phase_time_arrays(
                mesh, senders[m], receivers[m], sizes[m], params
            )
            assert srep.report(pid) == want, (dims, seed, pid)

    def test_explicit_n_phases_pads_empty_tail(self):
        mesh = MeshModel(4, 4).mesh
        senders = np.array([[0, 0]], dtype=np.int64)
        receivers = np.array([[3, 3]], dtype=np.int64)
        sizes = np.array([4], dtype=np.int64)
        phase_ids = np.array([0], dtype=np.int64)
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids,
            CostParams(), n_phases=3,
        )
        assert len(srep) == 3
        empty = phase_time_arrays(
            mesh, senders[:0], receivers[:0], sizes[:0], CostParams()
        )
        assert srep.report(1) == empty and srep.report(2) == empty

    def test_all_local_and_empty_inputs(self):
        mesh = MeshModel(2, 2).mesh
        senders = np.array([[1, 1], [0, 1]], dtype=np.int64)
        srep = phase_times_segmented(
            mesh, senders, senders.copy(), np.array([3, 5]),
            np.array([0, 1]), CostParams(),
        )
        assert srep.times.tolist() == [0.0, 0.0]
        assert srep.local_messages.tolist() == [1, 1]
        empty = phase_times_segmented(
            mesh, np.empty((0, 2), dtype=np.int64),
            np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), CostParams(),
        )
        assert len(empty) == 0

    def test_magnitude_guard_takes_exact_fallback(self):
        """Sizes past the float64-exact bound price bit-identical: the
        kernel's sums are int64."""
        mesh = MeshModel(4, 4).mesh
        big = F64_EXACT  # one message already past float64 exactness
        senders = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.int64)
        receivers = np.array([[3, 3], [2, 1], [3, 2]], dtype=np.int64)
        sizes = np.array([big, 7, 11], dtype=np.int64)
        phase_ids = np.array([0, 0, 1], dtype=np.int64)
        params = CostParams()
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, params
        )
        for pid in range(2):
            m = phase_ids == pid
            assert srep.report(pid) == phase_time_arrays(
                mesh, senders[m], receivers[m], sizes[m], params
            )

    def test_oversize_segment_goes_exact_alone(self):
        """One segment past the float64-exact bound, stacked between
        small ones: every segment still matches the oracle."""
        mesh = MeshModel(4, 4).mesh
        rng = np.random.default_rng(3)
        senders, receivers, sizes, phase_ids = random_phases(
            rng, (4, 4), n_phases=5, events_per_phase=6
        )
        sizes = sizes.copy()
        sizes[phase_ids == 2] = 2 ** 52  # 6 x 2**52 >= 2**53
        params = CostParams(alpha=19.7, beta=1.3, gamma=0.41)
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, params
        )
        for pid in range(5):
            m = phase_ids == pid
            assert srep.report(pid) == phase_time_arrays(
                mesh, senders[m], receivers[m], sizes[m], params
            ), pid

    def test_large_launch_of_small_segments_stays_fused(self):
        """Segments that are each below the float64-exact bound price
        exactly even when their sum is not below it."""
        mesh = MeshModel(4, 4).mesh
        senders = np.array([[0, 0], [1, 1]] * 4, dtype=np.int64)
        receivers = np.array([[3, 3], [2, 0]] * 4, dtype=np.int64)
        sizes = np.full(8, 2 ** 51, dtype=np.int64)
        phase_ids = np.repeat(np.arange(4, dtype=np.int64), 2)
        srep = phase_times_segmented(
            mesh, senders, receivers, sizes, phase_ids, CostParams()
        )
        for pid in range(4):
            m = phase_ids == pid
            assert srep.report(pid) == phase_time_arrays(
                mesh, senders[m], receivers[m], sizes[m], CostParams()
            )

    def test_cm5_macro_lane_matches_scalar(self):
        cm5 = CM5Model()
        sizes = np.array([1, 7, 100, 4096], dtype=np.int64)
        red = cm5.macro_times_segmented("reduction", sizes)
        bro = cm5.macro_times_segmented("broadcast", sizes)
        for i, s in enumerate(sizes.tolist()):
            assert red[i] == cm5.reduction_time(s)
            assert bro[i] == cm5.broadcast_time(s)


class TestKernelInputChecks:
    """What packed keys would silently alias fails loudly instead."""

    @pytest.mark.parametrize("bad", [(-1, 0), (0, 4), (4, 0), (0, -5)])
    @pytest.mark.parametrize("column", ["senders", "receivers"])
    def test_endpoint_off_the_mesh(self, bad, column):
        mesh = Mesh(4, 4)
        ends = {
            "senders": np.array([[0, 0], [1, 2]], dtype=np.int64),
            "receivers": np.array([[3, 3], [2, 1]], dtype=np.int64),
        }
        ends[column][1] = bad
        with pytest.raises(ValueError, match="endpoint outside the mesh"):
            phase_times_segmented(
                mesh, ends["senders"], ends["receivers"], np.array([1, 2]),
                np.array([0, 0]), CostParams(),
            )

    def test_endpoint_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank-3 mesh"):
            phase_times_segmented(
                Mesh(2, 2, 2), np.zeros((1, 2), dtype=np.int64),
                np.ones((1, 2), dtype=np.int64), np.array([1]),
                np.array([0]), CostParams(),
            )

    @pytest.mark.parametrize(
        "phase_ids, n_phases", [([0, -1], None), ([0, 2], 2), ([-3, 0], 4)]
    )
    def test_phase_ids_out_of_range(self, phase_ids, n_phases):
        with pytest.raises(ValueError, match="phase_ids"):
            phase_times_segmented(
                Mesh(4, 4), np.array([[0, 0], [1, 1]]),
                np.array([[3, 3], [2, 0]]), np.array([1, 2]),
                np.array(phase_ids), CostParams(), n_phases=n_phases,
            )

    @pytest.mark.parametrize("dst", [(0, 1), (0, 0)], ids=["remote", "local"])
    def test_negative_size(self, dst):
        """A negative size would load links negatively, which the
        zero-based maxima cannot reduce (and the oracle subtracts):
        rejected by the kernel and by ``time_phase``, even on a local
        message."""
        with pytest.raises(ValueError, match="non-negative, got -5"):
            phase_times_segmented(
                Mesh(2, 2), np.array([[0, 0], [1, 1]]),
                np.array([dst, (1, 0)]), np.array([-5, 3]),
                np.array([0, 0]), CostParams(),
            )
        with pytest.raises(ValueError, match="non-negative, got -5"):
            MeshModel(2, 2).time_phase([Message((0, 0), dst, -5)])

    def test_volume_past_int64(self):
        """4 x 2**62 on one phase passes int64: a named
        ``OverflowError``, not a wrapped sum.  The same messages one per
        phase each fit, and so does a phase of volume ``2**63 - 1``."""
        msgs = [Message((0, 0), (0, 1), 2 ** 62)] * 4
        machine = MeshModel(2, 2)
        with pytest.raises(OverflowError, match=r"phase 0 .* >= 2\*\*63"):
            machine.time_phase(msgs)
        with pytest.raises(OverflowError, match="phase 1 "):
            phase_times_segmented(
                Mesh(2, 2), np.array([[0, 0]] * 5), np.array([[0, 1]] * 5),
                np.array([1] + [2 ** 62] * 4), np.array([0, 1, 1, 1, 1]),
                CostParams(),
            )
        alone = [
            phase_time_python(machine.mesh, [m], CostParams()) for m in msgs
        ]
        assert machine.time_phases([[m] for m in msgs]) == sum(
            r.time for r in alone
        )
        top = [
            Message((0, 0), (0, 1), 2 ** 62),
            Message((0, 0), (1, 1), 2 ** 62 - 1),
        ]
        assert vars(machine.time_phase(top)) == vars(
            phase_time_python(machine.mesh, top, CostParams())
        )

    def test_key_size_bound(self):
        """7 link classes x 2**42 nodes x (2**21 + 1) positions x 2
        passes 2**63 on one phase: named, not wrapped."""
        side = 1 << 21
        with pytest.raises(ValueError, match=r"1 phases x 7 link classes"):
            phase_times_segmented(
                Mesh(side, side), np.array([[0, 0]]),
                np.array([[side - 1, 3]]), np.array([1]), np.array([0]),
                CostParams(),
            )
        # well inside the bound the same launch prices as usual
        mesh = Mesh(1 << 10, 1 << 10)
        srep = phase_times_segmented(
            mesh, np.array([[0, 0]]), np.array([[1023, 3]]), np.array([5]),
            np.array([0]), CostParams(),
        )
        assert srep.report(0) == phase_time_python(
            mesh, [Message((0, 0), (1023, 3), 5)], CostParams()
        )


def test_abutting_intervals_do_not_stack():
    """``0 -> 1`` and ``1 -> 2`` load neighbouring links of one line:
    the interval ending at 1 leaves before the one starting there
    enters, so the load is 10, not 20."""
    srep = phase_times_segmented(
        Mesh(3), np.array([[0], [1]]), np.array([[1], [2]]),
        np.array([10, 10]), np.array([0, 0]), CostParams(),
    )
    assert srep.max_link_load.tolist() == [10]


@st.composite
def launches(draw):
    """A fused launch on a rank-1..3 mesh (sides from 1): dense (few
    phases, many messages) or sparse (many phases, one message each),
    with empty segments and maybe one segment of local messages only.
    A *relay* launch starts each message where the previous one ended,
    so intervals abut on a line.  Sizes are small, or up to ``2**56``,
    well past where float64 sums would round.  Returns ``(mesh,
    n_phases, rows)``, a row being ``(phase, src, dst, size)``."""
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    coord = st.tuples(*(st.integers(0, d - 1) for d in dims))
    if draw(st.booleans()):  # sparse
        n_phases = draw(st.integers(1, 60))
        phases = draw(
            st.lists(st.integers(0, n_phases - 1), unique=True, max_size=60)
        )
    else:
        n_phases = draw(st.integers(1, 5))
        phases = draw(st.lists(st.integers(0, n_phases - 1), max_size=60))
    local_phase = draw(st.none() | st.integers(0, n_phases - 1))
    relay = draw(st.booleans())
    size = st.integers(0, draw(st.sampled_from([40, 1 << 56])))
    rows = []
    for p in phases:
        src = rows[-1][2] if relay and rows else draw(coord)
        local = p == local_phase or draw(st.integers(0, 5)) == 0
        dst = src if local else draw(coord)
        rows.append((p, src, dst, draw(size)))
    return Mesh(*dims), n_phases, rows


def kernel_vs_oracle(mesh, n_phases, rows, params):
    """Price ``rows`` in one launch and compare every segment, field by
    field, with ``phase_time_python`` on that segment's messages; the
    same for ``MeshModel.time_phase`` on each segment alone, and
    ``time_phases`` over all of them against the oracle's times summed
    in phase order."""
    rank = mesh.ndim
    srep = phase_times_segmented(
        mesh,
        np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, rank),
        np.array([r[2] for r in rows], dtype=np.int64).reshape(-1, rank),
        np.array([r[3] for r in rows], dtype=np.int64),
        np.array([r[0] for r in rows], dtype=np.int64),
        params,
        n_phases=n_phases,
    )
    assert len(srep) == n_phases
    machine = MeshModel(*mesh.dims, params=params)
    phases = [
        [Message(s, d, z) for q, s, d, z in rows if q == p]
        for p in range(n_phases)
    ]
    times = []
    for p, msgs in enumerate(phases):
        want = vars(phase_time_python(mesh, msgs, params))
        assert vars(srep.report(p)) == want, (mesh, p)
        assert vars(machine.time_phase(msgs)) == want, (mesh, p)
        times.append(want["time"])
    assert machine.time_phases(phases) == sum(times)


PARAMS_DRAWN = st.sampled_from(
    [CostParams(), CostParams(alpha=19.7, beta=1.3, gamma=0.41)]
)


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(launches(), PARAMS_DRAWN)
def test_kernel_matches_per_phase_oracle(launch, params):
    kernel_vs_oracle(*launch, params)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(launches(), PARAMS_DRAWN, st.data())
def test_oversize_segment_goes_exact(launch, params, data):
    """One segment whose volume passes the float64-exact bound, next
    to small ones: every segment still matches the oracle."""
    mesh, n_phases, rows = launch
    if not rows:
        rows = [(0, (0,) * mesh.ndim, (0,) * mesh.ndim, 1)]
    big = data.draw(st.sampled_from(sorted({r[0] for r in rows})))
    k = sum(r[0] == big for r in rows)
    size = data.draw(st.integers(-(-F64_EXACT // k), 1 << 56))
    rows = [(p, s, d, size if p == big else z) for p, s, d, z in rows]
    kernel_vs_oracle(mesh, n_phases, rows, params)


@st.composite
def multi_mesh_launches(draw):
    """A fused launch over two or three distinct meshes of one rank (2
    or 3, sides from 1, so shapes like 2x5 next to 5x2 that neither
    nest nor bound each other): each phase lies on a drawn mesh, with
    empty and all-local phases next to remote ones.  Returns
    ``(meshes, phase_mesh, rows)``: ``phase_mesh[p]`` indexes phase
    ``p``'s mesh, a row is ``(phase, src, dst, size)``."""
    rank = draw(st.sampled_from([2, 3]))
    side = st.integers(1, 5)
    meshes = draw(
        st.lists(
            st.tuples(*[side] * rank), min_size=2, max_size=3, unique=True
        )
    )
    n_phases = draw(st.integers(1, 12))
    phase_mesh = draw(
        st.lists(
            st.integers(0, len(meshes) - 1),
            min_size=n_phases, max_size=n_phases,
        )
    )
    local_phase = draw(st.none() | st.integers(0, n_phases - 1))
    rows = []
    for p in draw(st.lists(st.integers(0, n_phases - 1), max_size=50)):
        dims = meshes[phase_mesh[p]]
        coord = st.tuples(*(st.integers(0, d - 1) for d in dims))
        src = draw(coord)
        local = p == local_phase or draw(st.integers(0, 5)) == 0
        dst = src if local else draw(coord)
        rows.append((p, src, dst, draw(st.integers(0, 40))))
    return meshes, phase_mesh, rows


def _launch(mesh, rows, params, n_phases, phase_dims=None):
    rank = mesh.ndim
    return phase_times_segmented(
        mesh,
        np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, rank),
        np.array([r[2] for r in rows], dtype=np.int64).reshape(-1, rank),
        np.array([r[3] for r in rows], dtype=np.int64),
        np.array([r[0] for r in rows], dtype=np.int64),
        params,
        n_phases=n_phases,
        phase_dims=phase_dims,
    )


def multi_mesh_vs_per_mesh(meshes, phase_mesh, rows, params):
    """Price ``rows`` in one multi-mesh launch and compare every phase,
    column by column, with a per-mesh launch of that mesh's phases and
    with ``phase_time_python`` on its own mesh."""
    n_phases = len(phase_mesh)
    phase_dims = np.array([meshes[k] for k in phase_mesh], dtype=np.int64)
    fused = _launch(Mesh(*meshes[0]), rows, params, n_phases, phase_dims)
    assert len(fused) == n_phases
    for k, dims in enumerate(meshes):
        mesh = Mesh(*dims)
        own = [p for p in range(n_phases) if phase_mesh[p] == k]
        local_id = {p: j for j, p in enumerate(own)}
        alone = _launch(
            mesh,
            [(local_id[q], s, d, z) for q, s, d, z in rows if q in local_id],
            params,
            len(own),
        )
        for p, j in local_id.items():
            got = vars(fused.report(p))
            assert got == vars(alone.report(j)), (meshes, p)
            want = phase_time_python(
                mesh, [Message(s, d, z) for q, s, d, z in rows if q == p],
                params,
            )
            assert got == vars(want), (meshes, p)


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(multi_mesh_launches(), PARAMS_DRAWN)
def test_multi_mesh_launch_matches_per_mesh(launch, params):
    multi_mesh_vs_per_mesh(*launch, params)


class TestMultiMeshLaunch:
    """A launch whose phases lie on several meshes of one rank."""

    @pytest.mark.parametrize(
        "meshes",
        [[(2, 5), (5, 2)], [(1, 4), (4, 1), (3, 3)], [(2, 3, 1), (1, 2, 3)]],
    )
    def test_crossed_shapes_with_empty_and_local_phases(self, meshes):
        """Phase 0 is empty and phase 1 all-local, next to a remote
        phase on every mesh."""
        rng = np.random.default_rng(7)
        phase_mesh = [0, 1] + list(range(len(meshes))) * 2
        rows = [(1, (0,) * len(meshes[1]), (0,) * len(meshes[1]), 4)]
        for p, k in enumerate(phase_mesh[2:], start=2):
            for _ in range(6):
                src, dst = (
                    tuple(int(rng.integers(0, d)) for d in meshes[k])
                    for _ in range(2)
                )
                rows.append((p, src, dst, int(rng.integers(1, 9))))
        multi_mesh_vs_per_mesh(meshes, phase_mesh, rows, CostParams())

    @pytest.mark.parametrize("column", [1, 2])
    @pytest.mark.parametrize("bad", [(3, 0), (0, 2), (-1, 0)])
    def test_endpoint_off_its_own_mesh(self, bad, column):
        """``bad`` lies inside the 5x5 bounding mesh of 2x5 and 5x2 (or
        is negative) but off phase 1's 2x2 mesh."""
        rows = [(0, (4, 0), (0, 1), 1), (1, (0, 0), (1, 1), 1)]
        row = list(rows[1])
        row[column] = bad
        rows[1] = tuple(row)
        with pytest.raises(ValueError, match="endpoint outside the mesh"):
            _launch(
                Mesh(2, 5), rows, CostParams(), 3,
                np.array([[5, 2], [2, 2], [2, 5]]),
            )

    def test_phase_dims_shape_checked(self):
        with pytest.raises(ValueError, match="phase_dims"):
            _launch(
                Mesh(2, 2), [(0, (0, 0), (1, 1), 1)], CostParams(), 2,
                np.array([[2, 2]]),
            )
        with pytest.raises(ValueError, match="phase_dims"):
            _launch(
                Mesh(2, 2), [(0, (0, 0), (1, 1), 1)], CostParams(), 1,
                np.array([[2, 0]]),
            )

    def test_oversize_segment_goes_exact_on_its_own_mesh(self):
        """A segment of a 3x2 phase whose volume passes the
        float64-exact bound, in a launch with a 2x4 mesh: every segment
        matches its own mesh's launch and the oracle."""
        meshes = [(2, 4), (3, 2)]
        big = 2 ** 60
        rows = [
            (0, (0, 0), (1, 3), 5),
            (1, (0, 0), (2, 1), big),
            (1, (2, 0), (0, 1), big),
            (1, (1, 1), (1, 1), 3),
            (2, (1, 0), (0, 2), 7),
            (3, (2, 1), (0, 0), 2),
        ]
        multi_mesh_vs_per_mesh(meshes, [0, 1, 0, 1], rows, CostParams())

    def test_key_size_bound_on_the_bounding_mesh(self):
        """1 x 2**21 next to 2**21 x 1 bound a 2**21 x 2**21 mesh, whose
        keys pass 2**63: named, not wrapped."""
        side = 1 << 21
        with pytest.raises(ValueError, match=r"2 phases x 7 link classes"):
            _launch(
                Mesh(1, side),
                [(0, (0, 0), (0, side - 1), 1), (1, (0, 0), (3, 0), 1)],
                CostParams(), 2, np.array([[1, side], [side, 1]]),
            )


def assert_segmented_matches_baseline(cells):
    """execute() and execute_group() vs the per-phase oracle: every
    report equal, float for float."""
    fused = [execute(p, m, collectives=c) for p, m, c in cells]
    fused_group = execute_group(cells)
    base = [execute_per_phase(p, m, collectives=c) for p, m, c in cells]
    for (program, machine, _), got, got_g, want in zip(
        cells, fused, fused_group, base
    ):
        assert got == want, (machine, program.folding.mesh.dims)
        assert got_g == want, (machine, program.folding.mesh.dims)


class TestExecutorBitIdentityRect:
    @pytest.mark.parametrize("workload", corpus(), ids=lambda w: w.name)
    def test_named_corpus_2d(self, workload):
        assert_segmented_matches_baseline(
            compile_cells(workload, 2, CELLS_2D)
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_2d(self, seed):
        for workload in generate_workloads(seed, 3):
            assert_segmented_matches_baseline(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestExecutorBitIdentityTriangular:
    @pytest.mark.parametrize(
        "workload", triangular_corpus(), ids=lambda w: w.name
    )
    def test_named_corpus_2d(self, workload):
        assert_segmented_matches_baseline(
            compile_cells(workload, 2, CELLS_2D)
        )

    def test_generated_2d(self):
        for workload in generate_triangular_workloads(0, 3):
            assert_segmented_matches_baseline(
                compile_cells(workload, 2, CELLS_2D)
            )


class TestExecutorBitIdentity3D:
    def test_generated_t3d(self):
        for workload in generate_workloads(0, 2):
            assert_segmented_matches_baseline(
                compile_cells(workload, 3, CELLS_3D)
            )

    def test_triangular_t3d(self):
        for workload in generate_triangular_workloads(0, 2):
            assert_segmented_matches_baseline(
                compile_cells(workload, 3, CELLS_3D)
            )


class TestSpanTaxonomy:
    def test_segmented_span_counts_phases(self, monkeypatch):
        """One fused kernel launch records ``count = phases``, so stage
        reports keep counting phases after the fusion: the aggregated
        exec.segmented count, and the ``runtime.price.phases`` counter,
        equal the number of phases the per-phase oracle prices."""
        compiled = compile_nest(motivating_example(), m=2, params=PARAMS)
        machine = MeshModel(4, 4)
        prog = compiled.program(machine, PARAMS)
        phases = metrics.counter("runtime.price.phases")
        launches = metrics.counter("runtime.price.launches")
        before = phases.value, launches.value
        prev = set_enabled(True)
        try:
            clear_spans()
            execute(prog, machine, collectives=CM5Model())
            fused = {
                p: e["count"]
                for p, e in span_snapshot().items()
                if p.endswith("exec.segmented")
            }
        finally:
            set_enabled(prev)
            clear_spans()
        priced = []
        one_phase = oracles.pricing.phase_time_arrays

        def counting(*args, **kwargs):
            priced.append(1)
            return one_phase(*args, **kwargs)

        monkeypatch.setattr(oracles.pricing, "phase_time_arrays", counting)
        want = execute_per_phase(prog, machine, CM5Model())
        n_phases = len(priced) + sum(
            s.macro_ops for s in want.per_access.values()
        )
        assert sum(fused.values()) == n_phases > 0
        assert phases.value - before[0] == n_phases
        # one point-to-point launch plus one collectives call
        assert launches.value - before[1] == 2


class TestStoreGolden:
    def test_campaign_store_identical_on_and_off(self, tmp_path):
        """The canonical-json record payload of a small campaign is
        byte-identical with fused pricing and with the per-phase
        oracle."""
        digests = []
        for oracle in (False, True):
            spec = default_spec(seed=0, nests=2, meshes=((2, 2),))
            tasks = spec.expand()
            out = str(tmp_path / f"seg_{int(oracle)}.jsonl")
            clear_compile_cache()
            clear_baseline_cache()
            with per_phase_pricing() if oracle else nullcontext():
                outcome = run_campaign(
                    tasks, out, CampaignConfig(jobs=1), meta={}
                )
            assert outcome.errors == 0 and outcome.timeouts == 0
            _, results = RunStore(out).load()
            payload = canonical_json(
                [results[t.task_id].deterministic_dict() for t in tasks]
            )
            digests.append(hashlib.sha1(payload.encode()).hexdigest())
        assert digests[0] == digests[1]
