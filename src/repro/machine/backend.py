"""NumPy group-by primitives of the pricing kernels.

:func:`unique_rows` is the row group-by of the pricing front end (the
batched group executor :func:`repro.runtime.executor.execute_group`
and the phase partition of :mod:`repro.runtime.mapping`);
:func:`segment_max` is a scatter reduction of the contention kernel
(:func:`repro.machine.contention.phase_times_segmented`), which runs
no group-by of its own.  All float cost arithmetic stays with the
callers, so these helpers only ever see exact int64 keys and values.
"""

from __future__ import annotations

import numpy as np

from ..obs.metrics import counter as _obs_counter

#: ``unique_rows`` calls on integer rows too wide to pack into one
#: int64 key (> 63 bits of column span), sorted by the axis unique
_wide_fallbacks = _obs_counter("machine.unique_rows.fallbacks")


def unique_rows(stacked: np.ndarray, return_inverse: bool = False):
    """``np.unique(stacked, axis=0, return_counts=True)``, faster.  With
    ``return_inverse`` the row -> unique index map rides along (packed
    keys sort exactly like the rows, so the inverse is the same one the
    axis unique would return).

    ``np.unique(..., axis=0)`` compares rows as opaque byte strings,
    which makes its sort the single hottest call of a batched pricing
    run.  Rows here are small ints (cell ids, phase times, mesh
    coordinates), so after shifting each column by its minimum every row packs
    into one int64 key whose scalar order equals the row's
    lexicographic order — a 1-D unique over the keys returns the same
    rows in the same order and the same counts, roughly an order of
    magnitude faster.  Rows that cannot pack (> 63 key bits of
    per-column span) fall back to the axis unique.
    """
    arr = np.asarray(stacked)
    n, ncols = arr.shape
    if n and ncols and np.issubdtype(arr.dtype, np.integer):
        mins = arr.min(axis=0)
        maxs = arr.max(axis=0)
        # per-column spans as exact Python ints: the shifted values are
        # non-negative and the bit-width check can't itself overflow
        spans = [int(hi) - int(lo) for lo, hi in zip(mins, maxs)]
        bits = [max(s.bit_length(), 1) for s in spans]
        if sum(bits) <= 63:
            mins = mins.astype(np.int64)
            shifted = arr - mins
            keys = shifted[:, 0].astype(np.int64)
            for j in range(1, ncols):
                keys = (keys << bits[j]) | shifted[:, j]
            if return_inverse:
                ukeys, inverse, counts = np.unique(
                    keys, return_inverse=True, return_counts=True
                )
            else:
                ukeys, counts = np.unique(keys, return_counts=True)
            cols = []
            for j in range(ncols - 1, 0, -1):
                cols.append(ukeys & ((1 << bits[j]) - 1))
                ukeys = ukeys >> bits[j]
            cols.append(ukeys)
            uniq = np.stack(cols[::-1], axis=1) + mins
            if return_inverse:
                return uniq, counts, np.asarray(inverse).ravel()
            return uniq, counts
        _wide_fallbacks.inc()
    if return_inverse:
        uniq, inverse, counts = np.unique(
            arr, axis=0, return_inverse=True, return_counts=True
        )
        return uniq, counts, np.asarray(inverse).ravel()
    return np.unique(arr, axis=0, return_counts=True)


def segment_max(values: np.ndarray, segment_ids: np.ndarray, n_segments: int):
    """Per-segment maximum of ``values`` grouped by ``segment_ids``
    (dense ``(n_segments,)`` output, ``0`` for empty segments — the
    identity of the hop counts the contention kernel reduces this way,
    which are non-negative)."""
    out = np.zeros(n_segments, dtype=np.asarray(values).dtype)
    np.maximum.at(out, segment_ids, values)
    return out

