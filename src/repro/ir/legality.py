"""Schedule legality checking.

A linear multidimensional schedule is *legal* when every dependence is
respected: if instance ``I2`` of ``S2`` depends on instance ``I1`` of
``S1`` (flow/anti/output), then ``theta_{S1} I1`` must precede
``theta_{S2} I2`` lexicographically (strictly).  The paper takes
schedules as given inputs of the mapping problem; this checker keeps
the library's example schedules honest and guards the executor against
meaningless time bucketing.

The check enumerates dependence witnesses over the *bounded* polyhedral
iteration domains (parameters bound to small values) — exact for the
instance, exponential in principle, and exactly what a test harness
wants.  Two kinds of violation are reported:

* **same-step conflict** — two dependent instances share a time vector
  (they cannot execute simultaneously when one writes);
* **order violation** — the *sink* of a dependence is scheduled
  strictly before its *source*.  The source/sink roles come from the
  original sequential execution order of the nest: instances compare
  lexicographically on their common outer loops, ties broken by
  statement order in the nest (and by full lexicographic order inside
  one statement).

:func:`schedule_violations` is **vectorized** — statement domains
become dense int64 point matrices (the same
:meth:`~repro.ir.domain.Domain.point_matrix` arrays the runtime layer
consumes), schedule times and access subscripts are single matmuls over
whole domains, and subscript collisions are found with one
``np.unique`` label intersection per access pair instead of the
quadratic per-element scan.  Every nest takes this one path, depth-0
statements included.

A pair that :func:`~repro.ir.dependence.test_dependence` disproves is
skipped before any labelling.  The skip is a proof, not a weaker
check: a failed GCD or lattice test, or an infeasible rational
relaxation of the domain system, leaves no integer witness pair on
these bounds (and a lattice of only same-instance solutions leaves
none with distinct instances).  After :func:`~repro.ir.infer_schedules`
walked the same pairs, each verdict is a memo hit.

When the int64 bound of the times or subscripts cannot be proven, the
same matmuls run exactly on object arrays of Python ints: times stay
object arrays (the row comparisons work on them), and each subscript
column is ranked to int64 jointly over all accesses of one array,
which keeps exactly the collisions.  The
per-element reference lives in ``tests/oracles/legality.py``; the tests
and ``benchmarks/bench_legality.py`` assert the two bit-identical
(messages and order included) and gate the speedup floor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import traced
from .access import AccessKind
from .dependence import test_dependence
from .domain import affine_rows, int64_proven
from .schedule import ScheduledNest

def _common_prefix(names1: Sequence[str], names2: Sequence[str]) -> int:
    """Number of leading loops the two statements share (by variable
    name and position) — the loops that interleave their instances in
    the original source."""
    k = 0
    for a, b in zip(names1, names2):
        if a != b:
            break
        k += 1
    return k


def _same_step_message(s1, idx1, s2, idx2, array, cell, t1) -> str:
    return (
        f"{s1}{idx1} and {s2}{idx2} touch "
        f"{array}{cell} at the same time step {t1}"
    )


def _order_message(snk_s, snk_idx, t_snk, src_s, src_idx, t_src, array, cell) -> str:
    return (
        f"{snk_s}{snk_idx} at time {t_snk} is scheduled before its "
        f"source {src_s}{src_idx} at time {t_src} on {array}{cell}"
    )


def _lex_cmp_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise -1/0/1 lexicographic comparison of two equal-shape
    integer matrices (int64 or object)."""
    n = a.shape[0]
    if n == 0 or a.shape[1] == 0:
        return np.zeros(n, dtype=np.int64)
    diff = np.sign(a - b)
    nz = diff != 0
    first = np.argmax(nz, axis=1)
    out = diff[np.arange(n), first]
    out[~nz.any(axis=1)] = 0
    return out


def _pad_cols(t: np.ndarray, width: int) -> np.ndarray:
    if t.shape[1] == width:
        return t
    pad = np.zeros((t.shape[0], width - t.shape[1]), dtype=np.int64)
    return np.concatenate((t, pad), axis=1)


def _rank_columns(blocks: List[np.ndarray]) -> List[np.ndarray]:
    """The subscript matrices of all accesses to one array, each column
    replaced by the rank of its value among that column's values over
    *all* the blocks: int64 matrices whose rows collide exactly where
    the exact rows do (ranking each access alone would not)."""
    stacked = np.concatenate(blocks, axis=0)
    ranked = np.empty(stacked.shape, dtype=np.int64)
    for col in range(stacked.shape[1]):
        inv = np.unique(stacked[:, col], return_inverse=True)[1]
        ranked[:, col] = np.asarray(inv).ravel()
    return np.split(ranked, np.cumsum([b.shape[0] for b in blocks])[:-1])


def _shared_labels(sub1: np.ndarray, sub2: np.ndarray):
    """Label every distinct subscript row of the two accesses; returns
    the labels of ``sub1``'s rows, of ``sub2``'s rows, and the sorted
    labels both touch (a presence test on the labels ``np.unique``
    already returned, which keeps ``np.intersect1d`` and the lazy
    ``numpy.ma`` import it triggers out of the pass)."""
    uniq, inv = np.unique(
        np.concatenate((sub1, sub2), axis=0), axis=0, return_inverse=True
    )
    inv = np.asarray(inv).ravel()
    n1, n = sub1.shape[0], uniq.shape[0]
    l1, l2 = inv[:n1], inv[n1:]
    both = (np.bincount(l1, minlength=n) > 0) & (np.bincount(l2, minlength=n) > 0)
    return l1, l2, np.flatnonzero(both)


#: ``schedule_violations`` calls evaluated on the exact (object-dtype)
#: lane because the int64 bound could not be proven
_exact_lane = obs_metrics.counter("ir.legality.fallbacks")


@traced("legality.violations")
def schedule_violations(
    scheduled: ScheduledNest, params: Dict[str, int], limit: int = 10
) -> List[str]:
    """Concrete dependence violations of a schedule (up to ``limit``).

    Enumerates pairs of accesses to the same array (at least one write)
    whose subscripts collide inside the bounded polyhedral domains and
    whose time stamps do not respect the source-before-sink order of
    the original nest — same-step conflicts *and* order violations
    (sink strictly before source).  Returns human-readable
    descriptions; an empty list means the schedule is legal on these
    bounds.

    Vectorized over dense domain point matrices, on int64 or — when
    the int64 bound is unproven — exactly on Python ints.
    """
    nest = scheduled.nest
    pairs = nest.all_accesses()
    pos = {s.name: p for p, s in enumerate(nest.statements)}
    # a statement without accesses is in no witness pair: it needs no
    # points and no schedule
    active = [s for s in nest.statements if s.accesses]
    points = {s.name: s.domain.point_matrix(params) for s in active}
    thetas = {s.name: scheduled.schedule_of(s.name).theta for s in active}
    proven = all(
        int64_proven(points[name], (theta, None))
        for name, theta in thetas.items()
    ) and all(int64_proven(points[s.name], (a.F, a.c)) for s, a in pairs)
    if not proven:
        _exact_lane.inc()
    dtype = np.int64 if proven else object

    # per-statement time matrices, per-access subscript matrices
    times = {
        name: affine_rows(points[name].astype(dtype, copy=False), theta)
        for name, theta in thetas.items()
    }
    subs = [
        affine_rows(points[s.name].astype(dtype, copy=False), a.F, a.c)
        for s, a in pairs
    ]
    if not proven:
        by_array: Dict[str, List[int]] = {}
        for k, (_, a) in enumerate(pairs):
            by_array.setdefault(a.array, []).append(k)
        for ks in by_array.values():
            for k, ranked in zip(ks, _rank_columns([subs[k] for k in ks])):
                subs[k] = ranked

    out: List[str] = []
    for i, (s1, a1) in enumerate(pairs):
        for j in range(i, len(pairs)):
            s2, a2 = pairs[j]
            if a1.array != a2.array:
                continue
            if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
                continue
            sub1, sub2 = subs[i], subs[j]
            n1, n2 = sub1.shape[0], sub2.shape[0]
            if n1 == 0 or n2 == 0:
                continue
            if test_dependence(s1, a1, s2, a2, params) is None:
                continue  # proven: no witness pair on these bounds
            l1, l2, shared = _shared_labels(sub1, sub2)
            if shared.size == 0:
                continue
            # cross product of the colliding instances per shared label,
            # built without a per-label Python loop: stable argsorts
            # group equal labels contiguously (positions stay ascending
            # inside a group), vectorized searchsorted finds each
            # group's span, and integer div/mod unrolls the products
            o1 = np.argsort(l1, kind="stable")
            o2 = np.argsort(l2, kind="stable")
            sl1, sl2 = l1[o1], l2[o2]
            st1 = np.searchsorted(sl1, shared, side="left")
            st2 = np.searchsorted(sl2, shared, side="left")
            cnt1 = np.searchsorted(sl1, shared, side="right") - st1
            cnt2 = np.searchsorted(sl2, shared, side="right") - st2
            per_label = cnt1 * cnt2
            total = int(per_label.sum())
            if total == 0:
                continue
            lab = np.repeat(np.arange(shared.size), per_label)
            offs = np.concatenate(([0], np.cumsum(per_label)[:-1]))
            q = np.arange(total) - offs[lab]
            r1 = o1[st1[lab] + q // cnt2[lab]]
            r2 = o2[st2[lab] + q % cnt2[lab]]
            if s1 is s2:
                keep = r1 != r2  # same instance is never a witness
                r1, r2 = r1[keep], r2[keep]
            if r1.size == 0:
                continue

            p1_pts, p2_pts = points[s1.name], points[s2.name]
            i1, i2 = p1_pts[r1], p2_pts[r2]
            prefix = _common_prefix(s1.index_names, s2.index_names)
            d = _lex_cmp_rows(i1[:, :prefix], i2[:, :prefix])
            tie = d == 0
            if tie.any():
                if pos[s1.name] != pos[s2.name]:
                    d[tie] = -1 if pos[s1.name] < pos[s2.name] else 1
                else:
                    d[tie] = _lex_cmp_rows(i1[tie], i2[tie])
            if i == j:
                keep = d < 0  # drop the mirrored duplicate witnesses
                r1, r2, i1, i2, d = r1[keep], r2[keep], i1[keep], i2[keep], d[keep]
                if r1.size == 0:
                    continue

            t1_all, t2_all = times[s1.name], times[s2.name]
            width = max(t1_all.shape[1], t2_all.shape[1])
            t1 = _pad_cols(t1_all, width)[r1]
            t2 = _pad_cols(t2_all, width)[r2]
            tc = _lex_cmp_rows(t1, t2)
            bad = (tc == 0) | ((d < 0) == (tc > 0))
            if not bad.any():
                continue
            # report in the reference path's emission order: idx1-major
            order = np.lexsort((r2[bad], r1[bad]))
            b_r1, b_r2 = r1[bad][order], r2[bad][order]
            b_d, b_tc = d[bad][order], tc[bad][order]
            th1 = scheduled.schedule_of(s1.name)
            th2 = scheduled.schedule_of(s2.name)
            for k in range(b_r1.size):
                idx1 = tuple(p1_pts[b_r1[k]].tolist())
                idx2 = tuple(p2_pts[b_r2[k]].tolist())
                cell1 = a1.apply(idx1)
                tt1 = th1.time_of(idx1)
                tt2 = th2.time_of(idx2)
                if b_tc[k] == 0:
                    out.append(
                        _same_step_message(
                            s1.name, idx1, s2.name, idx2,
                            a1.array, cell1, tt1,
                        )
                    )
                else:
                    if b_d[k] < 0:
                        src = (s1.name, idx1, tt1)
                        snk = (s2.name, idx2, tt2)
                    else:
                        src = (s2.name, idx2, tt2)
                        snk = (s1.name, idx1, tt1)
                    out.append(
                        _order_message(
                            snk[0], snk[1], snk[2],
                            src[0], src[1], src[2],
                            a1.array, cell1,
                        )
                    )
                if len(out) >= limit:
                    return out
    return out


def schedule_is_legal(
    scheduled: ScheduledNest, params: Dict[str, int]
) -> bool:
    """True iff no conflicting or misordered dependent pair exists on
    these bounds."""
    return not schedule_violations(scheduled, params, limit=1)
