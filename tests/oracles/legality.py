"""Per-element schedule legality reference.

:func:`repro.ir.schedule_violations` finds witnesses with whole-domain
matmuls and ``np.unique`` label intersections.  This module is what it
must agree with, message strings and order included: one witness pair
at a time, over ``Statement.iteration_domain`` and the accesses' own
``apply``, on Python ints.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir import AccessKind, ScheduledNest
from repro.ir.legality import _common_prefix, _order_message, _same_step_message


def _lex_lt(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Lexicographic a < b with implicit zero-padding."""
    n = max(len(a), len(b))
    ap = tuple(a) + (0,) * (n - len(a))
    bp = tuple(b) + (0,) * (n - len(b))
    return ap < bp


def _lex_cmp(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """-1/0/1 lexicographic comparison with implicit zero-padding."""
    if _lex_lt(a, b):
        return -1
    if _lex_lt(b, a):
        return 1
    return 0


def _original_order(
    idx1: Tuple[int, ...],
    idx2: Tuple[int, ...],
    prefix: int,
    pos1: int,
    pos2: int,
) -> int:
    """-1 when instance 1 executes first in the original nest, +1 when
    instance 2 does, 0 only for the same instance of one statement."""
    a, b = tuple(idx1[:prefix]), tuple(idx2[:prefix])
    if a != b:
        return -1 if a < b else 1
    if pos1 != pos2:
        return -1 if pos1 < pos2 else 1
    if tuple(idx1) != tuple(idx2):
        return -1 if tuple(idx1) < tuple(idx2) else 1
    return 0


def schedule_violations_python(
    scheduled: ScheduledNest, params: Dict[str, int], limit: int = 10
) -> List[str]:
    """Per-element twin of :func:`repro.ir.schedule_violations` — one
    witness pair at a time, exactly the messages (and order) of the
    vectorized path."""
    nest = scheduled.nest
    pos = {s.name: p for p, s in enumerate(nest.statements)}
    out: List[str] = []
    pairs = nest.all_accesses()
    for i, (s1, a1) in enumerate(pairs):
        for j in range(i, len(pairs)):
            s2, a2 = pairs[j]
            if a1.array != a2.array:
                continue
            if a1.kind is AccessKind.READ and a2.kind is AccessKind.READ:
                continue
            th1 = scheduled.schedule_of(s1.name)
            th2 = scheduled.schedule_of(s2.name)
            prefix = _common_prefix(s1.index_names, s2.index_names)
            p1, p2 = pos[s1.name], pos[s2.name]
            for idx1 in s1.iteration_domain(params):
                cell1 = a1.apply(idx1)
                for idx2 in s2.iteration_domain(params):
                    if s1 is s2 and idx1 == idx2:
                        continue
                    if a2.apply(idx2) != cell1:
                        continue
                    d = _original_order(idx1, idx2, prefix, p1, p2)
                    if i == j and d >= 0:
                        # a self-paired access sees each unordered
                        # instance pair twice; keep the source-first one
                        continue
                    t1 = th1.time_of(idx1)
                    t2 = th2.time_of(idx2)
                    tc = _lex_cmp(t1, t2)
                    if tc == 0:
                        out.append(
                            _same_step_message(
                                s1.name, idx1, s2.name, idx2,
                                a1.array, cell1, t1,
                            )
                        )
                    elif (d < 0) == (tc > 0):
                        # the sink is scheduled strictly before the
                        # source: an order violation
                        if d < 0:
                            src = (s1.name, idx1, t1)
                            snk = (s2.name, idx2, t2)
                        else:
                            src = (s2.name, idx2, t2)
                            snk = (s1.name, idx1, t1)
                        out.append(
                            _order_message(
                                snk[0], snk[1], snk[2],
                                src[0], src[1], src[2],
                                a1.array, cell1,
                            )
                        )
                    else:
                        continue
                    if len(out) >= limit:
                        return out
    return out
