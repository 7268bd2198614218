"""Per-element events read back from the vectorized batches.

``MappedProgram.comm_batches`` holds one int64 row per element
communication.  :func:`comm_events` turns those rows into the
``CommEvent`` list that ``MappedProgram.comm_events_python`` builds
directly, for tests that inspect single events or compare the two
extractions.
"""

from __future__ import annotations

from typing import List

from repro.runtime import CommEvent, MappedProgram


def comm_events(program: MappedProgram) -> List[CommEvent]:
    """The events of ``program.comm_batches()`` in batch order (the
    order of ``comm_events_python``), memoized on the program until its
    alignment mutates."""
    gen = program.mapping.alignment.mutation_count
    cached = program.__dict__.get("_comm_events")
    if cached is not None and cached[0] == gen:
        return cached[1]
    out: List[CommEvent] = []
    for b in program.comm_batches():
        rows = zip(
            b.times.tolist(),
            b.sender_virtual.tolist(),
            b.receiver_virtual.tolist(),
            b.sender.tolist(),
            b.receiver.tolist(),
        )
        out.extend(
            CommEvent(
                access_label=b.access_label,
                time=tuple(t),
                sender_virtual=tuple(sv),
                receiver_virtual=tuple(rv),
                sender=tuple(sp),
                receiver=tuple(rp),
            )
            for t, sv, rv, sp, rp in rows
        )
    program.__dict__["_comm_events"] = (gen, out)
    return out
