"""Shared helpers for the benchmark harness.

Every paper ``bench_*.py`` file regenerates one table or figure of the
paper: it computes the same rows/series the paper reports, prints them
(run with ``-s`` to see the output) and asserts the *shape* claims (who
wins, orderings, rough factors).  The subsystem files gate on
deterministic counts and bit-identity; timing claims belong to
``perfbench/``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Iterable, Mapping, Sequence


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Format and print an ASCII table; returns the text."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(headers[i])), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
    text = "\n".join(lines)
    print("\n" + text)
    return text


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.2f}"
    return str(x)


def series(label: str, xs: Sequence, ys: Sequence[float]) -> None:
    """Print one figure series as x/y pairs."""
    pairs = "  ".join(f"({x}, {y:.2f})" for x, y in zip(xs, ys))
    print(f"  {label}: {pairs}")


def best_of(fn, repeats: int = 3) -> float:
    """Smallest wall time of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def check_speedup_floor(measured: float, target: float, what: str) -> None:
    """Fail unless an in-run twin-vs-vectorized speedup reaches its
    floor.  A floor is kept only while the ratio clears it by at least
    2x on every run, so it is enforced on every run."""
    assert measured >= target, (
        f"{what} speedup {measured:.1f}x below the {target}x floor"
    )


def record_bench(name: str, stats: Mapping, section: str = "") -> str:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    The file lands next to the ``bench_*.py`` sources, so a re-record
    shows up in the diff (see PERFORMANCE.md for the schema
    conventions: wall times in seconds, sizes as plain counts, cache
    stats as the ``stats()`` dicts of the caches involved).  A
    ``python``/``platform`` stamp is added so recorded numbers can be
    interpreted later.  Returns the path written.

    ``section`` lets several bench files share one artifact: the stats
    land under that key and the other top-level sections of an existing
    file are preserved (``BENCH_campaign.json`` holds the 2-D and the
    3-D campaign gates side by side this way).  Without ``section`` the
    file is replaced wholesale.
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), f"BENCH_{name}.json")
    if section:
        payload = {}
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    prior = json.load(fh)
                if isinstance(prior, dict):
                    payload = prior
            except ValueError:
                pass  # corrupt artifact: rebuild from this section
        payload[section] = dict(stats)
    else:
        payload = dict(stats)
    payload["environment"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"\n  [record_bench] wrote {path}")
    return path


def count_pricing_calls(monkeypatch, log_path: str):
    """Wrap ``repro.runtime.execute`` / ``execute_group`` so that every
    call — in fork-started worker processes too — appends a line to
    ``log_path``.  Returns a reader giving ``(execute calls, [cells per
    execute_group call])``: how a campaign priced its groups."""
    import repro.runtime as runtime

    with open(log_path, "w"):
        pass
    execute, execute_group = runtime.execute, runtime.execute_group

    def note(line: str) -> None:
        with open(log_path, "a") as fh:
            fh.write(line + "\n")

    def counted_execute(*args, **kwargs):
        note("execute")
        return execute(*args, **kwargs)

    def counted_execute_group(cells, *args, **kwargs):
        note(f"group {len(cells)}")
        return execute_group(cells, *args, **kwargs)

    monkeypatch.setattr(runtime, "execute", counted_execute)
    monkeypatch.setattr(runtime, "execute_group", counted_execute_group)

    def read():
        with open(log_path) as fh:
            lines = fh.read().split()
        groups = [int(n) for k, n in zip(lines, lines[1:]) if k == "group"]
        return lines.count("execute"), groups

    return read
