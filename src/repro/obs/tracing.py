"""Spans: nested wall-time instrumentation with a disabled fast path.

A *span* names one stage of work::

    from repro.obs import span

    with span("align.step1"):
        ...

Entering a span pushes its name onto a per-thread stack; on exit the
elapsed ``perf_counter`` time is recorded under the span's **path** —
the ``/``-joined stack (``"compile/align.step1"``), so parent/child
nesting survives aggregation.  The aggregate keeps one ``(count,
seconds)`` pair per path, plus the sums of any integer attributes the
span's exits carried; :func:`span_snapshot` exports it as a plain
dict and :func:`merge_spans` folds a worker's exported tree back into
the local aggregate (how multiprocessing campaigns reassemble per-task
traces shipped through ``TaskResult.trace``).

**Disabled is the default and costs almost nothing**: :func:`span`
checks one module-level flag and returns a shared no-op context
manager — no allocation, no clock read, no locking (the overhead gate
in ``benchmarks/bench_trace_overhead.py`` pins this).  Enable with
:func:`enable` or ``campaign run --trace``.

Thread safety: the span stack is thread-local; the aggregate and the
capture list are guarded by one lock taken only on span *exit* (and
only while tracing is enabled).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Dict, Iterator, List, Optional

#: path separator between nested span names
SEP = "/"

_enabled: bool = False

_lock = threading.Lock()
#: path -> [count, total seconds(, {attribute: sum})]
_aggregate: Dict[str, List] = {}
#: live capture buffers (same layout as the aggregate)
_captures: List[Dict[str, List]] = []


class _Local(threading.local):
    def __init__(self):
        self.stack: List[str] = []


_local = _Local()


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "count", "attrs", "_t0")

    def __init__(self, name: str, count: int = 1, attrs=None):
        self.name = name
        self.count = count
        self.attrs = attrs

    def __enter__(self):
        _local.stack.append(self.name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        stack = _local.stack
        path = SEP.join(stack)
        stack.pop()
        with _lock:
            for buf in _captures:
                _add(buf, path, self.count, dt, self.attrs)
            _add(_aggregate, path, self.count, dt, self.attrs)
        return False


def _add(buf, path: str, count: int, seconds: float, attrs) -> None:
    """Add one exit (or one merged entry) to ``buf[path]``, a ``[count,
    seconds]`` list that grows a third item, the attribute sums, once
    an exit carries attributes."""
    entry = buf.get(path)
    if entry is None:
        entry = buf[path] = [0, 0.0]
    entry[0] += count
    entry[1] += seconds
    if attrs:
        if len(entry) == 2:
            entry.append({})
        sums = entry[2]
        for key, value in attrs.items():
            sums[key] = sums.get(key, 0) + value


def span(name: str, count: int = 1, **attrs: int):
    """A context manager timing one named stage (no-op when tracing is
    disabled — the check is one module-flag read).

    ``count`` is what the span's exit adds to its path's call counter
    (default 1).  Fused spans use it to keep logical-unit accounting:
    one ``exec.segmented`` kernel call pricing 37 phases records
    ``count=37``, so stage reports count *phases*, not kernel
    launches.  Keyword ``attrs`` are integer attributes summed per
    path next to ``count`` and ``seconds`` (the campaign's ``price``
    span records ``cells`` and ``baseline_cells``); their names must
    not be ``count`` or ``seconds``."""
    if not _enabled:
        return _NOOP
    return _Span(name, count, attrs)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`span`; the span name defaults to the
    function's ``__name__``.  Enablement is checked per call, so a
    decorated function pays only the flag read while tracing is off."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__name__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with _Span(span_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# enablement
# ---------------------------------------------------------------------------


def set_enabled(on: bool) -> bool:
    """Set the tracing flag; returns the previous value (so callers can
    restore it — the campaign runner enables tracing for the duration
    of a ``--trace`` run only)."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    return prev


def enable() -> None:
    set_enabled(True)


def disable() -> None:
    set_enabled(False)


def is_enabled() -> bool:
    return _enabled


# ---------------------------------------------------------------------------
# aggregation / export
# ---------------------------------------------------------------------------


def _freeze(buf: Dict[str, List]) -> Dict[str, Dict[str, float]]:
    return {
        path: {
            "count": int(entry[0]),
            "seconds": entry[1],
            **(entry[2] if len(entry) > 2 else {}),
        }
        for path, entry in sorted(buf.items())
    }


@contextmanager
def capture() -> Iterator[Dict[str, List]]:
    """Collect every span recorded while the context is active into a
    dedicated buffer (in addition to the global aggregate).  Used by
    the campaign runner to attribute spans to one task; freeze the
    yielded buffer with :func:`freeze_capture` after exit."""
    buf: Dict[str, List] = {}
    with _lock:
        _captures.append(buf)
    try:
        yield buf
    finally:
        with _lock:
            _captures.remove(buf)


def freeze_capture(buf: Dict[str, List]) -> Dict[str, Dict[str, float]]:
    """A :func:`capture` buffer as the exported snapshot layout
    (``{path: {"count": n, "seconds": s}}``)."""
    return _freeze(buf)


def span_snapshot() -> Dict[str, Dict[str, float]]:
    """The process-wide span aggregate: ``{path: {"count", "seconds"}}``,
    sorted by path (parents sort before their children)."""
    with _lock:
        return _freeze(_aggregate)


def merge_spans(tree: Optional[Dict]) -> None:
    """Fold an exported span tree (snapshot layout, or the raw
    ``[count, seconds]`` capture layout) into the local aggregate —
    how per-task traces shipped back from worker processes land in the
    campaign-level totals."""
    if not tree:
        return
    with _lock:
        for path, val in tree.items():
            if isinstance(val, dict):
                c, s = int(val.get("count", 0)), float(val.get("seconds", 0.0))
                attrs = {
                    k: v for k, v in val.items() if k not in ("count", "seconds")
                }
            else:
                c, s = int(val[0]), float(val[1])
                attrs = val[2] if len(val) > 2 else None
            _add(_aggregate, path, c, s, attrs)


def clear_spans() -> None:
    """Reset the process-wide aggregate (tests, fresh campaign runs)."""
    with _lock:
        _aggregate.clear()
