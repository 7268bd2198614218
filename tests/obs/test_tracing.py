"""Span semantics: nesting/parenting paths, the disabled no-op fast
path, per-task capture buffers and cross-process merge."""

import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    capture,
    clear_spans,
    freeze_capture,
    merge_spans,
    set_enabled,
    span,
    span_snapshot,
    traced,
)


@pytest.fixture(autouse=True)
def _clean_tracing():
    prev = set_enabled(False)
    clear_spans()
    yield
    set_enabled(prev)
    clear_spans()


class TestDisabled:
    def test_span_is_shared_noop(self):
        # one flag read, no allocation: the same singleton every call
        assert span("a") is span("b")

    def test_disabled_spans_record_nothing(self):
        with span("outer"):
            with span("inner"):
                pass
        assert span_snapshot() == {}

    def test_traced_decorator_passthrough(self):
        calls = []

        @traced("t")
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(3) == 6
        assert calls == [3]
        assert span_snapshot() == {}


class TestNesting:
    def test_paths_encode_parentage(self):
        set_enabled(True)
        with span("compile"):
            with span("align"):
                with span("step1"):
                    pass
            with span("align"):
                pass
        snap = span_snapshot()
        assert set(snap) == {"compile", "compile/align", "compile/align/step1"}
        assert snap["compile"]["count"] == 1
        assert snap["compile/align"]["count"] == 2
        assert snap["compile/align/step1"]["count"] == 1

    def test_parent_time_covers_child(self):
        set_enabled(True)
        with span("p"):
            with span("c"):
                pass
        snap = span_snapshot()
        assert snap["p"]["seconds"] >= snap["p/c"]["seconds"]

    def test_exception_still_records(self):
        set_enabled(True)
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        assert span_snapshot()["boom"]["count"] == 1

    def test_traced_decorator_nests(self):
        set_enabled(True)

        @traced("inner")
        def fn():
            return 1

        with span("outer"):
            fn()
        assert "outer/inner" in span_snapshot()

    def test_thread_local_stacks(self):
        set_enabled(True)
        done = threading.Event()

        def other():
            with span("t2"):
                pass
            done.set()

        with span("t1"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        snap = span_snapshot()
        # the second thread's span is NOT nested under the first's
        assert "t2" in snap and "t1/t2" not in snap


class TestCapture:
    def test_capture_isolates_and_freezes(self):
        set_enabled(True)
        with span("before"):
            pass
        with capture() as buf:
            with span("during"):
                pass
        frozen = freeze_capture(buf)
        assert set(frozen) == {"during"}
        assert frozen["during"]["count"] == 1
        assert frozen["during"]["seconds"] >= 0
        # the global aggregate saw both
        assert set(span_snapshot()) == {"before", "during"}

    def test_capture_after_exit_stops_recording(self):
        set_enabled(True)
        with capture() as buf:
            pass
        with span("later"):
            pass
        assert freeze_capture(buf) == {}

    def test_merge_spans_both_layouts(self):
        merge_spans({"a": {"count": 2, "seconds": 1.5}})
        merge_spans({"a": [1, 0.5], "b": [3, 0.25]})
        merge_spans(None)
        merge_spans({})
        snap = span_snapshot()
        assert snap["a"] == {"count": 3, "seconds": 2.0}
        assert snap["b"] == {"count": 3, "seconds": 0.25}


class TestEnablement:
    def test_set_enabled_returns_previous(self):
        assert set_enabled(True) is False
        assert set_enabled(False) is True
        assert tracing.is_enabled() is False
