"""Per-layer timing for the traced run, from outside the program.

:class:`Tracer` wraps the public entry point of each layer under the
name the campaign runner looks it up by, and records per pass, for
every layer, the number of calls and the self time (the span minus the
spans of wrapped layers it called).  It never turns on ``repro.obs``
tracing: with tracing on, the runner prices groups cell by cell, so the
traced run would measure another program.
"""

import importlib
import time

import calib

#: (layer, module, attribute) — the names the pipeline calls through.
#: Several entries may feed one layer.
TARGETS = (
    ("ir.parse", "repro.campaign.workloads", "parse_nest"),
    ("ir.parse", "repro.driver", "parse_nest"),
    ("ir.schedule", "repro.driver", "infer_schedules"),
    ("ir.legality", "repro.driver", "schedule_is_legal"),
    ("alignment.step1", "repro.alignment.heuristic", "align"),
    ("alignment.step2", "repro.alignment.heuristic", "optimize_residuals"),
    ("codegen", "repro.codegen", "generate_spmd"),
    ("baselines", "repro.baselines", "feautrier_align"),
    ("baselines", "repro.alignment", "optimize_residuals"),
    ("campaign.compile", "repro.driver", "compile_nest"),
    ("runtime.extract", "repro.runtime.mapping", "MappedProgram.comm_batches"),
    ("runtime.price", "repro.runtime", "execute_group"),
    ("runtime.price", "repro.runtime", "execute"),
    ("campaign.store", "repro.campaign.store", "RunStore.append"),
    ("campaign.runner", "repro.campaign", "run_campaign"),
)

TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: counter families of ``repro.obs.snapshot()`` read around each pass
_COUNTER_PREFIXES = {
    "dependence": "ir.dependence.cache.",
    "linalg": "linalg.cache.",
}


def _resolve(module: str, attr: str):
    """``(owner, name, value)`` of a dotted attribute, or a RuntimeError
    naming the entry point that is missing."""
    try:
        owner = importlib.import_module(module)
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    except (ImportError, AttributeError) as exc:
        raise RuntimeError(
            f"traced run: entry point {module}.{attr} not found ({exc})"
        ) from None


def _counter_totals():
    from repro import obs

    snap = obs.snapshot()
    out = {}
    for family, prefix in _COUNTER_PREFIXES.items():
        for kind in ("hits", "misses"):
            out[f"{family}_{kind}"] = sum(
                v for k, v in snap.items()
                if k.startswith(prefix) and k.endswith("." + kind)
                and isinstance(v, int)
            )
    routes = snap.get("machine.routecache", {})
    for kind in ("hits", "misses"):
        out[f"routes_{kind}"] = {m: s[kind] for m, s in routes.items()}
    return out


class Tracer:
    """Wraps the layer entry points of :data:`TARGETS` in this process."""

    def __init__(self):
        self._saved = []
        self._stack = []
        self._entries = [f"{module}.{attr}" for _, module, attr in TARGETS]
        self._reset()

    def _reset(self):
        self.calls = dict.fromkeys(TIMED_LAYERS + ("host",), 0)
        self.self_s = dict.fromkeys(TIMED_LAYERS + ("host",), 0.0)
        self.total_s = dict.fromkeys(TIMED_LAYERS + ("host",), 0.0)
        self.entry_calls = dict.fromkeys(self._entries, 0)
        self.price_cells = 0
        self.events = 0

    def _timed(self, layer, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            children = stack.pop()
            if stack:
                stack[-1] += dt
            self.calls[layer] += 1
            self.self_s[layer] += dt - children
            self.total_s[layer] += dt

    def _wrapper(self, layer, module, attr, fn):
        entry = f"{module}.{attr}"
        tracer = self

        if attr == "MappedProgram.comm_batches":
            def wrapped(*args, **kwargs):
                tracer.entry_calls[entry] += 1
                batches = tracer._timed(layer, fn, *args, **kwargs)
                tracer.events += sum(b.n for b in batches)
                return batches
        elif attr == "execute_group":
            def wrapped(cells, *args, **kwargs):
                tracer.entry_calls[entry] += 1
                tracer.price_cells += len(cells)
                return tracer._timed(layer, fn, cells, *args, **kwargs)
        elif attr == "execute":
            def wrapped(*args, **kwargs):
                tracer.entry_calls[entry] += 1
                tracer.price_cells += 1
                return tracer._timed(layer, fn, *args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                tracer.entry_calls[entry] += 1
                return tracer._timed(layer, fn, *args, **kwargs)
        return wrapped

    def install(self):
        found = [(t, _resolve(t[1], t[2])) for t in TARGETS]
        for (layer, module, attr), (owner, name, fn) in found:
            setattr(owner, name, self._wrapper(layer, module, attr, fn))
            self._saved.append((owner, name, fn))

    def uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def timed_calibration(self) -> float:
        """:func:`calib.measure` as the pseudo-layer ``host``, so that
        calibration inside a pass is not counted as runner time."""
        return self._timed("host", calib.measure)

    def begin_pass(self):
        self._reset()
        self._counters = _counter_totals()

    def end_pass(self):
        after = _counter_totals()
        before = self._counters
        counters = {}
        for key, value in after.items():
            if isinstance(value, dict):
                counters[key] = sum(
                    v - before[key].get(m, 0) for m, v in value.items()
                )
            else:
                counters[key] = value - before[key]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "entry_calls": dict(self.entry_calls),
            "price_cells": self.price_cells,
            "events": self.events,
            "counters": counters,
        }
