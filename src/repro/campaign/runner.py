"""Parallel campaign execution with JSONL checkpoint/resume.

:func:`run_task_group` is the one execution path: it compiles and
prices any subset of one compile-key group — the two-step heuristic
*and* the greedy Feautrier baseline on the same machine models, so
every record carries its heuristic-vs-baseline ratio.
:func:`run_campaign` drives a task list through a pluggable execution
backend (see :mod:`repro.campaign.executors`: ``inline``, ``pool``,
``resilient``), all of which call :func:`run_task_group` per group;
each batch of results a backend yields (one compile-key group, on the
inline backend) goes to the :class:`~repro.campaign.store.RunStore`
with one write as it lands; killing the process at any point loses at
most the in-flight groups, and re-running with ``resume=True`` executes exactly the tasks
whose results are not on disk yet.

Failures are **typed**: every non-ok record carries an ``error_kind``
from the taxonomy in :data:`repro.campaign.store.ERROR_KINDS` —
``compile``/``price`` for deterministic stage failures, ``timeout``
for wall-clock caps and supervisor-detected hangs, ``crash`` for
worker death (the ``pool``/``resilient`` backends convert a SIGKILLed
worker into ``status="crashed"`` records instead of hanging the
campaign), ``oom`` for in-process memory exhaustion and ``fault`` for
injected transient failures.  Transient kinds are retried with capped
exponential backoff when ``CampaignConfig.retries`` is set; the
attempt count lands in ``TaskResult.attempts``.

**Compile once, price many**: the heuristic and the Feautrier baseline
depend only on ``(workload, m, heuristic knobs)`` — not on the machine
or the mesh — so the runner groups the grid by
:attr:`~repro.campaign.sweep.SweepTask.compile_key` (see
:func:`~repro.campaign.sweep.group_by_compile_key`) and a group
compiles its nest once, then prices all its machine x mesh cells —
the heuristic's and the baseline-memo misses' together — in one
:func:`repro.runtime.execute_group` call.  Compiles are also cached
per worker process in an LRU (:data:`COMPILE_CACHE_SIZE` entries), with
an optional **persistent disk tier** underneath
(``REPRO_CAMPAIGN_COMPILE_DIR``, see :class:`repro._config.Settings`)
that shares compiled workloads across workers *and* runs — atomic
pickles keyed by ``compile_key`` plus a code-version fingerprint, where
stale, corrupt or truncated entries are misses, never errors.  Stored records are byte-identical whatever
the caches hold (asserted in ``tests/campaign/test_compile_cache.py``);
cache hits are reported in memory only
(``TaskResult.compile_cache_hit``,
``CampaignOutcome.compile_cache_hits``).

Per-task failures never abort the campaign: exceptions become
``status="error"`` records, and a per-task wall-clock ``timeout``
(SIGALRM-based, skipped on platforms without it) becomes
``status="timeout"``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import tempfile
import time
import traceback
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .._config import Settings
from ..obs import (
    TraceWriter,
    capture,
    freeze_capture,
    merge_spans,
    span,
    span_snapshot,
)
from ..obs import metrics as obs_metrics
from ..obs import tracing as obs_tracing
from . import faults
from .store import RunStore, TaskResult
from .sweep import (
    SweepTask,
    canonical_json,
    group_by_compile_key,
    order_groups_for_dispatch,
)


class CampaignSpecMismatch(RuntimeError):
    """Resuming with a grid that does not match the checkpoint's."""


class _TaskTimeout(Exception):
    pass


class _StageFailure(Exception):
    """Wraps a task exception with the pipeline stage it escaped from
    (the ``compile``/``price`` halves of the error taxonomy)."""

    def __init__(self, kind: str, exc: BaseException):
        super().__init__(str(exc))
        self.kind = kind
        self.exc = exc


def _alarm_handler(signum, frame):
    raise _TaskTimeout()


# ---------------------------------------------------------------------------
# compile stage — per-worker LRU over (workload, m, knobs)
# ---------------------------------------------------------------------------


@dataclass
class _CompiledWorkload:
    """Everything the price stage needs, machine/mesh independent."""

    compiled: object  # driver.CompiledNest
    baseline: object  # alignment.MappingResult (Feautrier, frozen)
    params: Dict[str, int]


#: entries of the per-process compile LRU (tests patch it to 0 to
#: switch the LRU off; records are byte-identical either way)
COMPILE_CACHE_SIZE = 32

#: per-process cache; fork workers start with the parent's (usually
#: empty) copy and populate their own
_compile_cache: "OrderedDict[str, _CompiledWorkload]" = OrderedDict()
#: hit/miss counts live in the obs metrics registry so one
#: ``obs.snapshot()`` covers this cache next to the linalg/route caches
_compile_hits = obs_metrics.counter("campaign.compile_cache.hits")
_compile_misses = obs_metrics.counter("campaign.compile_cache.misses")


def compile_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of *this* process's compile cache (both the
    in-memory LRU and the persistent disk tier)."""
    return {
        "hits": _compile_hits.value,
        "misses": _compile_misses.value,
        "size": len(_compile_cache),
        "maxsize": COMPILE_CACHE_SIZE,
        "disk_hits": _disk_hits.value,
        "disk_misses": _disk_misses.value,
        "disk_writes": _disk_writes.value,
        "dir": _compile_cache_dir,
    }


def clear_compile_cache() -> None:
    _compile_cache.clear()
    _compile_hits.reset()
    _compile_misses.reset()
    _disk_hits.reset()
    _disk_misses.reset()
    _disk_writes.reset()


obs_metrics.register_provider("campaign.compile_cache", compile_cache_stats)


# ---------------------------------------------------------------------------
# compile stage, disk tier — persistent pickles shared across runs
# ---------------------------------------------------------------------------
#
# The in-memory LRU dies with the process, so every cold campaign, CI
# run and future ``repro serve`` start re-pays the full compile of every
# nest.  ``REPRO_CAMPAIGN_COMPILE_DIR`` (``Settings.compile_dir``) names
# a directory of pickled ``_CompiledWorkload`` entries keyed by
# ``compile_key`` *and* a fingerprint of the compile pipeline's source,
# so entries written by older code simply miss by filename.  Writes are
# atomic (temp file in the target directory + os.replace), which makes
# the directory safe to share between concurrent workers and runs: a
# reader sees either a complete entry or none.  Stale, corrupt or
# truncated entries are misses, never errors — the cache can only make
# a run faster, not break it.  Stored task records are byte-identical
# with the tier on or off (asserted in
# ``tests/campaign/test_compile_disk_cache.py``): the pickle carries the
# same frozen compile outputs a fresh compile produces.

#: the disk-tier directory of the running campaign, installed per
#: process by :func:`apply_settings`
_compile_cache_dir: Optional[str] = None
_disk_hits = obs_metrics.counter("campaign.compile_cache.disk_hits")
_disk_misses = obs_metrics.counter("campaign.compile_cache.disk_misses")
_disk_writes = obs_metrics.counter("campaign.compile_cache.disk_writes")

_code_fingerprint_cache: Optional[str] = None

#: packages whose source feeds the disk-cache fingerprint — everything
#: the compile stage's outputs depend on
_FINGERPRINT_PACKAGES = (
    "ir",
    "linalg",
    "alignment",
    "baselines",
    "codegen",
    "macrocomm",
)


def code_fingerprint() -> str:
    """Version tag of the compile pipeline: a digest over the source
    bytes of :mod:`repro.driver` and every compile-relevant package.
    Baked into disk-cache filenames so any code change invalidates old
    entries by construction (they miss by name, no load needed)."""
    global _code_fingerprint_cache
    if _code_fingerprint_cache is None:
        root = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(root)  # .../repro
        digest = hashlib.sha1()
        rels = ["driver.py"]
        for pkg in _FINGERPRINT_PACKAGES:
            pkg_dir = os.path.join(root, pkg)
            try:
                names = sorted(os.listdir(pkg_dir))
            except OSError:
                continue
            rels.extend(
                os.path.join(pkg, n) for n in names if n.endswith(".py")
            )
        for rel in rels:
            digest.update(rel.encode("utf-8"))
            try:
                with open(os.path.join(root, rel), "rb") as fh:
                    digest.update(fh.read())
            except OSError:
                continue
        _code_fingerprint_cache = digest.hexdigest()[:12]
    return _code_fingerprint_cache


def apply_settings(
    settings: Settings, allow_kill: bool = False, allow_hang: bool = False
) -> None:
    """Install one campaign's :class:`~repro._config.Settings` in this
    process: the disk-tier directory and the fault plan (armed with the
    backend's kill/hang capabilities, see :mod:`repro.campaign.faults`).
    ``apply_settings(Settings())`` restores the defaults."""
    global _compile_cache_dir
    _compile_cache_dir = settings.compile_dir
    faults.activate(
        settings.fault_spec, allow_kill=allow_kill, allow_hang=allow_hang
    )


def _disk_path(key: str) -> str:
    return os.path.join(
        _compile_cache_dir, f"{key}-{code_fingerprint()}.pkl"
    )


def _disk_load(key: str) -> Optional[_CompiledWorkload]:
    """Read one persistent entry; any failure whatsoever (missing,
    truncated, corrupt, wrong payload shape, foreign pickle) is a miss."""
    try:
        with open(_disk_path(key), "rb") as fh:
            payload = pickle.load(fh)
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or payload.get("version") != code_fingerprint()
        ):
            return None
        cw = payload.get("compiled")
        return cw if isinstance(cw, _CompiledWorkload) else None
    except Exception:
        return None


def _disk_store(key: str, cw: _CompiledWorkload) -> None:
    """Atomically persist one compiled workload (temp file + rename in
    the cache directory, so concurrent writers race benignly: last
    complete write wins and readers never see a partial file).  Failure
    to cache is never an error."""
    try:
        os.makedirs(_compile_cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=_compile_cache_dir, prefix=f".{key}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(
                    {
                        "key": key,
                        "version": code_fingerprint(),
                        "compiled": cw,
                    },
                    fh,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, _disk_path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception:
        return
    _disk_writes.inc()


def _compile_cache_put(key: str, cw: _CompiledWorkload) -> None:
    if COMPILE_CACHE_SIZE > 0:
        _compile_cache[key] = cw
        while len(_compile_cache) > COMPILE_CACHE_SIZE:
            _compile_cache.popitem(last=False)


def _compile_for_task(task: SweepTask) -> Tuple[_CompiledWorkload, bool]:
    """The compile stage: two-step heuristic + Feautrier baseline for
    the task's ``(workload, m, rank_weights)``, LRU-cached per worker
    with an optional persistent disk tier underneath.
    Returns ``(compiled, cache_hit)``."""
    key = task.compile_key
    if COMPILE_CACHE_SIZE > 0:
        cached = _compile_cache.get(key)
        if cached is not None:
            _compile_cache.move_to_end(key)
            _compile_hits.inc()
            return cached, True
    _compile_misses.inc()
    if _compile_cache_dir is not None:
        cw = _disk_load(key)
        if cw is not None:
            _disk_hits.inc()
            _compile_cache_put(key, cw)
            return cw, True
        _disk_misses.inc()

    from ..alignment import optimize_residuals
    from ..baselines import feautrier_align
    from ..driver import compile_nest

    with span("compile"):
        wl = task.workload
        nest = wl.resolve()
        schedules = wl.resolve_schedules(nest)
        params = dict(wl.params)
        compiled = compile_nest(
            nest,
            m=task.m,
            schedules=schedules,
            params=params,
            check_legality=wl.check_legality,
            name=wl.name,
            use_rank_weights=task.rank_weights,
        )
        with span("baseline"):
            baseline = optimize_residuals(
                feautrier_align(nest, task.m),
                compiled.schedules,
                allow_rotations=False,
            )
    cw = _CompiledWorkload(compiled=compiled, baseline=baseline, params=params)
    _compile_cache_put(key, cw)
    if _compile_cache_dir is not None:
        _disk_store(key, cw)
    return cw, False


# ---------------------------------------------------------------------------
# baseline price memo — per-worker LRU over (workload, m, machine, mesh)
# ---------------------------------------------------------------------------
#
# The Feautrier baseline mapping depends only on (workload, m) and the
# folding only on the mesh — the heuristic's rank-weights knob never
# enters — so its price is one float per (workload, m, machine, mesh)
# cell.  A grid that sweeps rank_weights (or any future heuristic knob)
# re-prices the identical baseline once per knob value; this LRU
# collapses those to one execute() per cell and per worker process.

#: entries of the per-process baseline price memo (tests patch it to
#: 0 to switch the memo off; records are byte-identical either way)
BASELINE_CACHE_SIZE = 512

_baseline_cache: "OrderedDict[Tuple, float]" = OrderedDict()
_baseline_hits = obs_metrics.counter("campaign.baseline_cache.hits")
_baseline_misses = obs_metrics.counter("campaign.baseline_cache.misses")


def baseline_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of *this* process's baseline price cache."""
    return {
        "hits": _baseline_hits.value,
        "misses": _baseline_misses.value,
        "size": len(_baseline_cache),
        "maxsize": BASELINE_CACHE_SIZE,
    }


def clear_baseline_cache() -> None:
    _baseline_cache.clear()
    _baseline_hits.reset()
    _baseline_misses.reset()


obs_metrics.register_provider("campaign.baseline_cache", baseline_cache_stats)


def _baseline_price_keys(live: Sequence[SweepTask]) -> List[Tuple]:
    """Memo keys of everything each cell's baseline *price* depends on:
    the cell minus the heuristic knobs (``rank_weights`` deliberately
    absent — the baseline mapping and the folding never see it).  The
    cells of one compile-key group share the workload, so its digest is
    encoded once per group."""
    workload = hashlib.sha1(
        canonical_json(live[0].workload.to_dict()).encode()
    ).hexdigest()
    return [(workload, t.m, t.machine, tuple(t.mesh)) for t in live]


def _baseline_lookup(key: Tuple) -> Tuple[Optional[float], bool]:
    """``(price, hit)`` — a disabled cache always misses (mirroring the
    compile LRU's counter semantics)."""
    if BASELINE_CACHE_SIZE > 0:
        cached = _baseline_cache.get(key)
        if cached is not None:
            _baseline_cache.move_to_end(key)
            _baseline_hits.inc()
            return cached, True
    _baseline_misses.inc()
    return None, False


def _baseline_store(key: Tuple, price: float) -> None:
    if BASELINE_CACHE_SIZE > 0:
        _baseline_cache[key] = price
        while len(_baseline_cache) > BASELINE_CACHE_SIZE:
            _baseline_cache.popitem(last=False)


# ---------------------------------------------------------------------------
# the group path — the one execution path of every backend
# ---------------------------------------------------------------------------
#
# A compile-key group (the machine x mesh cells of one compiled nest) is
# the unit of execution: inline, pool and resilient backends all hand
# any subset of one group to run_task_group, which decides each task's
# injected fault alone, compiles the survivors' nest once and prices
# all their cells in one pass.  A group deadline or a price error
# re-runs the tasks as one-task groups, so per-task records stay exact.

#: multi-cell groups whose pricing raised and was re-run cell by cell
#: (plus one ``.<ExceptionType>`` counter per cause)
_group_splits = obs_metrics.counter("campaign.price.group_splits")
#: multi-cell groups that hit their group deadline and were re-run
#: cell by cell under the per-task timeout
_group_timeouts = obs_metrics.counter("campaign.price.group_timeouts")

#: task exceptions that become typed failure records
_TYPED_FAILURES = (
    _TaskTimeout,
    faults.InjectedFault,
    MemoryError,
    _StageFailure,
)

#: ``on_attempt(tasks, deadline)`` — called before each unit of work
#: (one task's fault check, one group's pricing) with its wall-clock
#: budget in seconds (``None`` = uncapped)
AttemptHook = Callable[[Sequence[SweepTask], Optional[float]], None]


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Arm SIGALRM for ``seconds`` (no-op for ``None`` or without
    SIGALRM).  The alarm is disarmed in an inner ``finally``, so one
    that fires between the body's end and the disarm still raises
    :class:`_TaskTimeout` inside the caller's ``try``."""
    if seconds is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, old_handler)


def _typed_failure(
    task: SweepTask, exc: BaseException, timeout: Optional[float]
) -> TaskResult:
    """The typed record of a task that raised ``exc`` (call it inside
    the ``except`` block: stage failures quote the traceback tail)."""
    if isinstance(exc, _TaskTimeout):
        return _failure_result(
            task, "timeout", f"task exceeded {timeout}s", kind="timeout"
        )
    if isinstance(exc, faults.InjectedFault):
        return _failure_result(task, "error", str(exc), kind="fault")
    if isinstance(exc, MemoryError):
        return _failure_result(
            task, "error", f"MemoryError: {exc}", kind="oom"
        )
    cause = exc.exc
    tail = traceback.format_exc().strip().splitlines()[-3:]
    return _failure_result(
        task,
        "error",
        f"{type(cause).__name__}: {cause} | " + " / ".join(tail),
        kind=exc.kind,
    )


def run_task_group(
    group: Sequence[SweepTask],
    timeout: Optional[float] = None,
    attempts: Optional[Dict[str, int]] = None,
    on_attempt: Optional[AttemptHook] = None,
) -> List[TaskResult]:
    """Run any subset of one compile-key group; returns one typed
    record per task, in group order.

    * **Faults**: each task's injected fault is decided first, alone
      and under its own ``timeout``; faulted tasks drop out as typed
      records.
    * **Compile**: the survivors share one compile.  The first priced
      task reports the LRU/disk result in ``compile_cache_hit``, the
      rest reuse that compile and report ``True``.
    * **Price**: a multi-cell group prices its heuristic cells and
      its baseline-memo misses in one
      :func:`repro.runtime.execute_group` call; a one-task group makes
      one :func:`repro.runtime.execute` call per mapping it prices
      (both looked up on :mod:`repro.runtime` at call time).  In the
      group call the cells of one mapping that fold identically (the
      paragon and cm5 cells of one mesh) share one extraction, and
      both mappings share one domain stage, one phase grouping and one
      kernel launch.
    * **Timeouts**: the survivors run under the group deadline
      ``timeout * len(survivors)``; past it they re-run as one-task
      groups under ``timeout`` each, so a slow task still ends as
      ``status="timeout"``.
    * **Price errors** split the group into one-task groups (counted by
      ``campaign.price.group_splits``), so only the failing cell gets
      an ``error_kind="price"`` record.

    Never raises for task-level failures; a non-positive ``timeout`` is
    a caller bug and raises ``ValueError``.  ``attempts`` maps task ids
    to their 1-based attempt (default 1), threaded to fault injection
    and ``TaskResult.attempts``.  While tracing is enabled one capture
    covers the call and its span tree goes on the first record;
    ``seconds`` is the call's wall time split evenly across the records.
    The caller stores the returned records with one
    :meth:`~repro.campaign.store.RunStore.append` (``run_campaign`` does
    so per backend batch).
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(
            f"timeout must be positive, got {timeout!r} (omit it for "
            "no per-task cap)"
        )
    if not group:
        return []
    attempts = attempts or {}
    t0 = time.perf_counter()
    if obs_tracing.is_enabled():
        with capture() as buf:
            results = _run_group(group, timeout, attempts, on_attempt)
        results[0].trace = freeze_capture(buf)
    else:
        results = _run_group(group, timeout, attempts, on_attempt)
    seconds = (time.perf_counter() - t0) / len(results)
    for result in results:
        result.seconds = seconds
        result.attempts = attempts.get(result.task_id, 1)
    return results


def execute_task(
    task: SweepTask, timeout: Optional[float] = None, attempt: int = 1
) -> TaskResult:
    """Run one task as a one-task group (see :func:`run_task_group`)."""
    return run_task_group([task], timeout, {task.task_id: attempt})[0]


def _run_group(
    group: Sequence[SweepTask],
    timeout: Optional[float],
    attempts: Dict[str, int],
    on_attempt: Optional[AttemptHook],
) -> List[TaskResult]:
    done: Dict[str, TaskResult] = {}
    live: List[SweepTask] = []
    for task in group:
        if on_attempt is not None:
            on_attempt([task], timeout)
        try:
            with _deadline(timeout):
                faults.maybe_inject(
                    task.task_id, attempts.get(task.task_id, 1)
                )
        except _TYPED_FAILURES as exc:
            done[task.task_id] = _typed_failure(task, exc, timeout)
        else:
            live.append(task)
    if live:
        done.update(_price_live(live, timeout, on_attempt))
    return [done[t.task_id] for t in group]


def _price_live(
    live: Sequence[SweepTask],
    timeout: Optional[float],
    on_attempt: Optional[AttemptHook],
) -> Dict[str, TaskResult]:
    """Compile and price ``live`` under the group deadline; past the
    deadline, or on a price error, re-run it as one-task groups."""
    deadline = None if timeout is None else timeout * len(live)
    if on_attempt is not None:
        on_attempt(live, deadline)
    try:
        with _deadline(deadline):
            return {r.task_id: r for r in _compile_and_price(live)}
    except _TYPED_FAILURES as exc:
        shared = isinstance(exc, _StageFailure) and exc.kind == "compile"
        if len(live) == 1 or shared:
            # a compile failure is the same for every cell of the nest
            return {
                t.task_id: _typed_failure(t, exc, timeout) for t in live
            }
        if isinstance(exc, _TaskTimeout):
            _group_timeouts.inc()
        else:
            cause = exc.exc if isinstance(exc, _StageFailure) else exc
            _group_splits.inc()
            obs_metrics.counter(
                f"campaign.price.group_splits.{type(cause).__name__}"
            ).inc()
    split: Dict[str, TaskResult] = {}
    for task in live:
        split.update(_price_live([task], timeout, on_attempt))
    return split


def _compile_and_price(live: Sequence[SweepTask]) -> List[TaskResult]:
    """Compile ``live``'s shared nest once, then fold it onto every
    task's machine x mesh cell and cost both mappings.

    The baseline price of a cell comes from the per-worker price memo
    when the same (workload, m, machine, mesh) cell was costed before;
    only the misses are priced.  A multi-cell group prices its
    heuristic cells and its baseline misses together in **one**
    :func:`repro.runtime.execute_group` call (the two mappings share
    the compile's scheduled nest, so one domain stage, one group-by and
    one kernel launch); a one-task group makes one
    :func:`repro.runtime.execute` call per mapping it prices.  Both
    names are looked up on :mod:`repro.runtime` at call time, so a
    caller that wraps them sees every pricing call.  The ``price`` span
    carries the attributes ``cells`` (tasks) and ``baseline_cells``
    (baseline misses priced).  Results are bit-identical whatever the
    group size, by construction of ``execute_group``."""
    from .. import runtime
    from ..machine import machine_spec

    try:
        cw, hit = _compile_for_task(live[0])
    except (MemoryError, _TaskTimeout):
        raise
    except Exception as exc:
        raise _StageFailure("compile", exc) from exc
    # the other cells reuse this compile, which counts as a cache hit
    _compile_hits.inc(len(live) - 1)

    try:
        bkeys = _baseline_price_keys(live)
        lookups = [_baseline_lookup(k) for k in bkeys]
        btimes = [btime for btime, _ in lookups]
        misses = [i for i, (_, bhit) in enumerate(lookups) if not bhit]
        with span("price", cells=len(live), baseline_cells=len(misses)):
            machines = []
            for task in live:
                spec = machine_spec(task.machine)
                machines.append(
                    (spec.make(task.mesh), spec.make_collectives(task.mesh))
                )
            programs = [
                cw.compiled.program(machine, cw.params)
                for machine, _ in machines
            ]
            # same folding as the heuristic's program, so both prices
            # use one folding policy by construction
            cells = [(p, *mc) for p, mc in zip(programs, machines)] + [
                (
                    runtime.MappedProgram(
                        mapping=cw.baseline,
                        folding=programs[i].folding,
                        params=cw.params,
                    ),
                    *machines[i],
                )
                for i in misses
            ]
            if len(live) > 1:
                priced = runtime.execute_group(cells)
            else:
                priced = [
                    runtime.execute(p, m, collectives=c) for p, m, c in cells
                ]
            reports = priced[: len(live)]
            for i, rep in zip(misses, priced[len(live):]):
                btimes[i] = rep.total_time
                _baseline_store(bkeys[i], rep.total_time)
    except (MemoryError, _TaskTimeout):
        raise
    except Exception as exc:
        raise _StageFailure("price", exc) from exc

    results: List[TaskResult] = []
    for i, (task, report) in enumerate(zip(live, reports)):
        result = TaskResult(
            task_id=task.task_id,
            workload=task.workload.name,
            machine=task.machine,
            mesh=task.mesh,
            m=task.m,
            rank_weights=task.rank_weights,
            status="ok",
            counts=cw.compiled.mapping.counts(),
            residuals=len(cw.compiled.mapping.optimized),
            total_time=report.total_time,
            total_messages=report.total_messages,
            total_volume=report.total_volume,
            baseline_residuals=len(cw.baseline.optimized),
            baseline_time=btimes[i],
        )
        result.compile_cache_hit = hit if i == 0 else True
        result.baseline_cache_hit = lookups[i][1]
        results.append(result)
    return results


def _failure_result(
    task: SweepTask,
    status: str,
    message: str,
    kind: Optional[str] = None,
    attempts: int = 1,
) -> TaskResult:
    return TaskResult(
        task_id=task.task_id,
        workload=task.workload.name,
        machine=task.machine,
        mesh=task.mesh,
        m=task.m,
        rank_weights=task.rank_weights,
        status=status,
        error=message,
        error_kind=kind,
        attempts=attempts,
    )


def crashed_result(
    task: SweepTask, message: str, attempts: int = 1
) -> TaskResult:
    """A ``status="crashed"`` record for a task whose worker died
    (executor-side entry point: the task never got to report itself)."""
    return _failure_result(
        task, "crashed", message, kind="crash", attempts=attempts
    )


@dataclass
class CampaignConfig:
    """Execution knobs of one ``run_campaign`` invocation."""

    jobs: int = 1
    timeout: Optional[float] = None
    #: stop after this many *new* results (test/CI hook simulating an
    #: interrupted campaign; the checkpoint stays resumable)
    max_tasks: Optional[int] = None
    #: on resume, re-run tasks whose stored record is error/timeout/
    #: crashed (by default failures count as done and are never
    #: retried); the superseded failure lines are compacted away
    retry_failures: bool = False
    #: execution backend (see :mod:`repro.campaign.executors`); None
    #: picks ``pool`` for ``jobs > 1`` and ``inline`` otherwise
    executor: Optional[str] = None
    #: extra attempts per task for transient failures (fault/crash/
    #: oom/timeout kinds); 0 disables in-run retries
    retries: int = 0
    #: base delay of the capped exponential retry backoff, in seconds
    #: (delay = backoff * 2**(retry - 1), capped at BACKOFF_CAP)
    backoff: float = 0.5
    #: resilient executor: max silence (no heartbeat/result) from a
    #: supervised worker before it is declared wedged and killed
    heartbeat_timeout: float = 30.0
    #: multiprocessing start method for the process-based executors
    #: (None = fork when available, else the platform default)
    mp_context: Optional[str] = None
    #: the run's deployment settings (None = parse the ``REPRO_*``
    #: environment when the run starts)
    settings: Optional[Settings] = None
    #: write a span/metric JSONL trace of this run to the given path
    #: (enables tracing for the duration of the run — including in the
    #: executor's worker processes — and restores the flag afterwards)
    trace: Optional[str] = None


@dataclass
class CampaignOutcome:
    """What one invocation did (see the store for the full results)."""

    path: str
    total: int
    prior: int
    ran: int
    ok: int
    errors: int
    timeouts: int
    remaining: int
    #: tasks whose worker died under them (status="crashed")
    crashed: int = 0
    #: total extra attempts consumed by in-run retries
    retried: int = 0
    #: compile-stage cache telemetry, aggregated over all workers
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0
    #: baseline price memo telemetry, aggregated over all workers
    baseline_cache_hits: int = 0
    baseline_cache_misses: int = 0

    def describe(self) -> str:
        counts = (
            f"{self.ok} ok, {self.errors} error, {self.timeouts} timeout"
        )
        if self.crashed:
            counts += f", {self.crashed} crashed"
        bits = [
            f"{self.ran} task(s) run ({counts}), "
            f"{self.prior} restored from checkpoint"
        ]
        if self.retried:
            bits.append(f"{self.retried} retry attempt(s)")
        priced = self.compile_cache_hits + self.compile_cache_misses
        if priced:
            bits.append(
                f"compile cache: {self.compile_cache_hits}/{priced} hit(s) "
                f"({self.compile_cache_misses} nest(s) compiled)"
            )
        baselines = self.baseline_cache_hits + self.baseline_cache_misses
        if baselines:
            bits.append(
                f"baseline cache: {self.baseline_cache_hits}/{baselines} "
                f"hit(s) ({self.baseline_cache_misses} baseline(s) priced)"
            )
        if self.remaining:
            bits.append(f"{self.remaining} still pending (resume to finish)")
        return f"campaign {self.path}: " + "; ".join(bits)


def run_campaign(
    tasks: Sequence[SweepTask],
    out_path: str,
    config: Optional[CampaignConfig] = None,
    resume: bool = False,
    meta: Optional[Dict] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
) -> CampaignOutcome:
    """Execute ``tasks``, checkpointing each group's results to
    ``out_path``.

    ``resume=False`` starts a fresh run (the file is truncated);
    ``resume=True`` loads the checkpoint, verifies the grid digest in
    its meta record against ``meta["spec_digest"]`` (when both are
    present) and runs only the tasks without a stored result.

    A malformed ``REPRO_*`` knob raises ``ValueError`` naming it before
    the store is touched or any worker starts.
    """
    config = config or CampaignConfig()
    if config.timeout is not None and config.timeout <= 0:
        raise ValueError(
            f"timeout must be positive, got {config.timeout!r} (omit it "
            "for no per-task cap)"
        )
    if config.max_tasks is not None and config.max_tasks < 0:
        raise ValueError(
            f"max_tasks must be >= 0, got {config.max_tasks!r} (omit it "
            "for no cap)"
        )
    settings = config.settings
    if settings is None:
        settings = Settings.from_env()
    store = RunStore(out_path, fsync=settings.fsync)
    meta = dict(meta or {})
    done: Dict[str, TaskResult] = {}

    if resume:
        store.repair_trailing_newline()
        prev_meta, done = store.load()
        prev_digest = prev_meta.get("spec_digest")
        want = meta.get("spec_digest")
        if prev_digest and want and prev_digest != want:
            raise CampaignSpecMismatch(
                f"checkpoint {out_path} was written for grid "
                f"{prev_digest}, not {want}: re-run with the original "
                "flags or start a fresh output file"
            )
        # shards of one campaign share the full-grid digest by design,
        # so the shard spec needs its own guard: resuming a shard
        # checkpoint with the wrong (or a forgotten) --shard would
        # silently run another shard's tasks into this file
        prev_shard = prev_meta.get("shard")
        want_shard = meta.get("shard")
        # (a checkpoint that lost its meta line cannot be checked —
        # the digest guard above already degrades the same way)
        if prev_meta and prev_shard != want_shard:
            raise CampaignSpecMismatch(
                f"checkpoint {out_path} was written for shard "
                f"{prev_shard or 'none (full grid)'}, not "
                f"{want_shard or 'none (full grid)'}: resume with the "
                "original --shard or start a fresh output file"
            )
        if not prev_meta and not done:
            store.start(meta)
        elif prev_digest is None and want:
            # checkpoint lost its meta line (truncation leaves only a
            # `_skipped_lines` marker): re-append it so the spec-digest
            # guard holds for every later resume
            store.append_meta(meta)
        if config.retry_failures:
            # dropped records re-run; their fresh result line supersedes
            # the old one (the loader keeps the last record per task id).
            # Compact the superseded failure lines away so the
            # checkpoint does not grow a stale line per retry round.
            survivors = {k: r for k, r in done.items() if r.status == "ok"}
            if len(survivors) != len(done):
                keep_meta = {
                    k: v
                    for k, v in prev_meta.items()
                    if k not in ("record", "_skipped_lines")
                } or meta
                store.compact(keep_meta, survivors.values())
            done = survivors
    else:
        store.start(meta)

    pending = [t for t in tasks if t.task_id not in done]
    capped = (
        pending[: config.max_tasks]
        if config.max_tasks is not None
        else pending
    )

    ran = ok = errors = timeouts = crashed = retried = 0
    cache_hits = cache_misses = 0
    baseline_hits = baseline_misses = 0

    # --trace: enable tracing for the duration of this run (restored in
    # the finally below), open the JSONL writer and remember each task's
    # compile key so trace records carry their group identity
    trace_writer: Optional[TraceWriter] = None
    prev_trace_flag: Optional[bool] = None
    compile_keys: Dict[str, str] = {}
    if config.trace:
        prev_trace_flag = obs_tracing.set_enabled(True)
        obs_tracing.clear_spans()
        compile_keys = {t.task_id: t.compile_key for t in capped}
        trace_writer = TraceWriter(config.trace)

    status_counters = {
        s: obs_metrics.counter(f"campaign.tasks.{s}")
        for s in ("ok", "error", "timeout", "crashed")
    }

    def record(batch: List[TaskResult]) -> None:
        nonlocal ran, ok, errors, timeouts, crashed, retried
        nonlocal cache_hits, cache_misses, baseline_hits, baseline_misses
        # one store write per batch (a compile-key group's records)
        with span("store.append"):
            store.append(batch)
        for result in batch:
            ran += 1
            if result.status == "ok":
                ok += 1
            elif result.status == "timeout":
                timeouts += 1
            elif result.status == "crashed":
                crashed += 1
            else:
                errors += 1
            status_counters.get(
                result.status, status_counters["error"]
            ).inc()
            retried += max(0, result.attempts - 1)
            if result.compile_cache_hit is True:
                cache_hits += 1
            elif result.compile_cache_hit is False:
                cache_misses += 1
            if result.baseline_cache_hit is True:
                baseline_hits += 1
            elif result.baseline_cache_hit is False:
                baseline_misses += 1
            if trace_writer is not None:
                # fold the worker's span tree into the campaign
                # aggregate and stream the per-task record (flushed
                # immediately: a killed run loses at most the in-flight
                # group's trace)
                merge_spans(result.trace)
                trace_writer.write_task(
                    result, compile_keys.get(result.task_id)
                )
            if progress is not None:
                progress(result)

    # cluster cells of one compiled nest so each group lands on one
    # worker: K machine x mesh cells -> one compile + K prices
    groups = group_by_compile_key(capped)

    from .executors import ExecutorConfig, make_executor

    name = config.executor
    if name is None:
        name = "pool" if config.jobs > 1 and len(capped) > 1 else "inline"
    # process backends take groups largest-first so the run does not
    # end on one straggler group; inline keeps grid order
    groups = order_groups_for_dispatch(
        groups, largest_first=(name != "inline" and config.jobs > 1)
    )
    backend = make_executor(
        name,
        ExecutorConfig(
            jobs=config.jobs,
            timeout=config.timeout,
            retries=config.retries,
            backoff=config.backoff,
            heartbeat_timeout=config.heartbeat_timeout,
            mp_context=config.mp_context,
            settings=settings,
            trace=obs_tracing.is_enabled(),
        ),
    )
    try:
        if trace_writer is not None:
            trace_writer.write_meta(
                {
                    "spec_digest": meta.get("spec_digest"),
                    "executor": name,
                    "jobs": config.jobs,
                    "tasks": len(capped),
                    "groups": len(groups),
                }
            )
        for batch in backend.run(groups):
            record(batch)
    finally:
        store.close()
        if trace_writer is not None:
            trace_writer.write_summary(
                span_snapshot(), obs_metrics.snapshot()
            )
            trace_writer.close()
        if prev_trace_flag is not None:
            obs_tracing.set_enabled(prev_trace_flag)

    return CampaignOutcome(
        path=out_path,
        total=len(tasks),
        prior=len(done),
        ran=ran,
        ok=ok,
        errors=errors,
        timeouts=timeouts,
        remaining=len(pending) - len(capped),
        crashed=crashed,
        retried=retried,
        compile_cache_hits=cache_hits,
        compile_cache_misses=cache_misses,
        baseline_cache_hits=baseline_hits,
        baseline_cache_misses=baseline_misses,
    )
