"""The ``Executor`` interface and the shared worker-side machinery.

An executor takes the runner's compile-key groups (all machine x mesh
cells of one compiled nest; see
:func:`repro.campaign.sweep.group_by_compile_key`) and yields batches
of :class:`~repro.campaign.store.TaskResult` as they complete.  The
runner records every result to the JSONL checkpoint the moment a batch
lands, so executor choice never changes durability semantics — only
how (and how safely) the work is driven.

Worker-side helpers shared by all backends:

* :func:`init_worker` — install the parent's
  :class:`~repro._config.Settings` snapshot (disk-tier directory, fault
  plan armed with the backend's capabilities) and tracing flag
  *explicitly*, so spawn workers, which re-import ``repro`` instead of
  inheriting the parent's state, run with the same configuration;
* :func:`iter_group` / :func:`run_group` — one compile-key group
  through :func:`repro.campaign.runner.run_task_group`, re-running
  retryable failures as a smaller group with capped exponential
  backoff.  Every backend runs its groups through these.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Type

from ..._config import Settings
from ...obs import metrics as obs_metrics
from ...obs import tracing as obs_tracing
from ..runner import AttemptHook, apply_settings, run_task_group
from ..store import TaskResult
from ..sweep import SweepTask

#: failure kinds worth retrying — worker death, memory pressure,
#: injected transients and hangs/timeouts can all clear on a second
#: attempt; ``compile``/``price`` errors are deterministic and are not
RETRYABLE_KINDS = frozenset({"fault", "crash", "oom", "timeout"})

#: ceiling of the exponential retry backoff, in seconds
BACKOFF_CAP = 30.0


@dataclass
class ExecutorConfig:
    """Backend-independent execution knobs (built by the runner from
    :class:`~repro.campaign.runner.CampaignConfig`)."""

    jobs: int = 1
    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.5
    heartbeat_timeout: float = 30.0
    mp_context: Optional[str] = None
    #: the campaign's settings snapshot, installed in every worker
    settings: Settings = Settings()
    #: the parent's tracing flag, passed through to workers the same
    #: way (spawn workers re-import ``repro.obs`` with tracing off;
    #: fork workers inherit but stay consistent)
    trace: bool = False


class Executor(ABC):
    """Submit compile-key groups, yield ``TaskResult`` batches."""

    #: registry name (set by subclasses)
    name: str = ""

    def __init__(self, config: ExecutorConfig):
        self.config = config

    @abstractmethod
    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        """Execute every task of every group, yielding result batches
        as they complete.  Implementations must be non-hanging: worker
        death, hung tasks and transient failures become typed failure
        records, never a stuck iterator."""


def mp_context(name: Optional[str] = None):
    """The multiprocessing context for process-based backends: the
    named method when given, else fork when the platform has it (cheap
    workers, inherited imports), else the platform default."""
    import multiprocessing

    if name:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platform without fork
        return multiprocessing.get_context()


def backoff_delay(base: float, retry: int, cap: float = BACKOFF_CAP) -> float:
    """Capped exponential backoff: ``base * 2**(retry-1)``, ``retry``
    1-based, never above ``cap`` (or negative)."""
    if base <= 0 or retry <= 0:
        return 0.0
    return min(cap, base * (2.0 ** (retry - 1)))


def init_worker(
    config: ExecutorConfig, allow_kill: bool, allow_hang: bool
) -> None:
    """Prepare a worker process: the settings snapshot (disk tier and
    fault plan) and the tracing flag.

    Called in every worker entry point of the process backends (the
    inline backend applies the settings alone, with both capabilities
    off).  Passing both through the call rather than
    relying on fork-inherited globals is what keeps spawn-context
    workers honouring the parent's configuration (a spawn worker
    re-imports ``repro.obs`` with tracing off, which would silently
    drop every span of a ``--trace`` run).
    """
    apply_settings(config.settings, allow_kill, allow_hang)
    obs_tracing.set_enabled(config.trace)


def iter_group(
    group: Sequence[SweepTask],
    config: ExecutorConfig,
    attempts: Optional[Dict[str, int]] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_attempt: Optional[AttemptHook] = None,
) -> Iterator[TaskResult]:
    """Run one compile-key group (or any subset of it), yielding each
    task's record once it is final.

    Each round calls :func:`~repro.campaign.runner.run_task_group` on
    the pending tasks; retryable failures re-run as a smaller group
    with ``attempt + 1`` after a capped exponential backoff, within a
    budget of ``config.retries + 1`` attempts per task.  ``attempts``
    carries attempts a previous (crashed) worker already consumed, so
    supervisors resume the count instead of restarting it.  ``sleep``
    and ``on_attempt`` let the resilient worker announce backoffs and
    deadlines to its supervisor."""
    attempts = {t.task_id: (attempts or {}).get(t.task_id, 1) for t in group}
    pending = list(group)
    rounds = 0
    while pending:
        retry = set()
        for result in run_task_group(
            pending, config.timeout, attempts, on_attempt
        ):
            if (
                result.status != "ok"
                and result.error_kind in RETRYABLE_KINDS
                and attempts[result.task_id] < config.retries + 1
            ):
                retry.add(result.task_id)
            else:
                yield result
        pending = [t for t in pending if t.task_id in retry]
        if not pending:
            return
        for task in pending:
            attempts[task.task_id] += 1
        obs_metrics.counter("campaign.executor.retries").inc(len(pending))
        rounds += 1
        delay = backoff_delay(config.backoff, rounds)
        if delay > 0:
            sleep(delay)


def run_group(
    group: Sequence[SweepTask],
    config: ExecutorConfig,
    attempts: Optional[Dict[str, int]] = None,
) -> List[TaskResult]:
    """:func:`iter_group` collected in group order (the in-worker half
    of the inline and pool backends)."""
    final = {r.task_id: r for r in iter_group(group, config, attempts)}
    return [final[t.task_id] for t in group]


_REGISTRY: Dict[str, Type[Executor]] = {}


def register_executor(cls: Type[Executor]) -> Type[Executor]:
    """Class decorator adding a backend to the registry."""
    if not cls.name:
        raise ValueError(f"executor class {cls.__name__} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def executor_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def make_executor(name: str, config: ExecutorConfig) -> Executor:
    """Instantiate a backend by registry name (friendly ``ValueError``
    on an unknown name)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r} "
            f"(known: {', '.join(executor_names())})"
        ) from None
    return cls(config)
