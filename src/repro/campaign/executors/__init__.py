"""Campaign execution backends.

Campaign execution is split from campaign bookkeeping: the runner
builds compile-key groups and records results; a backend decides where
the groups run.  Both backends run a group the same way —
:func:`~repro.campaign.runner.run_task_group` through
:func:`iter_group` — and ``jobs`` picks between them:

:func:`run_inline` (``jobs == 1``, or a one-task run)
    Everything in the calling process.  No pickling, no workers — the
    debugging backend.
:func:`run_supervised` (``jobs > 1``)
    At most ``jobs`` long-lived supervised children, each taking one
    compile-key group at a time, with heartbeat + deadline monitoring.
    Detects hangs SIGALRM cannot interrupt, retries crashed/hung tasks
    with capped exponential backoff, and degrades to per-task typed
    failure records — the campaign always finishes.  Its lifecycle
    counters live under ``campaign.executor.resilient.*``.
"""

from .base import (
    BACKOFF_CAP,
    ExecutorConfig,
    RETRYABLE_KINDS,
    backoff_delay,
    init_worker,
    iter_group,
    run_group,
)
from .inline import run_inline
from .resilient import run_supervised

__all__ = [
    "BACKOFF_CAP",
    "ExecutorConfig",
    "RETRYABLE_KINDS",
    "backoff_delay",
    "init_worker",
    "iter_group",
    "run_group",
    "run_inline",
    "run_supervised",
]
