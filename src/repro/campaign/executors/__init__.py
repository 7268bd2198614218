"""Pluggable campaign execution backends.

Campaign execution is split from campaign bookkeeping: the runner
builds compile-key groups and records results; an :class:`Executor`
decides where the groups run.  Every backend runs a group the same
way — :func:`~repro.campaign.runner.run_task_group` through
:func:`run_group` / :func:`iter_group` — so they differ only in
isolation and supervision.  Three backends ship:

``inline``
    Everything in the calling process.  No pickling, no workers —
    the debugging backend, and the default for single-job campaigns.
``pool``
    A hardened ``ProcessPoolExecutor`` fan-out (the historical
    default).  Worker death no longer hangs the campaign: the pool is
    rebuilt, the lost groups re-run in quarantine for attribution,
    and an attributed crasher becomes ``status="crashed"`` records.
``resilient``
    One supervised child per group with heartbeat + deadline
    monitoring.  Detects hangs SIGALRM cannot interrupt, retries
    crashed/hung tasks with capped exponential backoff, and degrades
    to per-task typed failure records — the campaign always finishes.

Pick one with ``CampaignConfig(executor=...)`` or ``--executor`` on
the CLI; ``run_campaign`` defaults to ``pool`` for parallel runs and
``inline`` otherwise.
"""

from .base import (
    BACKOFF_CAP,
    Executor,
    ExecutorConfig,
    RETRYABLE_KINDS,
    backoff_delay,
    executor_names,
    init_worker,
    iter_group,
    make_executor,
    register_executor,
    run_group,
)

# importing the modules registers the backends
from . import inline as _inline  # noqa: E402,F401
from . import pool as _pool  # noqa: E402,F401
from . import resilient as _resilient  # noqa: E402,F401

__all__ = [
    "BACKOFF_CAP",
    "Executor",
    "ExecutorConfig",
    "RETRYABLE_KINDS",
    "backoff_delay",
    "executor_names",
    "init_worker",
    "iter_group",
    "make_executor",
    "register_executor",
    "run_group",
]
