"""Experiment-orchestration subsystem: generated workloads, declarative
sweep grids, a parallel checkpoint/resume runner and a JSONL result
store.

The campaign layer sits on top of the whole compilation pipeline
(:func:`repro.compile_nest` down to the machine models) and evaluates
the paper's two-step heuristic *in bulk*: thousands of nests x machine
models x mesh sizes x heuristic knobs instead of one hand-written nest
at a time.

* :mod:`~repro.campaign.workloads` — seeded random nest generator +
  named corpus (``repro.ir.examples`` and the ``examples/*.py`` kernels);
* :mod:`~repro.campaign.sweep` — grid spec expansion with stable task ids;
* :mod:`~repro.campaign.runner` — campaign orchestration, the one
  group execution path (typed per-task errors, timeouts, tracing),
  JSONL checkpoint/resume;
* :mod:`~repro.campaign.executors` — the two execution backends,
  picked by ``jobs``: inline, and long-lived supervised workers with
  retry/backoff, worker-death recovery and hang detection;
* :mod:`~repro.campaign.faults` — deterministic fault-injection
  harness (``REPRO_FAULT_INJECT``) for chaos testing;
* :mod:`~repro.campaign.store` — typed result records, tolerant JSONL
  loading, aggregation into summary tables.

CLI: ``python -m repro campaign run|resume|summarize``.
"""

from .._config import Settings
from .executors import BACKOFF_CAP, ExecutorConfig, RETRYABLE_KINDS
from .faults import FAULT_ENV, InjectedFault, parse_fault_spec, would_fault
from .runner import (
    CampaignConfig,
    CampaignOutcome,
    CampaignSpecMismatch,
    baseline_cache_stats,
    clear_baseline_cache,
    clear_compile_cache,
    code_fingerprint,
    compile_cache_stats,
    crashed_result,
    execute_task,
    run_campaign,
    run_task_group,
)
from .store import (
    ERROR_KINDS,
    STATUSES,
    RunStore,
    TaskResult,
    merge_stores,
    summarize_results,
)
from .sweep import (
    MACHINES,
    SHAPES,
    SweepSpec,
    SweepTask,
    default_spec,
    grid_digest,
    group_by_compile_key,
    shard_tasks,
)
from .workloads import (
    Workload,
    corpus,
    generate_triangular_workloads,
    generate_workloads,
    triangular_corpus,
)

__all__ = [
    "Workload",
    "corpus",
    "triangular_corpus",
    "generate_workloads",
    "generate_triangular_workloads",
    "SweepSpec",
    "SweepTask",
    "MACHINES",
    "SHAPES",
    "default_spec",
    "grid_digest",
    "group_by_compile_key",
    "shard_tasks",
    "merge_stores",
    "CampaignConfig",
    "Settings",
    "CampaignOutcome",
    "CampaignSpecMismatch",
    "execute_task",
    "run_campaign",
    "run_task_group",
    "crashed_result",
    "clear_compile_cache",
    "code_fingerprint",
    "compile_cache_stats",
    "clear_baseline_cache",
    "baseline_cache_stats",
    "ExecutorConfig",
    "RETRYABLE_KINDS",
    "BACKOFF_CAP",
    "FAULT_ENV",
    "InjectedFault",
    "parse_fault_spec",
    "would_fault",
    "RunStore",
    "TaskResult",
    "ERROR_KINDS",
    "STATUSES",
    "summarize_results",
]
