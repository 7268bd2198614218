"""The hardened process-pool backend (the historical default, fixed).

The old runner pushed groups through ``multiprocessing.Pool
.imap_unordered``, which **hangs forever** when a worker dies — a
SIGKILLed (OOM-killed, segfaulted) worker simply never reports its
group, and the campaign stalls with work lost.  This backend drives a
``concurrent.futures.ProcessPoolExecutor`` instead, whose broken-pool
detection turns worker death into an exception the supervisor can act
on:

* groups are submitted through a **bounded window** (``jobs + 2``
  in-flight), so a pool break only voids a handful of groups;
* on a break the pool is rebuilt and the voided groups re-run in
  **quarantine** — one at a time, nothing else in flight — which makes
  the next crash precisely attributable to the group that caused it;
* an attributed crasher is retried with capped exponential backoff up
  to ``retries`` times, then surfaced as ``status="crashed"`` records
  (``error_kind="crash"``) for the whole lost group, and the campaign
  continues.

Each worker runs its group through
:func:`~repro.campaign.executors.base.run_group` — the group path every
backend shares — with every task at the item's attempt number.

Granularity caveat: a pool worker reports per *group*, so a crash
loses (and a crash record covers) the whole compile-key group.  The
``resilient`` backend supervises per task; use it when per-task crash
attribution or hang detection matters.
"""

from __future__ import annotations

import concurrent.futures as cf
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...obs import metrics as obs_metrics
from ..runner import crashed_result
from ..store import TaskResult
from ..sweep import SweepTask
from .base import (
    Executor,
    ExecutorConfig,
    backoff_delay,
    init_worker,
    mp_context,
    register_executor,
    run_group,
)

#: one work item: (group id, tasks, attempt number of every task)
_Item = Tuple[int, List[SweepTask], int]


def _pool_init(config: ExecutorConfig) -> None:
    # kill faults are survivable here (the pool rebuilds); hangs are
    # not (no heartbeat supervision), so they downgrade to failures
    init_worker(config, allow_kill=True, allow_hang=False)


def _pool_group(
    group: List[SweepTask], config: ExecutorConfig, attempt: int
) -> List[TaskResult]:
    return run_group(group, config, {t.task_id: attempt for t in group})


@register_executor
class PoolExecutor(Executor):
    name = "pool"

    def _new_pool(self) -> cf.ProcessPoolExecutor:
        return cf.ProcessPoolExecutor(
            max_workers=max(1, self.config.jobs),
            mp_context=mp_context(self.config.mp_context),
            initializer=_pool_init,
            initargs=(self.config,),
        )

    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        cfg = self.config
        window = max(1, cfg.jobs) + 2
        queue: "deque[_Item]" = deque(
            (gid, list(group), 1) for gid, group in enumerate(groups)
        )
        quarantine: "deque[_Item]" = deque()
        strikes: Dict[int, int] = {}
        futures: Dict[cf.Future, _Item] = {}
        pool: Optional[cf.ProcessPoolExecutor] = None
        try:
            while queue or quarantine or futures:
                if pool is None:
                    pool = self._new_pool()
                if not futures:
                    # isolation mode when a quarantine exists: exactly
                    # one suspect in flight, so a break is attributable
                    # to that group
                    src = quarantine if quarantine else queue
                    limit = 1 if quarantine else window
                    try:
                        while src and len(futures) < limit:
                            item = src.popleft()
                            futures[
                                pool.submit(_pool_group, item[1], cfg, item[2])
                            ] = item
                    except cf.BrokenExecutor:
                        # pool died under the submit (e.g. a worker was
                        # killed while idle): requeue and rebuild
                        src.appendleft(item)
                        if not futures:
                            pool.shutdown(wait=False, cancel_futures=True)
                            pool = None
                            obs_metrics.counter(
                                "campaign.executor.pool.rebuilds"
                            ).inc()
                            continue
                        # any futures submitted before the break will
                        # surface as BrokenExecutor below and requeue
                done, _ = cf.wait(
                    list(futures), return_when=cf.FIRST_COMPLETED
                )
                voided: List[_Item] = []
                isolated = len(futures) == 1
                for fut in done:
                    item = futures.pop(fut)
                    try:
                        yield fut.result()
                    except cf.BrokenExecutor:
                        voided.append(item)
                    except Exception as exc:  # infrastructure (pickling…)
                        yield [
                            crashed_result(
                                t, f"executor error: {exc}", attempts=item[2]
                            )
                            for t in item[1]
                        ]
                if not voided:
                    continue
                # the pool is broken: every other in-flight future is
                # void too; reclaim their groups and rebuild the pool
                voided.extend(futures.values())
                futures.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
                obs_metrics.counter("campaign.executor.pool.rebuilds").inc()
                if isolated:
                    gid, group, attempt = voided[0]
                    strikes[gid] = strikes.get(gid, 0) + 1
                    if strikes[gid] > cfg.retries:
                        yield [
                            crashed_result(
                                t,
                                "worker process died while running this "
                                "group (retries exhausted)",
                                attempts=attempt,
                            )
                            for t in group
                        ]
                    else:
                        import time

                        delay = backoff_delay(cfg.backoff, strikes[gid])
                        if delay > 0:
                            time.sleep(delay)  # nothing else is in flight
                        quarantine.append((gid, group, attempt + 1))
                else:
                    # cannot tell which group killed the worker: run all
                    # of them isolated; innocents complete, the culprit
                    # breaks again — alone, and is then attributed
                    obs_metrics.counter(
                        "campaign.executor.pool.quarantined"
                    ).inc(len(voided))
                    quarantine.extend(voided)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
