"""The supervised-worker backend: long-lived children with per-task
crash/hang recovery.

At most ``jobs`` children start once; each takes one compile-key group
at a time over its pipe, so a child's compile LRU, baseline memo,
dependence/linalg caches and imports survive from group to group.  A
child runs its group through
:func:`~repro.campaign.executors.base.iter_group` — the same group path
as the inline backend — and streams a message per event: work started
(the tasks and their deadline), backoff begun, result ready, group
done, heartbeat.  The parent turns every failure mode into a typed
record instead of a hung campaign, and replaces a child only when it
dies or is killed:

* **worker death** (SIGKILL, OOM killer, segfault): the pipe hits EOF /
  the process exits.  A death while one task was in flight (its fault
  check, or a one-task group) is charged to that task: it is retried
  (capped exponential backoff) while the attempt budget lasts, then
  recorded as ``status="crashed"`` (``error_kind="crash"``).  A death
  inside a multi-task group cannot be charged to one task, so each
  unreported task re-runs alone, where a second death is
  attributable.  Tasks that already reported results are *not*
  re-run.  A group whose workers keep dying before any task starts
  gives up after ``retries + 2`` hand-outs;
* **hangs SIGALRM cannot interrupt** (native code holding the GIL, or
  masked alarms): detected two ways — the announced deadline (the
  task's ``timeout``, or the group deadline ``timeout x tasks``, plus
  grace, extended by announced backoff sleeps) when a timeout is
  configured, and a heartbeat watchdog (``heartbeat_timeout``) for
  GIL-held wedges even without one.  The worker is killed and the
  task recorded as ``status="timeout"`` (retried first, like any
  transient);
* **transient failures** (injected faults, MemoryError): retried
  inside the worker itself with the same backoff policy.

This also works on platforms without SIGALRM or ``fork`` — pass
``mp_context="spawn"``; all worker configuration travels through the
process arguments rather than fork-inherited globals.  A worker whose
supervisor is gone exits at its next heartbeat.

Results stream to the caller (and thus the JSONL checkpoint) as they
arrive, so killing the *campaign* process mid-group loses at most the
in-flight rounds.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as conn_wait
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ...obs import metrics as obs_metrics
from ..runner import _failure_result, crashed_result
from ..store import TaskResult
from ..sweep import SweepTask
from .base import (
    ExecutorConfig,
    backoff_delay,
    init_worker,
    iter_group,
    mp_context,
)

#: parent poll interval while supervising (seconds)
_POLL = 0.05
#: slack added to the per-attempt deadline before declaring a hang
_HANG_GRACE = 1.0
#: extra slack allowed on announced backoff sleeps
_BACKOFF_SLACK = 0.5

#: one unit of work: the tasks, the attempts they already consumed and
#: how many children it has been handed to
_Item = Tuple[List[SweepTask], Dict[str, int], int]


def _heartbeat_interval(config: ExecutorConfig) -> float:
    return max(0.05, min(1.0, config.heartbeat_timeout / 4.0))


def _worker_main(conn, config: ExecutorConfig) -> None:
    """Child-process main: run each group the parent sends, streaming
    supervision events, until the parent sends ``None``."""
    init_worker(config, allow_kill=True, allow_hang=True)
    supervisor = os.getppid()
    send_lock = threading.Lock()

    def send(msg: Tuple) -> None:
        with send_lock:
            conn.send(msg)

    def beat() -> None:
        interval = _heartbeat_interval(config)
        while True:
            time.sleep(interval)
            try:
                if os.getppid() != supervisor:
                    raise OSError("supervisor gone")
                send(("hb",))
            except OSError:  # nobody left to report to
                os._exit(1)

    threading.Thread(target=beat, daemon=True).start()
    for group, attempts in iter(conn.recv, None):
        for result in iter_group(
            group,
            config,
            attempts,
            sleep=lambda d: (send(("backoff", d)), time.sleep(d)),
            on_attempt=lambda tasks, deadline: send(
                ("attempt", [t.task_id for t in tasks], deadline)
            ),
        ):
            send(("result", result))
        send(("done",))


class _Child:
    """Supervisor-side state of one worker process."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.last_msg = time.monotonic()
        self.kill_reason: Optional[str] = None
        self.assign(None)

    def assign(self, item: Optional[_Item]) -> None:
        """Hand the child one work item (``None`` marks it idle)."""
        self.busy = item is not None
        tasks, attempts, self.tries = item or ([], {}, 0)
        self.tasks = deque(tasks)  # not yet reported
        self.attempts = dict(attempts)
        #: the announced unit of work: its task ids, start and budget
        self.current_ids: List[str] = []
        self.attempt_started: Optional[float] = None
        self.attempt_budget: Optional[float] = None
        self.deadline_extra = 0.0
        if item is not None:
            self.last_msg = time.monotonic()
            try:
                self.conn.send((tasks, attempts))
            except OSError:
                pass  # already dead: reaped as a death before any task

    def hang_deadline(self) -> Optional[float]:
        if self.attempt_budget is None or self.attempt_started is None:
            return None
        return (
            self.attempt_started
            + self.attempt_budget
            + self.deadline_extra
            + _HANG_GRACE
        )


def run_supervised(
    groups: Sequence[List[SweepTask]], config: ExecutorConfig
) -> Iterator[List[TaskResult]]:
    """Run ``groups`` on at most ``config.jobs`` supervised workers,
    yielding result batches as they arrive."""
    return _Supervisor(config).run(groups)


class _Supervisor:
    def __init__(self, config: ExecutorConfig):
        self.config = config
        self.ctx = mp_context(config.mp_context)
        self.ready: Deque[_Item] = deque()
        #: backoff-delayed items, sorted by due time
        self.delayed: List[Tuple[float, _Item]] = []
        self.children: List[_Child] = []

    def spawn(self) -> _Child:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main, args=(child_conn, self.config), daemon=True
        )
        proc.start()
        child_conn.close()
        obs_metrics.counter("campaign.executor.resilient.spawns").inc()
        child = _Child(proc, parent_conn)
        self.children.append(child)
        return child

    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        slots = max(1, self.config.jobs)
        self.ready.extend((list(group), {}, 1) for group in groups)
        try:
            while (
                self.ready or self.delayed
                or any(c.busy for c in self.children)
            ):
                now = time.monotonic()
                while self.delayed and self.delayed[0][0] <= now:
                    self.ready.append(self.delayed.pop(0)[1])
                for child in self.children:
                    if self.ready and not child.busy:
                        child.assign(self.ready.popleft())
                while self.ready and len(self.children) < slots:
                    self.spawn().assign(self.ready.popleft())
                if not any(c.busy for c in self.children):
                    if self.delayed:
                        time.sleep(
                            min(_POLL, max(0.0, self.delayed[0][0] - now))
                        )
                    continue

                # multiplex over the supervision pipes
                try:
                    conn_wait([c.conn for c in self.children], timeout=_POLL)
                except OSError:
                    pass
                now = time.monotonic()
                for child in list(self.children):
                    batch = self._drain(child, now)
                    if batch:
                        yield batch
                    yield from self._reap(child, now)
        finally:
            for child in self.children:
                if child.busy:
                    child.proc.kill()
                else:
                    try:
                        child.conn.send(None)
                    except OSError:
                        pass
            for child in self.children:
                child.proc.join(timeout=1.0)
                if child.proc.is_alive():
                    child.proc.kill()
                    child.proc.join(timeout=1.0)
                child.conn.close()

    def _drain(self, child: _Child, now: float) -> List[TaskResult]:
        """Pull every pending message off one child's pipe."""
        batch: List[TaskResult] = []
        while True:
            try:
                if not child.conn.poll(0):
                    break
                msg = child.conn.recv()
            except (EOFError, OSError):
                break  # death handled by _reap
            child.last_msg = now
            kind = msg[0]
            if kind == "attempt":
                child.current_ids = list(msg[1])
                child.attempt_started = now
                child.attempt_budget = msg[2]
                child.deadline_extra = 0.0
            elif kind == "backoff":
                child.deadline_extra += msg[1] + _BACKOFF_SLACK
            elif kind == "result":
                result: TaskResult = msg[1]
                batch.append(result)
                tid = result.task_id
                child.current_ids = [i for i in child.current_ids if i != tid]
                if not child.current_ids:
                    child.attempt_started = None
                child.tasks = deque(t for t in child.tasks if t.task_id != tid)
            elif kind == "done":
                child.assign(None)
            # "hb" only refreshes last_msg
        return batch

    def _reap(self, child: _Child, now: float) -> Iterator[List[TaskResult]]:
        """Handle hang deadlines and death for one child."""
        cfg = self.config
        if child.proc.is_alive():
            if not child.busy:
                return
            deadline = child.hang_deadline()
            if deadline is not None and now > deadline:
                child.kill_reason = (
                    "hang detected: no completion within "
                    f"{child.attempt_budget}s (+grace) — worker killed by "
                    "supervisor"
                )
                obs_metrics.counter(
                    "campaign.executor.resilient.hang_kills"
                ).inc()
            elif now - child.last_msg > cfg.heartbeat_timeout:
                child.kill_reason = (
                    f"worker heartbeat lost for {cfg.heartbeat_timeout}s "
                    "— worker killed by supervisor"
                )
                obs_metrics.counter(
                    "campaign.executor.resilient.heartbeat_losses"
                ).inc()
            if child.kill_reason is None:
                return
            child.proc.kill()
            child.proc.join(timeout=5.0)
        else:
            child.proc.join(timeout=1.0)

        # the child is dead: drain what it managed to send first
        final = self._drain(child, now)
        if final:
            yield final
        self.children.remove(child)
        child.conn.close()
        if child.kill_reason is None:
            obs_metrics.counter(
                "campaign.executor.resilient.worker_deaths"
            ).inc()
        if child.busy:
            yield from self._requeue(child, now)
        if self.ready or self.delayed:
            self.spawn()  # replace the dead worker while work waits

    def _requeue(self, child: _Child, now: float) -> Iterator[List[TaskResult]]:
        """Charge a dead worker's loss and queue what it left unreported."""
        cfg = self.config
        remaining = list(child.tasks)
        attempts = dict(child.attempts)
        tries = child.tries + 1
        pending = {t.task_id for t in remaining}
        lost_ids = [i for i in child.current_ids if i in pending]
        if len(lost_ids) > 1:
            # died inside a multi-task group: no single task to charge,
            # so each re-runs alone, where a second death is attributable
            self.ready.extend(([t], attempts, tries) for t in remaining)
            return
        lost_id = lost_ids[0] if lost_ids else None
        if lost_id is None and tries > cfg.retries + 2:
            # the group keeps killing its worker before reaching any task
            # (e.g. an import-time crash): give up on it rather than
            # handing it out forever
            why = child.kill_reason or (
                "worker process repeatedly died before starting a task "
                f"(exitcode {child.proc.exitcode})"
            )
            yield [
                crashed_result(t, why, attempts=attempts.get(t.task_id, 1))
                for t in remaining
            ]
            return
        if lost_id is not None:
            lost = next(t for t in remaining if t.task_id == lost_id)
            consumed = attempts.get(lost_id, 1)
            if consumed >= cfg.retries + 1:
                # budget exhausted: record the loss, run the rest
                if child.kill_reason is not None:
                    record = _failure_result(
                        lost, "timeout", child.kill_reason,
                        kind="timeout", attempts=consumed,
                    )
                else:
                    code = child.proc.exitcode
                    record = crashed_result(
                        lost,
                        "worker process died while running this task "
                        f"(exitcode {code})",
                        attempts=consumed,
                    )
                yield [record]
                remaining = [t for t in remaining if t.task_id != lost_id]
            else:
                attempts[lost_id] = consumed + 1
        if not remaining:
            return
        delay = 0.0
        if lost_id is not None and lost_id in attempts:
            delay = backoff_delay(cfg.backoff, attempts[lost_id] - 1)
        if delay > 0:
            self.delayed.append((now + delay, (remaining, attempts, tries)))
            self.delayed.sort(key=lambda it: it[0])
        else:
            self.ready.append((remaining, attempts, tries))
