"""The supervised-worker backend: per-task crash/hang recovery.

Each compile-key group runs in its own child process under active
supervision (up to ``jobs`` children at a time).  The child runs the
group through :func:`~repro.campaign.executors.base.iter_group` — the
same group path as every backend — and streams a message per event
over a pipe: work started (the tasks and their deadline), backoff
begun, result ready, heartbeat.  The parent turns every failure mode
into a typed record instead of a hung campaign:

* **worker death** (SIGKILL, OOM killer, segfault): the pipe hits EOF /
  the process exits.  A death while one task was in flight (its fault
  check, or a one-task group) is charged to that task: it is retried
  in a fresh child (capped exponential backoff) while the attempt
  budget lasts, then recorded as ``status="crashed"``
  (``error_kind="crash"``).  A death inside a multi-task group cannot
  be charged to one task, so each unreported task re-runs alone in its
  own child, where a second death is attributable.  Tasks that
  already reported results are *not* re-run;
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
supervision pipe rather than fork-inherited globals.

Results stream to the caller (and thus the JSONL checkpoint) the
moment each group round finishes, so killing the *campaign* process
mid-group loses at most the in-flight round.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from multiprocessing.connection import wait as conn_wait
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...obs import metrics as obs_metrics
from ..runner import _failure_result, crashed_result
from ..store import TaskResult
from ..sweep import SweepTask
from .base import (
    Executor,
    ExecutorConfig,
    backoff_delay,
    init_worker,
    iter_group,
    mp_context,
    register_executor,
)

#: parent poll interval while supervising (seconds)
_POLL = 0.05
#: slack added to the per-attempt deadline before declaring a hang
_HANG_GRACE = 1.0
#: extra slack allowed on announced backoff sleeps
_BACKOFF_SLACK = 0.5


def _heartbeat_interval(config: ExecutorConfig) -> float:
    return max(0.05, min(1.0, config.heartbeat_timeout / 4.0))


def _supervised_entry(
    conn, group: List[SweepTask], config: ExecutorConfig,
    attempts: Dict[str, int],
) -> None:
    """Child-process main: run the group, streaming supervision events."""
    init_worker(config, allow_kill=True, allow_hang=True)
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(msg: Tuple) -> None:
        with send_lock:
            conn.send(msg)

    def beat() -> None:
        interval = _heartbeat_interval(config)
        while not stop.wait(interval):
            try:
                send(("hb",))
            except OSError:  # parent went away; nothing left to tell
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
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
    finally:
        stop.set()
        conn.close()


class _Child:
    """Supervisor-side state of one worker process."""

    def __init__(self, proc, conn, tasks: List[SweepTask],
                 attempts: Dict[str, int], spawns: int = 1):
        self.proc = proc
        self.conn = conn
        self.tasks = deque(tasks)  # not yet reported
        self.attempts = dict(attempts)
        self.spawns = spawns
        now = time.monotonic()
        self.last_msg = now
        #: the announced unit of work: its task ids, start and budget
        self.current_ids: List[str] = []
        self.attempt_started: Optional[float] = None
        self.attempt_budget: Optional[float] = None
        self.deadline_extra = 0.0
        self.finished = False
        self.kill_reason: Optional[str] = None

    def hang_deadline(self) -> Optional[float]:
        if self.attempt_budget is None or self.attempt_started is None:
            return None
        return (
            self.attempt_started
            + self.attempt_budget
            + self.deadline_extra
            + _HANG_GRACE
        )


@register_executor
class ResilientExecutor(Executor):
    name = "resilient"

    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        cfg = self.config
        ctx = mp_context(cfg.mp_context)
        slots = max(1, cfg.jobs)
        ready: "deque[Tuple[List[SweepTask], Dict[str, int], int]]" = deque(
            (list(group), {}, 1) for group in groups
        )
        delayed: List[
            Tuple[float, List[SweepTask], Dict[str, int], int]
        ] = []
        children: List[_Child] = []

        def spawn(
            tasks: List[SweepTask], attempts: Dict[str, int], spawns: int
        ) -> _Child:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_supervised_entry,
                args=(child_conn, tasks, cfg, attempts),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            obs_metrics.counter("campaign.executor.resilient.spawns").inc()
            return _Child(proc, parent_conn, tasks, attempts, spawns=spawns)

        try:
            while ready or delayed or children:
                now = time.monotonic()
                if delayed:
                    due = [it for it in delayed if it[0] <= now]
                    for it in due:
                        delayed.remove(it)
                        ready.append((it[1], it[2], it[3]))
                while ready and len(children) < slots:
                    children.append(spawn(*ready.popleft()))
                if not children:
                    if delayed:
                        time.sleep(
                            min(_POLL, max(0.0, delayed[0][0] - now))
                        )
                    continue

                # multiplex over the supervision pipes
                try:
                    conn_wait([c.conn for c in children], timeout=_POLL)
                except OSError:
                    pass
                now = time.monotonic()
                for child in list(children):
                    batch = self._drain(child, now)
                    if batch:
                        yield batch
                    for late in self._reap(child, children, ready, delayed, now):
                        yield late
        finally:
            for child in children:
                if child.proc.is_alive():
                    child.proc.kill()
                child.proc.join(timeout=1.0)
                child.conn.close()

    # -- supervisor internals -------------------------------------------

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
                child.finished = True
            # "hb" only refreshes last_msg
        return batch

    def _reap(
        self,
        child: _Child,
        children: List[_Child],
        ready,
        delayed,
        now: float,
    ) -> Iterator[List[TaskResult]]:
        """Handle completion, hang deadlines and death for one child."""
        cfg = self.config
        if child.finished:
            children.remove(child)
            child.proc.join(timeout=5.0)
            child.conn.close()
            return
        alive = child.proc.is_alive()
        if alive:
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
        if child.finished:
            children.remove(child)
            child.conn.close()
            return
        children.remove(child)
        child.conn.close()
        if child.kill_reason is None:
            obs_metrics.counter(
                "campaign.executor.resilient.worker_deaths"
            ).inc()

        remaining = list(child.tasks)
        attempts = dict(child.attempts)
        spawns = child.spawns + 1
        pending = {t.task_id for t in remaining}
        lost_ids = [i for i in child.current_ids if i in pending]
        if len(lost_ids) > 1:
            # died inside a multi-task group: no single task to charge,
            # so each re-runs alone, where a second death is attributable
            ready.extend(([t], attempts, spawns) for t in remaining)
            return
        lost_id = lost_ids[0] if lost_ids else None
        if lost_id is None and spawns > cfg.retries + 2:
            # the worker keeps dying/wedging before reaching any task
            # (e.g. an import-time crash): give up on the whole group
            # rather than respawning forever
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
        if remaining:
            delay = 0.0
            if lost_id is not None and lost_id in attempts:
                delay = backoff_delay(cfg.backoff, attempts[lost_id] - 1)
            if delay > 0:
                delayed.append((now + delay, remaining, attempts, spawns))
                delayed.sort(key=lambda it: it[0])
            else:
                ready.append((remaining, attempts, spawns))
