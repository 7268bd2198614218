"""Deterministic fault injection for campaign robustness testing.

The chaos harness (``benchmarks/bench_chaos.py``) and the executor
tests need to *provoke* the failure modes the resilient execution layer
claims to survive: transient task failures, worker processes killed by
the OS (OOM killer, SIGKILL) and native-code hangs that SIGALRM cannot
interrupt.  This module turns the ``REPRO_FAULT_INJECT`` spec (parsed
once per campaign into :class:`repro._config.Settings` and armed in
every worker by ``init_worker``) into those events, deterministically,
so a faulted campaign is reproducible and its fault set is
*predictable* in advance (:func:`would_fault`).

Spec grammar (clauses separated by ``;``, options by ``,``)::

    REPRO_FAULT_INJECT = clause (";" clause)*
    clause = mode [":" opt ("," opt)*]
    mode   = "fail" | "hang" | "kill"
    opt    = "p=F"      probability per (task, attempt), hash-based
           | "seed=I"   seed of the probability hash (default 0)
           | "task=S"   fire on task ids starting with S
           | "times=I"  with task=: sabotage the first I attempts (default 1)
           | "n=I"      fire on the I-th injection check of this process

Examples::

    REPRO_FAULT_INJECT="kill:p=0.2,seed=7"      # ~20% of tasks SIGKILL their worker
    REPRO_FAULT_INJECT="fail:task=3f2a,times=2" # task 3f2a... fails twice, then works
    REPRO_FAULT_INJECT="hang:n=3;fail:p=0.1"    # 3rd check hangs; 10% transient fails

Selection is **order-independent** for ``p=``/``task=`` clauses: the
decision is a pure function of ``(seed, mode, task_id, attempt)``, so
the same tasks fault no matter how a pool schedules them, and a retry
(``attempt`` + 1) re-rolls — injected faults are *transient* by
construction unless ``times=``/``p=1`` pins them.  ``n=`` is a
per-process counter for targeted unit tests.  Clauses are checked in
order; the first that fires wins.

Fault modes and the capability gate:

* ``fail`` — raise :class:`InjectedFault` (recorded as a typed
  ``error_kind="fault"`` error);
* ``kill`` — ``SIGKILL`` the current process.  Only honoured when the
  executor marked the process *sacrificial* (``allow_kill=True``, i.e.
  a pool/supervised worker); otherwise downgraded to ``fail`` so an
  inline run cannot shoot the main process;
* ``hang`` — block ``SIGALRM`` and sleep forever, simulating a hung
  native call.  Only honoured under the ``resilient`` executor
  (``allow_hang=True``), whose supervisor detects and kills hung
  workers; elsewhere downgraded to ``fail``.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from .._config import FAULT_ENV

MODES = ("fail", "hang", "kill")


class InjectedFault(RuntimeError):
    """A transient failure raised by the fault-injection harness."""


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a ``REPRO_FAULT_INJECT`` spec."""

    mode: str  # "fail" | "hang" | "kill"
    p: Optional[float] = None
    seed: int = 0
    task: Optional[str] = None
    times: int = 1
    n: Optional[int] = None

    def fires(self, task_id: str, attempt: int, counter: int) -> bool:
        """Pure selector: does this clause fire for this check?

        ``counter`` is the 1-based index of the injection check within
        the process (used by ``n=`` clauses only).
        """
        if self.n is not None:
            return counter == self.n
        if self.task is not None:
            return task_id.startswith(self.task) and attempt <= self.times
        if self.p is not None:
            return _roll(self.seed, self.mode, task_id, attempt) < self.p
        return False


def _roll(seed: int, mode: str, task_id: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed on the check identity."""
    key = f"{seed}:{mode}:{task_id}:{attempt}".encode()
    return int.from_bytes(hashlib.sha1(key).digest()[:8], "big") / 2.0**64


def parse_fault_spec(text: str) -> List[FaultClause]:
    """Parse a ``REPRO_FAULT_INJECT`` value; raises ``ValueError`` with
    a friendly message on a malformed spec."""
    clauses: List[FaultClause] = []
    for raw in text.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        mode, _, opts = raw.partition(":")
        mode = mode.strip()
        if mode not in MODES:
            raise ValueError(
                f"bad {FAULT_ENV} clause {raw!r}: unknown mode {mode!r} "
                f"(known: {', '.join(MODES)})"
            )
        kw = {"mode": mode}
        for opt in opts.split(",") if opts else []:
            key, sep, val = opt.partition("=")
            key = key.strip()
            val = val.strip()
            if not sep or key not in ("p", "seed", "task", "times", "n"):
                raise ValueError(
                    f"bad {FAULT_ENV} option {opt!r} in clause {raw!r} "
                    "(known: p=, seed=, task=, times=, n=)"
                )
            try:
                if key == "p":
                    kw["p"] = float(val)
                    if not 0.0 <= kw["p"] <= 1.0:
                        raise ValueError
                elif key == "task":
                    kw["task"] = val
                else:
                    kw[key] = int(val)
            except ValueError:
                raise ValueError(
                    f"bad {FAULT_ENV} value {val!r} for {key}= in clause "
                    f"{raw!r}"
                ) from None
        if kw.get("p") is None and kw.get("task") is None and kw.get("n") is None:
            raise ValueError(
                f"bad {FAULT_ENV} clause {raw!r}: needs a selector "
                "(p=, task= or n=)"
            )
        clauses.append(FaultClause(**kw))
    return clauses


def would_fault(
    clauses: Sequence[FaultClause], task_id: str, attempt: int = 1
) -> Optional[str]:
    """Predict which mode (if any) fires for ``(task_id, attempt)``.

    Pure — this is how the chaos harness computes the expected fault
    set before running.  ``n=`` clauses are skipped: they depend on the
    per-process check counter, which is execution-order dependent.
    """
    for clause in clauses:
        if clause.n is None and clause.fires(task_id, attempt, counter=0):
            return clause.mode
    return None


class FaultPlan:
    """An activated spec bound to the current process's capabilities."""

    def __init__(
        self,
        clauses: Sequence[FaultClause],
        allow_kill: bool = False,
        allow_hang: bool = False,
    ):
        self.clauses = list(clauses)
        self.allow_kill = allow_kill
        self.allow_hang = allow_hang
        self.counter = 0

    def check(self, task_id: str, attempt: int) -> Optional[str]:
        self.counter += 1
        for clause in self.clauses:
            if clause.fires(task_id, attempt, self.counter):
                return clause.mode
        return None


_active: Optional[FaultPlan] = None


def activate(
    spec: Union[str, Sequence[FaultClause], None],
    allow_kill: bool = False,
    allow_hang: bool = False,
) -> None:
    """Arm fault injection for this process (``None``/empty disarms).

    Executors call this in their worker entry points with the
    capabilities the backend can survive; see the module doc for the
    downgrade rules.
    """
    global _active
    if spec is None or spec == "" or spec == []:
        _active = None
        return
    clauses = parse_fault_spec(spec) if isinstance(spec, str) else list(spec)
    _active = FaultPlan(clauses, allow_kill=allow_kill, allow_hang=allow_hang)


def maybe_inject(task_id: str, attempt: int) -> None:
    """Fire the configured fault for this check, if any.

    ``fail`` (and any downgraded mode) raises :class:`InjectedFault`;
    ``kill`` SIGKILLs the process; ``hang`` blocks SIGALRM and sleeps —
    both only when the active plan allows them.
    """
    if _active is None:
        return
    mode = _active.check(task_id, attempt)
    if mode is None:
        return
    if mode == "kill" and _active.allow_kill:
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang" and _active.allow_hang:
        # simulate a hung native call: SIGALRM cannot interrupt it, so
        # only a supervising parent (heartbeat/deadline kill) recovers
        if hasattr(signal, "pthread_sigmask") and hasattr(signal, "SIGALRM"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        while True:  # pragma: no cover - the supervisor kills us
            time.sleep(3600)
    note = "" if mode == "fail" else f" (injected {mode} downgraded to fail)"
    raise InjectedFault(
        f"[fault-injected] transient failure for task {task_id} "
        f"attempt {attempt}{note}"
    )
