"""The in-process backend: no workers, no pickling, easiest to debug.

Runs every group sequentially in the calling process, through the same
:func:`~repro.campaign.executors.base.run_group` as the process
backends (SIGALRM group deadlines need the main thread).  Fault injection
is armed *without* the kill/hang capabilities — an injected ``kill``
must not shoot the main process, so both are downgraded to transient
failures (see :mod:`repro.campaign.faults`).

The parent's compile cache is used as-is (the config's pass-through
size equals the live setting by construction in ``run_campaign``), so
an inline campaign behaves exactly like the historical ``jobs=1`` path.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from .. import faults
from ..store import TaskResult
from ..sweep import SweepTask
from .base import Executor, register_executor, run_group


@register_executor
class InlineExecutor(Executor):
    name = "inline"

    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        faults.activate(
            self.config.fault_spec, allow_kill=False, allow_hang=False
        )
        try:
            for group in groups:
                yield run_group(group, self.config)
        finally:
            faults.deactivate()
