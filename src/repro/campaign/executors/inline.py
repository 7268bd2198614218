"""The in-process backend: no workers, no pickling, easiest to debug.

Runs every group sequentially in the calling process, through the same
:func:`~repro.campaign.executors.base.run_group` as the process
backends (SIGALRM group deadlines need the main thread).  Fault injection
is armed *without* the kill/hang capabilities — an injected ``kill``
must not shoot the main process, so both are downgraded to transient
failures (see :mod:`repro.campaign.faults`).

The run's settings are installed in the calling process for the
duration of the run and reset to the defaults afterwards.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from ..._config import Settings
from ..runner import apply_settings
from ..store import TaskResult
from ..sweep import SweepTask
from .base import Executor, register_executor, run_group


@register_executor
class InlineExecutor(Executor):
    name = "inline"

    def run(
        self, groups: Sequence[List[SweepTask]]
    ) -> Iterator[List[TaskResult]]:
        apply_settings(self.config.settings)
        try:
            for group in groups:
                yield run_group(group, self.config)
        finally:
            apply_settings(Settings())
