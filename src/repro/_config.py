"""One typed snapshot of the ``REPRO_*`` deployment settings.

Three environment knobs configure a campaign (see :data:`KNOBS`):
``REPRO_CAMPAIGN_COMPILE_DIR`` (persistent compile-cache directory),
``REPRO_STORE_FSYNC`` (fsync every result-store write: one per
compile-key group, not per record) and
``REPRO_FAULT_INJECT`` (the chaos harness's fault spec, see
:mod:`repro.campaign.faults`).  Everything else is a module constant or
an argument.

:meth:`Settings.from_env` is the only place in ``repro`` that reads the
environment.  Unset or blank knobs take their default; a malformed
value raises ``ValueError`` naming the knob.  The campaign runner takes
one snapshot per run and hands it to every executor worker, so
spawn-context workers run with exactly what the parent parsed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

COMPILE_DIR_ENV = "REPRO_CAMPAIGN_COMPILE_DIR"
FSYNC_ENV = "REPRO_STORE_FSYNC"
FAULT_ENV = "REPRO_FAULT_INJECT"

#: ``Settings`` field -> the environment knob it is parsed from
KNOBS: Dict[str, str] = {
    "compile_dir": COMPILE_DIR_ENV,
    "fsync": FSYNC_ENV,
    "fault_spec": FAULT_ENV,
}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _flag(name: str, raw: str) -> bool:
    """Case-insensitive ``1/true/yes/on`` or ``0/false/no/off``."""
    if raw.lower() not in _TRUE + _FALSE:
        raise ValueError(
            f"{name}={raw!r} is not a flag (use one of "
            f"{', '.join(_TRUE + _FALSE)})"
        )
    return raw.lower() in _TRUE


@dataclass(frozen=True)
class Settings:
    """The deployment settings of one campaign run (validated on
    construction; ``Settings()`` is the all-defaults snapshot)."""

    #: persistent compile-cache directory (None = no disk tier)
    compile_dir: Optional[str] = None
    #: force fsync on every result-store write (one write per
    #: compile-key group's records)
    fsync: bool = False
    #: raw fault-injection spec (None = injection off)
    fault_spec: Optional[str] = None

    def __post_init__(self) -> None:
        path = self.compile_dir
        if path is not None and (not path or os.path.isfile(path)):
            raise ValueError(f"{COMPILE_DIR_ENV}={path!r} is not a directory")
        if not isinstance(self.fsync, bool):
            raise ValueError(f"{FSYNC_ENV}={self.fsync!r} is not a flag")
        if self.fault_spec is not None:
            # the grammar's own errors name the knob
            from .campaign.faults import parse_fault_spec

            parse_fault_spec(self.fault_spec)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "Settings":
        """Parse the knobs from ``environ`` (default ``os.environ``)."""
        env = os.environ if environ is None else environ

        def raw(name: str) -> Optional[str]:
            return (env.get(name) or "").strip() or None

        fsync = raw(FSYNC_ENV)
        return cls(
            compile_dir=raw(COMPILE_DIR_ENV),
            fsync=False if fsync is None else _flag(FSYNC_ENV, fsync),
            fault_spec=raw(FAULT_ENV),
        )
