"""Shared parsing of the ``REPRO_*`` environment knobs.

Unset (or blank) knobs take their default; a malformed value raises
``ValueError`` naming the variable and the value, so a typo fails at
import instead of silently running with the default.
"""

from __future__ import annotations

import os
from typing import Optional

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _raw(name: str) -> Optional[str]:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw.strip()


def env_int(name: str, default: int) -> int:
    """Integer environment knob (invalid *values* like zero are
    rejected by the consumer, which can point at the knob in its error
    message)."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment knob: ``1``/``true``/``yes``/``on`` enable,
    ``0``/``false``/``no``/``off`` disable (case-insensitive)."""
    raw = _raw(name)
    if raw is None:
        return default
    val = raw.lower()
    if val in _TRUE:
        return True
    if val in _FALSE:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a flag (use one of "
        f"{', '.join(_TRUE + _FALSE)})"
    )
