"""Host-speed calibration loop.

The benchmark host is shared, and its speed drifts by tens of percent
over stretches of seconds.  Every time the benchmark reports is scaled
to a reference host speed by :func:`calibrate`, from ``c``, the
duration of :func:`measure` taken in the same process close to the
measured interval.

The loop mixes the two kinds of work the measured program does: pure
Python integer arithmetic (interpreter bound) and a NumPy
``unique``/``bincount`` over a 64 KB int64 array.  It calls nothing in
``repro``, keeps no allocation alive between calls and runs with the
garbage collector off, so one call costs the same whatever the program
did before it.
"""

import gc
import time

import numpy as np

#: Duration of one :func:`measure` call on the reference host speed, in
#: seconds.  Fixed once; calibrated times are seconds at this speed.
C_REF = 0.0030

#: How much more the campaign slows than this loop when the host slows:
#: the slope of log(pass wall) on log(c) over fresh sample processes.
#: Measured on a 2-vCPU Xeon host at 1.31 (cold_rect), 1.33
#: (steady_price) and 1.46 (cold_tri3d), with correlations of 0.93 to
#: 0.99; with a slope of 1 the calibrated medians of repeated runs
#: still spread by 5 to 9 %.
SENSITIVITY = 1.35

_PY_ROUNDS = 7000
_NP_ROUNDS = 3
_NP_LEN = 8192  # int64 elements: 64 KB


def _work() -> int:
    x = 0
    for i in range(_PY_ROUNDS):
        x = (x * 31 + i * i) % 1000003
    a = (np.arange(_NP_LEN, dtype=np.int64) * 2654435761) % 4093
    for _ in range(_NP_ROUNDS):
        x += int(np.unique(a).size) + int(np.bincount(a).argmax())
    return x


_EXPECTED = _work()


def calibrate(wall: float, c: float) -> float:
    """``wall`` seconds measured at loop time ``c``, in seconds at the
    reference speed: ``wall * (C_REF / c) ** SENSITIVITY``."""
    return wall * (C_REF / c) ** SENSITIVITY


def measure() -> float:
    """Run the loop once; returns its wall time in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = _work()
        dt = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if x != _EXPECTED:
        raise RuntimeError("calibration loop returned a wrong value")
    return dt
