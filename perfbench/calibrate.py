"""Host-speed calibration, so that timings survive a shared, throttled host.

On a host shared with other tenants the same code runs up to twice as
slow for tens of seconds at a time, on every core at once.  A run that
lands in such a spell would read as a regression.  So every timed interval
is bracketed by a fixed calibration kernel (no robustreg code, a mix of
small numpy reductions and Python float arithmetic like the library's hot
loops), and reported scaled to the kernel's speed on the reference host:

    reported = raw * REF_KERNEL_S / mean(kernel time before, kernel time after)

The raw times are kept next to the scaled ones in the result record.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on the reference host (2-vCPU Intel Xeon VM, unloaded)
REF_KERNEL_S = 2.0e-3
_ROWS = np.random.default_rng(0).uniform(size=(64, 48))


def _kernel_once() -> float:
    t0 = time.perf_counter()
    s = 0.0
    for i in range(400):
        s += float(np.abs(_ROWS[i % 64] - 0.5).max())
    for i in range(20000):
        s += i * 0.5
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Best of three kernel runs: robust to a single preemption."""
    return min(_kernel_once() for _ in range(3))


def scaled(raw_s: float, before_s: float, after_s: float) -> float:
    return raw_s * REF_KERNEL_S / ((before_s + after_s) / 2)
