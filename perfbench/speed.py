"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same code runs up to about 1.5x
slower at times, in CPU time as well as wall time, and the slow share drifts
over minutes.  A fixed kernel timed next to each operation slows down with
it, so ``time * NOMINAL_S / kernel_time`` reports every timing at one
reference speed: the speed at which the kernel takes NOMINAL_S.  The kernel
is a mix of interpreter work and small NumPy/LAPACK calls, like the solver's
loops, and calls no csrchain code, so no change to the package moves it.
"""
import time

import numpy as np

NOMINAL_S = 1e-3

_A = np.eye(4) * 2.0 + 0.1
_B = np.ones(4)
_M = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def _kernel() -> float:
    total = 0.0
    for i in range(3600):
        total += (i * 0.5) % 7.0
        if i % 30 == 0:
            total += float(np.linalg.solve(_A, _B)[0])
    return total + float((_M @ _M)[0, 0])


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def factor(kernel_s: float) -> float:
    """Multiply a time measured alongside ``kernel_s`` by this to report it
    at the reference speed."""
    return NOMINAL_S / kernel_s
