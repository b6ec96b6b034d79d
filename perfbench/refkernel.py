"""The reference kernel that end-to-end times are scaled by.

The kernel is fixed numpy work of the same kind as a fedtune call (SGD steps
of a small tanh MLP on one 32-row batch) that uses no fedtune code, so a
change to fedtune cannot change it. It runs on one CPU, as fedtune does: on
a shared machine it slows down together with a single-threaded call, but
not with a call that runs on several CPUs at once, which neighbours slow
more (see perfbench/README.md, "Reference seconds").
"""

import time

import numpy as np

# About the median wall time of kernel() on the reference machine (2 CPUs,
# OpenBLAS). End-to-end times are reported in seconds at that speed:
# measured time * REFERENCE_KERNEL_S / the kernel's time measured next to the
# measurement.
REFERENCE_KERNEL_S = 0.08
STEPS = 2000

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((32, 16))
_W1 = _RNG.uniform(-0.25, 0.25, (16, 16))
_W2 = _RNG.uniform(-0.25, 0.25, (16, 10))
_Y = np.arange(32) % 10
_ROWS = np.arange(32)


def kernel() -> float:
    """Seconds taken by STEPS SGD steps of the reference MLP."""
    t0 = time.perf_counter()
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(STEPS):
        h = np.tanh(_X @ w1)
        z = h @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[_ROWS, _Y] -= 1.0
        g2 = h.T @ p
        g1 = _X.T @ ((p @ w2.T) * (1.0 - h * h))
        w1 -= 0.01 * g1
        w2 -= 0.01 * g2
    return time.perf_counter() - t0
