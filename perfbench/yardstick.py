"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host is a few virtual CPUs of a shared machine. Its speed
moves in phases: the same command may take 0.75 s for a minute and 1.6 s
the next, with CPU time equal to wall time throughout, so no choice of
clock removes the change. The yardstick is timed next to every measured
command. Dividing the command's time by the yardstick's, and multiplying by
the yardstick's time on the reference host (``REFERENCE_S``), gives the
command's time at the reference host's speed.

The work mixes what pcekit spends its time on: per-record Python arithmetic
and dict updates, and the small matrix products and solves of a logistic
fit. It never calls pcekit, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the yardstick's time on the reference host (2 vCPUs, Intel Xeon,
# Python 3.11, numpy 2.4, one BLAS thread). Only a scale: any fixed value
# keeps the comparison between two commits the same.
REFERENCE_S = 0.09

_RNG = np.random.default_rng(0)
_X = np.column_stack([np.ones(500), _RNG.standard_normal((500, 2))])
_Y = (_RNG.random(500) < 0.5).astype(float)
_BETA = np.array([0.1, 0.2, -0.3])


def yardstick() -> float:
    """Seconds taken by the fixed work."""
    start = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(360_000):
        v = (i % 97) * 0.5 + 1.0
        acc += v * v / (v + 1.0)
        table[i & 511] = acc
    for _ in range(900):
        p = 1.0 / (1.0 + np.exp(-(_X @ _BETA)))
        w = p * (1.0 - p)
        np.linalg.solve(_X.T @ (_X * w[:, None]), _X.T @ (_Y - p))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, yard_before: float, yard_after: float) -> float:
    """``seconds`` scaled by the reference over the yardstick times on either side."""
    return seconds * REFERENCE_S / ((yard_before + yard_after) / 2.0)
