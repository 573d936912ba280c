"""Host-speed probe: a fixed kernel timed between benchmark samples.

The benchmark runs on a few cores of a shared host whose speed swings
by a factor of up to two within seconds: neighbours slow down the
execution itself (CPU time moves with wall time), so neither CPU time
nor more samples take the swings out.  ``probe()`` times a fixed mix
of the work the sweeps do -- small elementwise numpy operations driven
from a Python loop, row-wise min/max and argsort, gamma draws and
sorts -- on inputs that never change.  It does not touch cogrelay, so a
change to the program cannot move it.

run.py times every sample between two probes and scales the sample's
wall time by ``REFERENCE_S / mean(probe before, probe after)``: the time
the sample would have taken at the host speed at which the probe takes
``REFERENCE_S``.  A program that gets 20% faster reads 20% lower; a host
that gets 20% slower for both reads the same.

    python3 perfbench/hostspeed.py      # print 50 probe times
"""

from __future__ import annotations

import time

import numpy as np

# a round figure near the probe's time on a 2-CPU x86_64 host (Python
# 3.11, numpy 2.4); it only sets the scale of the reported seconds
REFERENCE_S = 0.1

_MATRIX = np.random.default_rng(0).standard_normal((2000, 24))


def probe() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(30):
        shifted = _MATRIX * 1.5 + 0.3
        np.argsort(np.min(shifted, axis=1))
        np.maximum(shifted[:, :12], shifted[:, 12:]).max(axis=1)
        np.exp(-np.abs(shifted)).sum()
    rng = np.random.default_rng(1)
    for _ in range(20):
        np.sort(rng.gamma(2.0, size=(20000, 6)), axis=1)
    return time.perf_counter() - start


if __name__ == "__main__":
    probe()
    print(" ".join(f"{probe():.4f}" for _ in range(50)))
