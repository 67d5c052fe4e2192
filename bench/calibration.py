"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes, and wall time alone drifts with it.  A
fixed calibration kernel is timed right before every call.  It runs the
same mix as the library's hot paths: seeding a generator, small-array
numpy and LAPACK work on (100, 10) samples, scipy.special Bessel and 1F1
calls, and interpreter work that formats rows and round-trips JSON.  A
call's time is then scaled to a machine on which the kernel takes
``NOMINAL_S``:

    scaled = wall * NOMINAL_S / (kernel time just before the call)

The kernel uses no library code, so a change to the library moves the
scaled times as it moves wall time at a fixed machine speed.  A kernel
that ran only an interpreter loop and 8x8 numpy work tracked the studies
about half as well, because contention for caches slows the library's
broad code paths more than it slows a tight loop.

Set-up time is dominated by importing numpy and scipy, which the kernel
tracks poorly, so each set-up probe is paired with a fresh interpreter
that imports only those (``REFERENCE_IMPORT``) and is scaled to a machine
on which that takes ``REFERENCE_NOMINAL_S``.

Raw wall times are still reported in each run's summary and result file.
"""

from __future__ import annotations

import json
import time

import numpy as np
import scipy.special

NOMINAL_S = 1.6e-3  # about the kernel's time on a 2-core Xeon VM

REFERENCE_IMPORT = "import numpy, scipy.special, scipy.optimize"
REFERENCE_NOMINAL_S = 0.6  # its time to ready on the same machine

_SHIFT = np.eye(10)


def kernel() -> float:
    """Run the calibration kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    for r in range(4):
        g = np.random.Generator(np.random.PCG64(r))
        z = g.standard_normal((100, 10))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        m = z.T @ z / 100
        np.linalg.eigh(m)
        np.linalg.solve(m + _SHIFT, z.mean(axis=0))
        scipy.special.ive(4.0, 3.5 + r)
        scipy.special.hyp1f1(0.5, 5.0, 3.0 + r)
    rows = {f"k{i}": [i * 0.5, str(i), (i % 7) * 1.25] for i in range(150)}
    "\n".join(",".join(f"{v}" for v in row)
              for row in sorted(rows.values(), key=lambda row: -row[0]))
    json.loads(json.dumps(rows))
    return time.perf_counter() - t0


def scale(walls: list[float], kernels: list[float]) -> list[float]:
    """Scale each wall time by the kernel time measured just before it."""
    return [wall * NOMINAL_S / k for wall, k in zip(walls, kernels)]
