"""Machine-speed probes that the end-to-end times are rescaled by.

The benchmark was tuned on a shared 2-core virtual machine whose speed
drifts with its neighbours' load: the same warm pass of a sweep took
between 1x and 1.8x its quiet time within six minutes, and the median of
a 20-second run moved by 20% between runs. A fixed probe that does not
touch the program, timed before and after every pass, follows that drift.
Each pass time ``t`` is reported as ``t * REFERENCE_S[kind] / k``, with
``k`` the mean of the two probes around the pass (wall time of the probe
for wall times, CPU time of the probe for CPU times): seconds at the speed
at which the probe takes its reference time. The probes do not depend on the
program, so a change to the program moves ``t`` and leaves ``k`` alone;
ratios between commits keep their meaning. Raw times are printed beside
the rescaled ones.

The drift hits interpreted code much harder than vectorized numpy code,
so there are two probes and each workload uses the one that resembles its
hot path:

``mixed``   string parsing, small tuples and dicts, float arithmetic and
            numpy calls on scalars, followed by the ``vector`` kernel (the
            sweeps, scoring and imports, which interleave interpreted and
            vectorized steps; the interpreted part alone overstates how
            much they slow down);
``vector``  64-bit integer mixing and float conversion over half a million
            elements (the simulator).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe times on an idle core of the tuning machine (Intel Xeon, 2.1 GHz).
REFERENCE_S = {"mixed": 0.015, "vector": 0.0065}

_COUNTERS = np.arange(1 << 19, dtype=np.uint64)
_MIX = np.uint64(0xBF58476D1CE4E5B9)


def _interpreter():
    table = {}
    acc = 0.0
    for i in range(1000):
        farmer, value = f"F{i % 977},{i * 0.37:.3f}".split(",")
        v = float(value)
        table[farmer] = (v, i)
        e = np.clip(0.01 * np.asarray(v, dtype=float) + 0.2, 0.0, 1.0)
        acc += float(e * e - 0.5 * e)
    return acc


def _vector():
    with np.errstate(over="ignore"):
        z = _COUNTERS * _MIX
        z ^= z >> np.uint64(31)
        z *= _MIX
        z ^= z >> np.uint64(29)
        return float((z >> np.uint64(11)).astype(np.float64).sum())


def _mixed():
    return _interpreter() + _vector()


_KERNELS = {"mixed": _mixed, "vector": _vector}


def probe(kind, repeats=3):
    """Median wall and CPU seconds of ``repeats`` runs of one probe kernel.

    CPU time is rescaled by the CPU-time probe: when the host deschedules
    this VM, wall time grows and CPU time does not.
    """
    kernel = _KERNELS[kind]
    walls, cpus = [], []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)
