"""Wall time corrected for the load other tenants put on a shared machine.

On the 2-core virtual machines this benchmark was built on, the same work
takes from 1x to 1.5x as long from one moment to the next, because other
tenants share the host, and the share of slow moments changes from one
run to the next: run medians of raw wall times spread by 7 to 32% over
ten runs. So every timed operation is bracketed by a probe, ~25 ms of a
fixed mix of the program's kinds of work, and the operation's wall time
is divided by the mean of the two probe times. A reported time is the
median of these ratios times the clock's ``reference_s``, a fixed scale
near the probe's time on the quiet reference machine, so it reads
roughly as seconds there. The probe is the benchmark's own code: a
change to qamatch moves the operations, never the probe.

Two mixes are used because the program's parts slow down by different
amounts when the host is busy. The operation probe (a JSON record parse
and dump, a 256-row matrix product, a Python loop) tracks the CLI
commands and the setup; the step probe adds a 60-row forward and
backward pass and tracks training steps, whose cost on ``supervised`` is
mostly small-array overhead.
"""

import ctypes
import ctypes.util
import gc
import json
import statistics
import time

import numpy as np

PIECES = 10


def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    trim = getattr(ctypes.CDLL(ctypes.util.find_library("c")), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def release_garbage() -> None:
    """Collect Python garbage and hand the freed heap back to the OS.

    Without the trim, whether a round's freed memory stays resident
    depends on where small live objects happen to sit in glibc's heap,
    which flips with a path's length or a seed and moves peak RSS by 10%.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Clock:
    def __init__(self, steps: bool):
        """An operation clock, or with ``steps`` a training-step clock."""
        self.steps = steps
        # piece repetitions for a ~25 ms probe, and the scale: about the
        # piece's time with the reference 2-core box quiet
        self._reps, self.reference_s = (8, 2.1e-3) if steps else (24, 4.0e-3)
        rng = np.random.default_rng(0)
        self._record = json.dumps({"q": rng.standard_normal(48).tolist(),
                                   "c": rng.standard_normal(48).tolist()})
        self._x = rng.standard_normal((256, 96))
        self._w = rng.standard_normal((96, 64))
        self._v = rng.standard_normal((64, 3))
        self._rows = rng.permutation(256)[:60]
        self.probes = []

    def _piece(self) -> float:
        start = time.perf_counter()
        for _ in range(self._reps):
            json.dumps(json.loads(self._record))
            np.maximum(self._x @ self._w, 0.0).sum()
            if self.steps:
                h = np.maximum(self._x[self._rows] @ self._w, 0.0)
                z = np.exp(h @ self._v)
                (h.T @ (z / z.sum(axis=1, keepdims=True))).sum(axis=0)
            sum(i * i for i in range(300))
        return time.perf_counter() - start

    def probe(self) -> float:
        """Mean time of PIECES short pieces, so a probe averages over ~25 ms."""
        p = statistics.fmean(self._piece() for _ in range(PIECES))
        self.probes.append(p)
        return p

    def time(self, fn):
        """(result, wall seconds, wall in probe units) of ``fn()``.

        Garbage left by earlier work is released first, so it is not
        charged to ``fn``.
        """
        release_garbage()
        before = self.probe()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = self.probe()
        return result, wall, 2.0 * wall / (before + after)

    def seconds(self, units) -> float:
        """Probe units back to seconds on the reference machine."""
        return units * self.reference_s
