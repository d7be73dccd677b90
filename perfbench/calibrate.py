"""Sampling how fast the machine runs while the benchmark measures.

On a shared host the speed of one core switches between states every tenth
of a second or so, and even 10 s averages drift by about ten percent.  The
worker therefore samples speed throughout its own run: a timer signal runs
`chunk()`, a fixed piece of reference work, forty times a second.  The
time spent in the handler is subtracted from whatever was being timed, and
a timed interval is scaled by the mean speed REFERENCE_S / chunk time of the
samples taken inside it.  A change to the program moves the measured time
but not the chunk, so scaled times keep every program effect while the
host's drift cancels.

The chunk mixes small numpy calls on int arrays with table lookups, a
big-integer recurrence and short-lived strings, the kinds of work the
package does; on the host it was built on, its slowdown between fast and
slow states is close to that of the group and Pell workloads.  It touches
only a few kilobytes and no garbage-collected objects, so a program that
holds more memory does not make the chunk slower.  It calls nothing in
garlands.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import numpy as np

# about one chunk's time on the 2-core x86-64 machine the benchmark was
# built on (Python 3.11, numpy 2.4); it only sets the scale of the results
REFERENCE_S = 0.001
INTERVAL_S = 0.025  # one sample every this many seconds of wall time
MIN_SAMPLES = 3

_rng = np.random.default_rng(20240601)
_MATS = _rng.integers(0, 5, size=(64, 3, 3)).astype(np.int16)
_KEYPOW = np.array([5**i for i in range(9)], dtype=np.int64)
_LUT = _rng.integers(0, 256, size=1024).astype(np.int32)  # small, so cache misses do not count


def chunk() -> float:
    """Seconds taken by one fixed unit of reference work.

    The chunk allocates no container objects and runs with the cyclic
    garbage collector off, so its time does not grow with the program's heap.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_chunk()
    finally:
        if gc_was_enabled:
            gc.enable()


def _timed_chunk() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(30):
        prod = ((_MATS.astype(np.int32) @ _MATS[i].astype(np.int32)) % 5).astype(np.int16)
        keys = prod.reshape(-1, 9).astype(np.int64) @ _KEYPOW
        acc += int(_LUT[keys & 1023].sum())
    h0, h1, k0, k1 = 1, 3, 0, 1
    for a in range(1, 600):
        h0, h1 = h1, (a % 97 + 1) * h1 + h0
        k0, k1 = k1, (a % 89 + 1) * k1 + k0
    acc += (h1 * k0 - h0 * k1) & 1
    acc += len("".join(map(str, range(300))))
    if acc < 0:
        raise AssertionError("unreachable: keeps the work observable")
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs `chunk()` from a SIGALRM timer and keeps (start, end, speed) per sample."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        dt = chunk()
        self.starts.append(t0)
        self.speeds.append(REFERENCE_S / dt)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        chunk()  # the first chunk in a process runs cold
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the sampler itself took inside [t0, t1)."""
        lo, hi = self._range(t0, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the samples inside [t0, t1), widened to MIN_SAMPLES."""
        lo, hi = self._range(t0, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.speeds)):
            lo, hi = max(0, lo - 1), min(len(self.speeds), hi + 1)
        picked = self.speeds[lo:hi]
        if not picked:
            raise RuntimeError("no speed samples were taken")
        return sum(picked) / len(picked)
