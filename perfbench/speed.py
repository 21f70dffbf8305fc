"""Speed probe: rescale a workload process's wall times to a fixed core speed.

On a host that shares its cores with other tenants, a core's speed changes
by a third or more for seconds at a time, and process CPU time changes with
it.  A median over runs cannot remove a slowdown that lasts longer than a
run, so the probe measures the core's speed where and while the program
runs: a wall-clock timer signal interrupts the workload process every
``INTERVAL_S`` (every ``DENSE_INTERVAL_S`` for the first ``DENSE_SPAN_S``
of a phase that may be short), and the handler times ``kernel`` -- a fixed mix of small-array numpy work per sample
and a batched matmul, the kind of work the pipeline does.

``Probe.rescaled(lo, hi)`` is the wall time of ``[lo, hi)`` without the
probes inside it, times ``REFERENCE_S`` over the mean probe time inside it:
the window's time on a core that runs the kernel in ``REFERENCE_S``.  The
longest ``TRIM`` of the probes are left out of the mean, because a probe
that was preempted measures the scheduler, not the core.  The program's own
work is untouched, so a change that makes the program faster makes every
rescaled time shorter by the same share as its wall time.

Signal handlers run in the main thread, between bytecodes.  Traced runs do
not probe, so their span times stay as measured.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
DENSE_INTERVAL_S = 0.005
DENSE_SPAN_S = 0.5
# ``kernel`` time on an uncontended core of a 2-core x86-64 VM (numpy 2.x,
# one OpenBLAS thread); it only sets the scale of the rescaled times.
REFERENCE_S = 0.001
TRIM = 0.1

_rng = np.random.default_rng(20210616)
_W = _rng.standard_normal((48, 64)) * 0.1
_V = _rng.standard_normal((64, 10)) * 0.1
_IMAGES = _rng.standard_normal((100, 16, 48))
_BITS = _rng.random((100, 16)) < 0.5


def kernel() -> float:
    """About 1 ms of fixed work: 100 per-sample patch mixes and one batched
    forward and weight-gradient matmul of a 16-patch, 64-unit layer."""
    acc = 0.0
    for i in range(len(_IMAGES)):
        mixed = np.where(_BITS[i][:, None], _IMAGES[i], _IMAGES[i - 1])
        acc += float(mixed[0, 0])
    hidden = np.maximum(_IMAGES @ _W, 0.0)
    logits = hidden.mean(axis=1) @ _V
    logits -= logits.max(axis=1, keepdims=True)
    grad = _IMAGES.reshape(-1, 48).T @ np.repeat(logits @ _V.T, 16, axis=0)
    return acc + float(grad[0, 0])


def trimmed_mean(durations: list[float]) -> float:
    """Mean without the longest ``TRIM`` share (at least one value kept)."""
    kept = sorted(durations)[: max(1, round(len(durations) * (1.0 - TRIM)))]
    return sum(kept) / len(kept)


class Probe:
    """Timer-driven speed probes of the current process."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._dense_until = None
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a late tick while a probe runs would nest inside it
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
            if self._dense_until is not None and self.ends[-1] > self._dense_until:
                self.dense(False)
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def dense(self, on: bool) -> None:
        """Probe every ``DENSE_INTERVAL_S`` for the next ``DENSE_SPAN_S``
        (enough probes for a phase too short for ``interval`` to sample
        well, at a small cost to a long one), or back at ``interval``."""
        self._dense_until = time.perf_counter() + DENSE_SPAN_S if on else None
        step = DENSE_INTERVAL_S if on else self.interval
        signal.setitimer(signal.ITIMER_REAL, step, step)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def durations(self, lo: float, hi: float) -> list[float]:
        """Durations of the probes that ran inside ``[lo, hi]``.

        A handler runs to completion between two bytecodes, so no probe
        spans a boundary the program records."""
        return [e - s for s, e in zip(self.starts, self.ends) if s >= lo and e <= hi]

    def rescaled(self, lo: float, hi: float) -> float:
        """Time of ``[lo, hi)`` without its probes, at ``REFERENCE_S`` speed.

        A window too short to hold a probe takes the speed of the whole run."""
        inside = self.durations(lo, hi)
        speed_from = inside or self.durations(float("-inf"), float("inf"))
        if not speed_from:
            raise RuntimeError("the speed probe never ran")
        return (hi - lo - sum(inside)) * REFERENCE_S / trimmed_mean(speed_from)
