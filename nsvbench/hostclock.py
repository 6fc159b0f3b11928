"""Timings scaled to a fixed host speed.

The speed of a shared virtual machine drifts with the load of its host: on
the machine in README.md a fixed FFT loop ran up to twice as slow from one
minute to the next, and by a third from one second to the next, with CPU
time equal to wall time.  Wall times taken minutes apart then differ by more
than any regression worth finding.

A Stopwatch therefore samples the host's speed while it times a section: it
runs a fixed reference kernel (plain numpy and Python, never any nsvlab
code) right before and right after the section, and every
SAMPLE_PERIOD_S inside it from a SIGALRM handler, between two bytecodes of
the program.  The time spent in the handler is taken out of the section's
wall time, and the rest is scaled by REF_S over the mean reference time.
The result is the section's time at the host speed at which the reference
kernel takes REF_S seconds: a change in the program moves it as it moves
wall time, while a change in the host's speed largely cancels.  The wall
times and the reference times are kept beside it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 0.008            # nominal reference time: about its median on the machine in README.md
SAMPLE_PERIOD_S = 0.1    # reference samples inside a section, one per period

# five parts of about equal time, each slowed differently by a busy host
# (a mix tracked the workloads' own slow-downs better than any one part)
_SMALL = np.exp(1j * np.arange(2 * 64 * 64).reshape(2, 64, 64) * 0.001)    # 128 KB
_BATCH = np.exp(1j * np.arange(4 * 96 * 96).reshape(4, 96, 96) * 0.001)    # 576 KB
_STREAM = np.linspace(0.0, 1.0, 1 << 19)                                      # 4 MB
_STREAM_R = _STREAM[::-1].copy()


def reference_kernel():
    """Fixed work: small and batched FFTs, a memory stream, many small numpy
    calls and an interpreter loop, as in the workloads."""
    x = _SMALL
    for _ in range(4):
        x = np.fft.fft2(np.fft.ifft2(x) * 0.5)
    np.fft.fft2(np.fft.ifft2(_BATCH) * 0.5)
    _STREAM * _STREAM_R + _STREAM
    v = _SMALL[0, 0].real.copy()
    for _ in range(600):
        v = v * 1.0001 + 0.5
    s = 0
    for i in range(15_000):
        s += i * i % 7
    return s


def reference_time():
    """Seconds the reference kernel takes now."""
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t


class Stopwatch:
    """Times sections, sampling the reference kernel around and inside each;
    the sample after one section is the one before the next.  Make a new
    Stopwatch where untimed work (checks, other workloads) runs between
    sections.  With inside=False it samples only around sections, so that
    no sample lands inside a span of a traced section."""

    def __init__(self, inside=True):
        self.sections = []    # {"name", "s" (scaled), "wall_s", "ref_s" (mean), "samples"}
        self._last_ref = None
        self._period = SAMPLE_PERIOD_S if inside else 0.0

    def time(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); returns (its result, scaled seconds)."""
        refs = [self._last_ref if self._last_ref is not None else reference_time()]
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            t = time.perf_counter()
            refs.append(reference_time())
            paused += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - paused
        refs.append(reference_time())
        self._last_ref = refs[-1]
        ref_s = statistics.fmean(refs)
        scaled = wall * REF_S / ref_s
        self.sections.append({"name": name, "s": scaled, "wall_s": wall, "ref_s": ref_s,
                              "samples": len(refs)})
        return out, scaled

    def total(self, skip=()):
        """Scaled seconds of every section whose name is not in skip."""
        return sum(s["s"] for s in self.sections if s["name"] not in skip)


def warm_up():
    """Run the kernel untimed: its first runs in a process are slower."""
    for _ in range(20):
        reference_kernel()
