"""Machine-speed sampling, so that timings taken on a shared, noisy host compare.

On a virtual machine whose physical cores are shared, the same code can run
at half speed for seconds at a time.  The benchmark therefore times a fixed
reference kernel (complex SVDs, elementwise numpy and plain Python, the mix
hsangle runs) next to the workload and scales each workload interval by
the kernel's nominal time / (its time measured during the interval).  A
slowdown of the host stretches both alike and cancels; a change to hsangle
does not touch the kernel and shows in full.  The kernels are part of the
benchmark: changing one or its nominal time changes every number normalized
by it.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

SAMPLE_PERIOD_S = 0.1

# Reference kernels: (matrix dims, repetitions, seconds per run on an
# uncontended core of the machine in NOTES.md, its fastest state).  Each
# workload uses the kernel that resembles its own work: on this host a slow
# phase can slow Python-bound small SVDs and LAPACK-bound large ones by
# different factors, so one kernel cannot stand for every workload.
# Normalized timings read as if every run had the fastest speed.
KERNELS = {
    "small": ((2, 4, 6, 8), 25, 3.0e-3),
    "large": ((32, 48, 64), 1, 2.0e-3),
}

_rng = np.random.default_rng(20220913)
_MATS = {d: _rng.standard_normal((d, d)) + 1j * _rng.standard_normal((d, d))
         for dims, _, _ in KERNELS.values() for d in dims}


def reference_kernel(kernel: str) -> float:
    """Fixed work; returns a value so that nothing is optimized away."""
    dims, reps, _ = KERNELS[kernel]
    acc = 0.0
    for _ in range(reps):
        for d in dims:
            a = _MATS[d]
            _, s, vh = np.linalg.svd(a)
            b = (vh.conj().T * s) @ vh
            acc += float(np.linalg.norm(b - a)) + float(np.isfinite(b).all())
            acc += sum(j * j for j in range(20))
    return acc


class SpeedSampler:
    """Times the reference kernel every SAMPLE_PERIOD_S seconds from a SIGALRM
    handler while the workload runs in the main thread.

    Use as a context manager around the workload; it also samples on entry
    and exit, so every interval inside it lies between two samples.
    ``normalized(t0, t1)`` turns a workload interval into nominal seconds.
    """

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.nominal = KERNELS[kernel][2]
        self.start: list = []  # perf_counter when each sample began
        self.dur: list = []  # seconds the kernel took
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel(self.kernel)
        self.start.append(t0)
        self.dur.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        reference_kernel(self.kernel)  # warm-up
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def normalized(self, t0: float, t1: float) -> float:
        """Nominal seconds of the workload interval [t0, t1].

        The samples taken inside it cut it into segments.  A segment of
        length L between samples of durations a and b did the work of
        L * nominal * (1/a + 1/b) / 2 seconds at nominal speed; the
        samples themselves are not workload time.
        """
        i = bisect.bisect_left(self.start, t0)
        j = bisect.bisect_left(self.start, t1)
        if i == 0 or j == len(self.start):
            raise ValueError("interval not inside the sampled period")
        cuts = [t0]
        for k in range(i, j):
            cuts += [self.start[k], self.start[k] + self.dur[k]]
        cuts.append(t1)
        bracket = self.dur[i - 1 : j + 1]
        return sum(
            (cuts[2 * n + 1] - cuts[2 * n]) * self.nominal * (1 / bracket[n] + 1 / bracket[n + 1]) / 2
            for n in range(len(bracket) - 1)
        )
