"""Frozen reference kernel and the clock that times operations against it.

The machine this benchmark runs on is shared and its speed drifts by up to
~1.5x in phases a few seconds long, so raw wall-clock seconds do not repeat
between runs.  Every timed operation is therefore bracketed by a fixed
pure-Python reference kernel, which is also sampled on a timer while the
operation runs.  A time is reported in *reference-speed seconds*:

    normalised = raw * (KERNEL_REF_S / measured kernel time)

i.e. the time the operation would have taken on a machine where the kernel
takes exactly KERNEL_REF_S.

Do not edit ``kernel`` or ``KERNEL_REF_S``: every figure this benchmark has
ever reported is expressed in their terms.  The kernel imports nothing from
jfrac, so a change to the program cannot change the yardstick.
"""

import signal
import statistics
import time
from fractions import Fraction

# Kernel time that defines one reference-speed second (about the kernel's
# median on the machine the README describes).
KERNEL_REF_S = 0.002

# Kernel runs before and after every timed operation.
BRACKET = 5

# Interval of the in-operation kernel samples.
SAMPLE_PERIOD_S = 0.1


def kernel():
    """A running Fraction sum whose denominators grow to ~12k bits: Python
    calls and object churn plus big-integer products and gcds, the mix the
    exact core, mpmath's integer backend and the interpreter start all pay
    for.  Its time follows the machine's phases more closely than a
    small-integer loop does."""
    acc = Fraction(0)
    for i in range(1, 130):
        acc += Fraction(i ** 40 + 1, 3 ** i + 7)
    return acc


def kernel_time():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class RefClock:
    """Times operations and converts them to reference-speed seconds.

    ``time(..., sample=True)`` adds the in-operation timer samples (SIGALRM,
    main thread only); the time spent inside a sample is subtracted from the
    operation it interrupted.  For a child process this is sound only when
    parent and child are pinned to one core (run.py does so): the sample
    then pauses the child and measures the core it runs on.  ``raw_s`` and
    ``kernel_s`` keep every raw duration and kernel sample, so a slow phase
    of the machine shows in the run's diagnostics.
    """

    def __init__(self):
        self.kernel_s = []
        self.raw_s = []
        self._inner = []
        self._stolen = 0.0
        for _ in range(20):  # warm the kernel's own code paths
            kernel()

    def _on_alarm(self, signum, frame):
        dt = kernel_time()
        self._inner.append(dt)
        self._stolen += dt

    def bracket(self):
        return [kernel_time() for _ in range(BRACKET)]

    def time(self, fn, *args, sample=False):
        """Run fn(*args); return (result, reference-speed seconds)."""
        before = self.bracket()
        self._inner = []
        self._stolen = 0.0
        if sample:
            old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            raw = time.perf_counter() - t0
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, old)
        raw -= self._stolen
        samples = before + self._inner + self.bracket()
        self.kernel_s.extend(samples)
        self.raw_s.append(raw)
        return result, raw * KERNEL_REF_S / statistics.median(samples)

    def run_factor(self):
        """Whole-run conversion factor, for figures timed without brackets."""
        return KERNEL_REF_S / statistics.median(self.kernel_s)
