"""Calibration of timings against the machine's current speed.

On a shared 2-vCPU virtual machine the vCPU speed changes by up to 2x for
seconds to minutes at a time (README.md), which moves every timing of a run
together.  A run therefore times steps of a fixed mpmath loop that no sobspec
change touches, in blocks before and after each timed interval (for
CAL_SHARE of it, at least CAL_MIN_S).  It scales the interval by
CAL_NOMINAL_STEP_S over the median step time: the time a machine stepping
the loop in CAL_NOMINAL_STEP_S would show.

The loop runs only between ops, never inside one: steps timed during an op
run in the op's cache and heap state, so they slow down with the op and
would hide part of a regression.
"""

from __future__ import annotations

import gc
import statistics
import time

import mpmath

CAL_BLOCK_STEPS = 2000
CAL_NOMINAL_STEP_S = 5e-6
CAL_SHARE = 0.1
CAL_MIN_S = 0.03


class Calibrator:
    """Machine speed around each timed interval.

    The loop runs in a private mpmath context, so it neither reads nor
    changes the precision of the code it measures, and with garbage
    collection off, so that a collection of the op's heap does not slow it.
    """

    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.prec = 256
        self.before = self._block(CAL_MIN_S)

    def _step_time(self, steps):
        """Seconds per step of x <- 3.7 x (1 - x) at 256 bits."""
        start = time.perf_counter()
        x, r = self.ctx.mpf(1) / 3, self.ctx.mpf("3.7")
        for _ in range(steps):
            x = r * x * (1 - x)
        return (time.perf_counter() - start) / steps

    def _block(self, budget):
        samples = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            while not samples or time.perf_counter() - start < budget:
                samples.append(self._step_time(CAL_BLOCK_STEPS))
        finally:
            if enabled:
                gc.enable()
        return samples

    def scale(self, elapsed):
        """Factor that calibrates the interval of ``elapsed`` seconds just timed."""
        after = self._block(max(CAL_MIN_S, CAL_SHARE * elapsed))
        step = statistics.median(self.before + after)
        self.before = after
        return CAL_NOMINAL_STEP_S / step
