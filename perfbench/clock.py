"""Machine-speed calibration of measured wall times.

On a shared 2-vCPU virtual machine the same training pass ran from 84 to
160 ms per iteration, and greedy episodes from 2.9 to 6.5 ms, in slow and
fast phases that last from under a second to minutes. Runs made minutes
apart then differ by more than any useful bound, and phases that change
inside a pass reshape the distribution whose percentiles are reported.

So untraced runs time a small fixed kernel right before every measured item
(every optimiser iteration, every greedy episode) and scale each item's wall
time by `CAL_REF_S[loops] / median kernel time per loop` over the kernels
of the items within `window` of it. Kernel time is excluded from the items; the
rest of a pass's work (set-up inside `training.train`, the metric code of
`evaluation.evaluate`) is scaled by the pass's median scale, and set-up time
by the median of kernels run after each set-up. On identical repeated
training passes, scaling by the kernel times next to each iteration cut the
pass-to-pass coefficient of variation from 0.16 to 0.045.

Reported times are therefore milliseconds at the machine speed where one
kernel loop takes `CAL_REF_S`; raw wall times are recorded next to them.
Short kernels run faster per loop, so each kernel size has its reference.
The kernel is shaped like imnav's inner loop (small float32 matmuls and
elementwise ops, small objects holding closures, a reverse walk over them)
and does not call imnav, so a change to the program does not move it.
"""

import statistics
import time

import numpy as np

TRAIN_LOOPS = 250       # before each optimiser iteration: ~7.5 ms against ~100 ms
EVAL_LOOPS = 40         # before each greedy episode: ~0.6 ms against ~3.5 ms
# seconds per kernel loop on a 2-vCPU Xeon at 2.1 GHz, where it runs
CAL_REF_S = {TRAIN_LOOPS: 30e-6, EVAL_LOOPS: 16e-6}
_W = (np.random.default_rng(0).standard_normal((64, 64)) * 0.1).astype(np.float32)


class _Node:
    __slots__ = ("values", "parents", "back")


def kernel_s(loops):
    """Seconds per loop of one run of the calibration kernel."""
    x = _W[:12].copy()
    tape = []
    t0 = time.perf_counter()
    for _ in range(loops):
        y = np.maximum(x @ _W, 0.0)
        x = (y / (y.sum(axis=1, keepdims=True) + 1.0)).astype(np.float32)
        node = _Node()
        node.values = x
        node.parents = (tape[-1],) if tape else ()
        node.back = lambda g, y=y: (g @ _W.T) * (y > 0.0)
        tape.append(node)
    g = np.ones_like(x)
    for node in reversed(tape):
        g = node.back(g)
    return (time.perf_counter() - t0) / loops


class Clock:
    """Calibration points for one run; disabled (every scale 1) in traced runs,
    whose per-layer self times must not contain the kernel."""

    def __init__(self, enabled):
        self.enabled = enabled

    def kernel(self, loops):
        """Run the kernel; returns the machine speed: reference seconds per
        loop over measured seconds per loop (1 when disabled)."""
        return CAL_REF_S[loops] / kernel_s(loops) if self.enabled else 1.0

    @staticmethod
    def scales(speeds, window):
        """Per item, the factor from wall time to time at the reference
        machine speed: the median speed of the items within `window`."""
        return [statistics.median(speeds[max(0, i - window):i + window + 1])
                for i in range(len(speeds))]
