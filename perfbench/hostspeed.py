"""A fixed reference computation that gauges the host's speed, not camlab's.

On a shared VM the same camlab item can take a third longer in one minute
than in the next, with process CPU time tracking wall time: the CPU
itself runs slower.  The benchmark therefore times this reference pass
between items and scales every measured time by REFERENCE_S / (the
mean of the reference passes just before and just after it), so that a
time reads as it would on a host where one pass takes REFERENCE_S.  The
pass is the benchmark's own numpy code, in the style of camlab's layers
(im2col convolutions as BLAS matmuls, max-pooling, the transposed matmul
of a backward pass) on 48x48 inputs; a change to camlab cannot change
it.
"""

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REFERENCE_S = 0.012   # one pass on the nominal host (a 2-core x86_64 VM)
# Reference passes used on each side of a measurement.  The host changes
# speed within seconds: in 60-second runs, the item times of 10-item
# chunks varied least (3.2 % on explain, 3.6 % on train, against 4.3-4.8 %
# with 4 passes a side and 9-10 % unscaled) with one pass a side.
WINDOW = 1

_rng = np.random.default_rng(0)
_IMAGES = _rng.random((4, 1, 48, 48))
_K1 = _rng.standard_normal((8, 25))
_K2 = _rng.standard_normal((16, 72))


def _im2col(x, k):
    pad = k // 2
    win = sliding_window_view(np.pad(x, ((0, 0), (pad, pad), (pad, pad))), (k, k), axis=(1, 2))
    return win.transpose(0, 3, 4, 1, 2).reshape(x.shape[0] * k * k, -1)


def reference_pass():
    """Seconds one pass of the fixed reference computation takes."""
    t0 = time.perf_counter()
    for x in _IMAGES:
        for _ in range(3):
            y = np.maximum(_K1 @ _im2col(x, 5), 0).reshape(8, 48, 48)
            y = y.reshape(8, 24, 2, 24, 2).max(axis=(2, 4))
            z = _K2 @ _im2col(y, 3)
            _K2.T @ z
    return time.perf_counter() - t0


class HostSpeed:
    """Reference passes taken through a run, and the scale they give."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(reference_pass())

    def mark(self):
        """Position of a measurement taken now, between two samples."""
        return len(self.samples)

    def scale(self, mark):
        """REFERENCE_S over the median of the WINDOW passes on each side
        (with one a side, their mean)."""
        near = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, measured):
        """[(seconds, mark)] -> seconds as on the nominal host."""
        return [t * self.scale(mark) for t, mark in measured]

    def factors(self):
        """Quartiles of the host's speed relative to the nominal host."""
        return [round(REFERENCE_S / q, 4)
                for q in reversed(statistics.quantiles(self.samples, n=4))]
