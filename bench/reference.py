"""Machine-speed reference: fixed kernels timed between the program's ops.

On a shared host the same code runs up to 2x slower for seconds at a time,
and the fast speed itself drifts over tens of minutes. Both move a fixed
kernel that calls nothing in ``locclone`` by the same share as the program's
own ops, so every timing is scaled by the kernel times taken around it:
``scaled = measured * nominal / kernel``, with ``kernel`` the median of the
two samples before the timing and the two after it. A scaled time reads as
the measured time on a machine where the kernel takes its nominal time. A change to the program moves the scaled
times; the kernels never change with it.

Three kernels match the three kinds of work timed: ``python`` is
interpreter-bound float arithmetic on small tuples, like the per-point
closed form of the W-class scan and the CLI; ``numpy`` is many small numpy
calls plus 64x64 Hermitian spectra, like the state-vector and density-matrix
layers; ``process`` starts a fresh interpreter that imports numpy, like the
fresh processes behind ``setup_s`` and ``cold_start_s``.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from statistics import median

import numpy as np

_clock = time.perf_counter


def _python_kernel() -> float:
    total = 0.0
    for i in range(1, 6000):
        x = i / 6000.0
        root = math.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * x * (1.0 - x) * 0.5)
        pair = ((1.0 - root) / 2.0, (1.0 + root) / 2.0)
        total += -sum(p * math.log2(p) for p in pair if p > 1e-300)
    return total


_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))
_H = _A + _A.conj().T
_V = (_RNG.standard_normal(64) + 1j * _RNG.standard_normal(64)).reshape([2] * 6)
_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _numpy_kernel() -> float:
    total = 0.0
    for axis in range(6):
        for _ in range(16):
            moved = np.moveaxis(np.tensordot(_GATE, _V, axes=([1], [axis])), 0, axis)
            total += float(np.vdot(moved, _V).real)
    total += float(np.abs(np.linalg.eigvalsh(_H)).sum())
    total += float(np.abs(np.linalg.eigvalsh(_H.T)).sum())
    return total


def _process_kernel() -> None:
    subprocess.run([sys.executable, "-c", "import argparse, json, numpy"],
                   capture_output=True, timeout=60, check=False)


KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel, "process": _process_kernel}
# kernel times on the 2-core x86_64 VM described in README.md, fast state
NOMINAL_S = {"python": 0.005, "numpy": 0.0025, "process": 0.12}
# longest gap between samples in the timed loop: the slow and fast states of
# the host last a second or more, and samples cost about 5% at this rate
EVERY_S = 0.1


class Reference:
    """Timed samples of one kernel, taken at least every EVERY_S between ops."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.nominal = NOMINAL_S[kind]
        self.times: list[float] = []
        self._last = -math.inf

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        start = _clock()
        self.kernel()
        end = _clock()
        self.times.append(end - start)
        self._last = end
        return len(self.times) - 1

    def due(self) -> int:
        """Sample if the last one is older than EVERY_S; index of the latest."""
        if _clock() - self._last >= EVERY_S:
            return self.sample()
        return len(self.times) - 1

    def scale(self, before: int) -> float:
        """Factor for a timing that started just after sample ``before``.

        The median of samples ``before - 1`` to ``before + 2`` (those that
        exist) keeps one disturbed kernel run from moving the factor.
        """
        window = self.times[max(before - 1, 0):before + 3]
        return self.nominal / median(window)

    def timed(self, fn, *args):
        """Run ``fn`` between two samples; (result, measured s, scale factor)."""
        before = self.sample()
        start = _clock()
        result = fn(*args)
        elapsed = _clock() - start
        self.sample()
        return result, elapsed, self.scale(before)

    def typical_s(self) -> float:
        return median(self.times) if self.times else math.nan
