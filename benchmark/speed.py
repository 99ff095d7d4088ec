"""Scales measured times to a reference machine speed.

On the 2-core machine the baseline was taken on, the CPU switched between
two speed states for seconds at a time. In one state pure-Python code ran
about 2x slower; numpy code slowed less. Raw wall times of one seed then
differed by 25 % from run to run, more than any bound a regression check
could use.

The probe times a fixed kernel every 50 ms between ops. The kernel is
benchmark code that no change to the program touches, and it is written in
the style of the workload's hot layer: pure Python for the workloads that
parse, enumerate, solve and run inclusion-exclusion, numpy array arithmetic
for the brute-force oracle. Each op's time is scaled by the kernel's
reference time over its recent time. The run record keeps the raw figures
too.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Optional

import numpy as np

SAMPLE_EVERY_S = 0.05
#: A factor uses only the samples of this last stretch of time.
WINDOW_S = 0.25


def _python_kernel() -> int:
    t = tuple(range(40))
    acc = 0
    for i in range(40):
        acc += sum(tuple(map(max, t, t[::-1]))) + int(str(i)) + len("a b c d".split())
    return acc


_STRIDES = np.array([28800, 5760, 1152, 288, 72, 24, 6, 1], dtype=np.int64)[:, None]
_SIZES = np.array([6, 4, 5, 4, 3, 5, 6, 4], dtype=np.int64)[:, None]


def _numpy_kernel() -> float:
    idx = np.arange(1 << 13, dtype=np.int64)
    caps = (idx[None, :] // _STRIDES) % _SIZES
    pc = np.minimum(caps[0], caps[5])
    t = np.where(pc > 0, 4 + (7 + pc - 1) // np.maximum(pc, 1), np.inf)
    return float(t[t <= 6].sum())


#: Kernel and its reference time: about the kernel's time on the baseline
#: machine when it ran fast.
KERNELS = {
    "python": (_python_kernel, 0.3e-3),
    "numpy": (_numpy_kernel, 0.42e-3),
}


class SpeedProbe:
    def __init__(self, kind: str):
        self.kind = kind
        self._kernel, self.k_ref_s = KERNELS[kind]
        self.kernel_s = [self._sample()]
        self._at = [perf_counter()]  # when each kernel sample ended

    def _sample(self) -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def factor(self, fresh: bool = False) -> float:
        """Scale for the work that just ended: the reference time over the
        median of the last five kernel samples taken within WINDOW_S. A new
        sample is taken once 50 ms have passed since the last one, or when
        ``fresh``. After an op of a second, such as a deadline miss, only
        the sample taken after it counts, not those from before it."""
        if fresh or perf_counter() - self._at[-1] >= SAMPLE_EVERY_S:
            self.kernel_s.append(self._sample())
            self._at.append(perf_counter())
        since = self._at[-1] - WINDOW_S
        recent = [k for k, at in zip(self.kernel_s[-5:], self._at[-5:]) if at >= since]
        return self.k_ref_s / statistics.median(recent)


class Stopwatch:
    """Times a long stretch of work, such as a set-up, at reference speed.
    The work calls ``lap`` often; each piece since the last lap is scaled by
    the factor at its end of ``probe``, or of the stopwatch's own probe, and
    the probes' own samples are left out."""

    def __init__(self, probe: SpeedProbe):
        self._probe = probe
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._at = perf_counter()

    def lap(self, probe: Optional[SpeedProbe] = None) -> None:
        piece = perf_counter() - self._at
        self.raw_s += piece
        self.scaled_s += piece * (probe or self._probe).factor()
        self._at = perf_counter()
