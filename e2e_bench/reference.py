"""Machine-speed reference: a fixed block of work that does not call the program.

The measuring machine is a shared VM whose speed drifts by up to 2x in
phases lasting seconds to tens of minutes.  The benchmark times this
block between repetitions and rescales its wall times to a machine that
runs the block in ``NOMINAL_S`` seconds, so a change in the machine's
speed largely cancels while a change in the program's speed shows in
full (the block runs no program code).

The block mixes the two kinds of work the workloads do: a pure-Python
loop over dicts and lists (the fine sweep's MERGE loop) and NumPy
sorting and gathering over a 512K-element array (Phase I columns, the pair
store sort and the batch sweep).
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

__all__ = ["NOMINAL_S", "SpeedReference"]

#: Seconds the block takes on the measuring machine at its usual speed
#: (2-core Xeon VM, Python 3.11, NumPy 2.4: 0.16-0.19 s); rescaled times
#: are seconds on a machine that runs the block in this time.
NOMINAL_S = 0.2

PY_STEPS = 150_000
NP_SIZE = 1 << 19


class SpeedReference:
    """Samples of the reference block's wall time over one benchmark run."""

    def __init__(self) -> None:
        self.data = np.random.default_rng(0).random(NP_SIZE)
        self.samples: List[float] = []

    def _block(self) -> float:
        parent = list(range(1024))
        weight: dict = {}
        for i in range(PY_STEPS):
            a = i & 1023
            b = (i * 7) & 1023
            if parent[a] != parent[b]:
                parent[a] = parent[b]
            weight[a] = weight.get(a, 0) + i
        order = np.argsort(self.data, kind="stable")
        return float(np.cumsum(self.data[order])[-1]) + len(weight)

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self._block()
            self.samples.append(time.perf_counter() - t0)

    def sample_for(self, seconds: float) -> None:
        """Sample at least once, and until ``seconds`` of samples are taken."""
        end = time.perf_counter() + seconds
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    @property
    def mean_s(self) -> float:
        """Mean block time: the machine's speed is bimodal on short scales
        and a repetition's time integrates it, which a mean follows and a
        median of few samples does not."""
        return statistics.fmean(self.samples)

    @property
    def scale(self) -> float:
        """Factor turning this run's wall seconds into nominal-speed seconds."""
        return NOMINAL_S / self.mean_s
