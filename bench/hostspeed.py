"""Host-speed probe: a fixed reference kernel timed between episodes.

On a shared host, work that other tenants run on the same physical cores
slows every instruction stream of this process, often by 1.5x or more, in
phases that last from under a second to minutes. Episode timings alone
cannot tell that from a slower program. The probe runs one fixed kernel,
which lives in the benchmark and never changes with qnav, at episode
boundaries at most every PROBE_EVERY_S, and records how long it took. Each
episode's duration is then scaled by NOMINAL_S over the mean of the probes
just before and just after it: the time the episode would have taken on a
host running the kernel in NOMINAL_S. The probe's own time is outside every
episode duration.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

PROBE_EVERY_S = 0.25
# Probe time on a quiet core of a 2.0 GHz Xeon (python 3.11, numpy 2.4, one
# BLAS thread). It only sets the scale, so that corrected timings read as
# seconds of that host; it is the same for every commit.
NOMINAL_S = 0.012


def reference_kernel() -> float:
    """Fixed work in the mix of qnav's inner loops: small complex numpy ops on
    a 16-amplitude state (reshape, axis move, 2x2 matmul), a 32-wide dense
    layer, and plain Python arithmetic, list and dict handling."""
    state = np.full(16, 0.25, dtype=complex)
    gate = np.array([[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]])
    weights = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 32.0
    hidden = np.linspace(-0.5, 0.5, 32)
    acc = 0.0
    for i in range(600):
        q = i % 4
        psi = np.moveaxis(state.reshape(2, 2, 2, 2), q, -1) @ gate.T
        state = np.moveaxis(psi, -1, q).reshape(-1)
        hidden = np.tanh(weights @ hidden + 0.01)
        row = {"step": i, "value": float(np.abs(state[q]) ** 2)}
        acc += sum([row["value"], float(hidden[q])]) + (i * 7 % 13) * 1e-6
    return acc


def probe_seconds() -> float:
    """One timed run of the kernel."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class HostProbe:
    """Times reference_kernel at episode boundaries: `samples` holds seconds,
    `at` the index of the episode that started right after each sample."""

    def __init__(self):
        self.samples: list[float] = []
        self.at: list[int] = []
        self._last = None

    def maybe_sample(self, now: float, episode: int) -> float:
        """Runs the kernel if PROBE_EVERY_S has passed; returns the time after it."""
        if self._last is not None and now - self._last < PROBE_EVERY_S:
            return now
        reference_kernel()
        end = time.perf_counter()
        self.samples.append(end - now)
        self.at.append(episode)
        self._last = end
        return end

    def corrected(self, durations: list[float]) -> list[float]:
        """Each episode's duration times NOMINAL_S over the mean of the probe
        before it and the probe after it (the same one at the end of a run)."""
        out = []
        for i, d in enumerate(durations):
            k = bisect.bisect_right(self.at, i) - 1
            after = self.samples[min(k + 1, len(self.samples) - 1)]
            out.append(d * NOMINAL_S * 2.0 / (self.samples[k] + after))
        return out
