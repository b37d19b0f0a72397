"""Host-speed calibration for the end-to-end times.

On the shared 2-core sandbox the same work runs up to ~1.9x slower for
stretches of seconds to minutes, in pure Python and in NumPy alike, as the
load of other tenants on the host comes and goes.  Raw times of one run can
then differ from those of the next by more than any useful regression bound.
So every process of a run times a fixed calibration loop that does not touch
fracsim, before its first iteration and after each one, and run.py scales
each end-to-end time by ``NOMINAL_S / cal``, where ``cal`` is the mean of
the two calibrations around a process's cold iteration for its set-up and
cold times, and the median over the measuring process for the warm
iterations.  That median follows the phase the run spent most of its time
in, without reacting to a single disturbed sample.

``NOMINAL_S`` is the loop's time on the sandbox when the host is quiet, so
there a scaled time equals the measured one.  The loop slows down less than
fracsim does in a slow phase, so the scaling removes only part of the
effect.  The raw times are printed too.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.012

_X = np.linspace(0.0, 1.0, 32768)


def _loop() -> float:
    t0 = perf_counter()
    for _ in range(3):
        sum(range(100_000))
        y = np.exp(-_X) * np.sin(_X) + np.sqrt(_X)
        np.fft.ifft(np.fft.fft(y))
        np.sort(y[::-1])
    return perf_counter() - t0


def calibration_s(runs: int = 3) -> float:
    """Mean time of one calibration loop over ``runs`` runs, in seconds."""
    return sum(_loop() for _ in range(runs)) / runs
