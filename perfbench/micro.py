"""Layer microbenchmarks at the input ranges a workload's traced calls hit.

Run after the traced iterations, outside every timed iteration.  Each timing
is the median over repeats of one batch; byte and operation counts are
computed from array sizes, not measured.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

import fracsim as fs

# Regime edges of the Mittag-Leffler evaluator as its module docstring states
# them: the series is used at least up to y = 0.25 for every order, the
# branch-cut interpolant at most from y = 5, the asymptotic expansion from 50.
SERIES_MAX, MID_MIN, ASYM_MIN = 0.25, 5.0, 50.0
POINTS = 4096
REPEATS = 7


def _median_time(fn, repeats: int = REPEATS) -> float:
    fn()  # fill lazy caches before timing
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _regime_points(lo: float, hi: float, default: tuple[float, float]) -> np.ndarray:
    if not hi > lo:
        lo, hi = default
    if lo > 0.0:
        return np.geomspace(lo, hi, POINTS)
    return np.linspace(lo, hi, POINTS)


def ml_regimes(orders: dict[tuple[float, float], tuple[float, float]]) -> dict:
    """ns per point of ml_e_neg on each regime, over the traced orders.

    ``orders`` maps (alpha, beta) to the (y_min, y_max) its traced calls
    covered.  A regime the traced range misses is timed on its default range
    with the same orders, so every regime reports a figure.
    """
    ranges = {
        "series": lambda lo, hi: (lo, min(hi, SERIES_MAX), (0.0, SERIES_MAX)),
        "mid": lambda lo, hi: (max(lo, MID_MIN), min(hi, ASYM_MIN * (1 - 1e-12)),
                               (MID_MIN, ASYM_MIN * (1 - 1e-12))),
        "asym": lambda lo, hi: (max(lo, ASYM_MIN), hi, (ASYM_MIN, 1e4)),
    }
    out = {}
    for regime, clip in ranges.items():
        total, points = 0.0, 0
        for (a, b), (lo, hi) in sorted(orders.items()):
            c_lo, c_hi, default = clip(lo, hi)
            y = _regime_points(c_lo, c_hi, default)
            total += _median_time(lambda: fs.ml_e_neg(a, b, y))
            points += y.size
        out[f"special.{regime}_ns_per_point"] = total / points * 1e9 if points else 0.0
    return out


def spectral(grid) -> dict:
    """A to_spectral/to_real pair and an L^4 norm on the workload's grid."""
    field = fs.gaussian_field(grid, 1.0, 1.0)
    pair = _median_time(lambda: fs.to_real(fs.to_spectral(field)), 15)
    norm = _median_time(lambda: fs.lq_norm(field, 4.0), 15)
    n = grid.points ** grid.dim
    # Computed: 5 n log2 n flops per complex transform; each transform reads
    # and writes n complex values.
    return {
        "spectral.fft_pair_us": pair * 1e6,
        "spectral.norm_us": norm * 1e6,
        "spectral.fft_pair_mflop": 2 * 5 * n * math.log2(n) / 1e6,
        "spectral.fft_pair_mb": 2 * 2 * 16 * n / 1e6,
    }


def wright(args: list[tuple[float, float]]) -> dict:
    """Median ms per wright_phi call over up to 5 traced (alpha, theta) pairs."""
    if not args:
        return {"special.wright_ms_per_call": 0.0}
    args = sorted(set(args))
    pick = np.linspace(0, len(args) - 1, min(5, len(args))).astype(int)
    sample = [args[i] for i in pick]
    per_call = _median_time(lambda: [fs.wright_phi(a, t) for a, t in sample], 3)
    per_call /= len(sample)
    return {"special.wright_ms_per_call": per_call * 1e3}
