"""Discrete fractional-calculus operators on nonuniform time meshes.

All three operators act on a `TimeSeries` sampled on a strictly increasing
mesh starting at 0 and assume the data is piecewise linear between nodes:

* `rl_integral` — Riemann-Liouville integral of order a in (0, 1], with the
  weakly singular kernel integrated in closed form on every cell
  (product-trapezoid rule),
* `caputo_derivative` — Caputo derivative of order a in (0, 1) by the L1
  scheme (order 2 - a for smooth data),
* `rl_right_derivative` — right-sided Riemann-Liouville derivative on [t, T]
  for test functions vanishing at T, via the differentiated
  product-trapezoid rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, PreconditionError, check_node_times,
                     check_open_order, check_order)

__all__ = ["TimeSeries", "rl_integral", "caputo_derivative", "rl_right_derivative"]


@dataclass(frozen=True)
class TimeSeries:
    """Samples of a function of time on a mesh with t_0 = 0."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes = check_node_times(self.nodes, 2)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if values.shape != nodes.shape:
            raise PreconditionError("values must have the shape of the nodes")
        if not np.all(np.isfinite(values)):
            raise PreconditionError("values must be finite")


def rl_integral(u: TimeSeries, alpha: float) -> TimeSeries:
    """Riemann-Liouville integral of order alpha evaluated at the mesh nodes."""
    check_order(alpha=alpha)
    t = u.nodes
    v = u.values
    n = t.size
    slopes = np.diff(v) / np.diff(t)
    out = np.zeros(n)
    inv_g = 1.0 / math.gamma(alpha)
    for i in range(1, n):
        # Cell [t_j, t_{j+1}] against the kernel (t_i - s)^(alpha-1); with
        # b = t_i - t_j, a = t_i - t_{j+1} the linear-interpolant moments are
        # closed-form in a and b.
        b = t[i] - t[:i]
        a = t[i] - t[1 : i + 1]
        m0 = (b**alpha - a**alpha) / alpha
        m1 = b * m0 - (b ** (alpha + 1.0) - a ** (alpha + 1.0)) / (alpha + 1.0)
        out[i] = inv_g * np.sum(v[:i] * m0 + slopes[:i] * m1)
    return TimeSeries(t, out)


def caputo_derivative(u: TimeSeries, alpha: float) -> TimeSeries:
    """Caputo derivative of order alpha by the L1 scheme; node 0 is set to 0."""
    check_open_order(alpha)
    t = u.nodes
    n = t.size
    slopes = np.diff(u.values) / np.diff(t)
    out = np.zeros(n)
    inv_g = 1.0 / math.gamma(2.0 - alpha)
    e = 1.0 - alpha
    for i in range(1, n):
        b = t[i] - t[:i]
        a = t[i] - t[1 : i + 1]
        out[i] = inv_g * np.sum(slopes[:i] * (b**e - a**e))
    return TimeSeries(t, out)


def rl_right_derivative(v: TimeSeries, alpha: float, t_end: float) -> TimeSeries:
    """Right-sided Riemann-Liouville derivative on [t, T] for v with v(T) = 0.

    Values are produced at nodes 0..M-1; the final node, where the operator
    is not defined by this scheme, is reported as 0. `t_end` = T must be
    finite and the mesh's last node.
    """
    check_open_order(alpha)
    if not math.isfinite(t_end):
        raise DomainError(f"t_end must be finite, got {t_end!r}")
    t = v.nodes
    if abs(t[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
        raise PreconditionError("mesh must end at t_end")
    scale = float(np.max(np.abs(v.values))) or 1.0
    if abs(v.values[-1]) > 1e-10 * scale:
        raise PreconditionError("test function must vanish at t_end")
    n = t.size
    slopes = np.diff(v.values) / np.diff(t)
    out = np.zeros(n)
    inv_g = 1.0 / math.gamma(2.0 - alpha)
    e = 1.0 - alpha
    for i in range(n - 1):
        b = t[i + 1 :] - t[i]
        a = t[i:-1] - t[i]
        out[i] = -inv_g * np.sum(slopes[i:] * (b**e - a**e))
    return TimeSeries(t, out)
