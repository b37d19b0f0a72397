"""Discrete fractional-calculus operators on time meshes."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsim import (
    DomainError,
    PreconditionError,
    TimeSeries,
    caputo_derivative,
    rl_integral,
    rl_right_derivative,
)


def uniform_series(fn, t_end=1.0, n=512):
    t = np.linspace(0.0, t_end, n + 1)
    return TimeSeries(t, fn(t))


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            TimeSeries(np.array([0.5, 1.0]), np.array([1.0, 2.0]))  # t0 != 0
        with pytest.raises(PreconditionError):
            TimeSeries(np.array([0.0, 1.0, 0.5]), np.zeros(3))  # not increasing
        with pytest.raises(PreconditionError):
            TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))  # length mismatch
        with pytest.raises(PreconditionError):
            TimeSeries(np.array([0.0]), np.array([1.0]))  # too short


class TestRLIntegral:
    def test_constant_half_order(self):
        # I^{1/2} 1 = t^{1/2} / Gamma(3/2).
        out = rl_integral(uniform_series(lambda t: np.ones_like(t)), 0.5)
        exact = np.sqrt(out.nodes) / math.gamma(1.5)
        assert np.max(np.abs(out.values - exact)) <= 1e-6
        assert out.values[-1] == pytest.approx(1.1283791671, abs=1e-8)

    def test_identity_order_one(self):
        out = rl_integral(uniform_series(lambda t: t), 1.0)
        assert np.max(np.abs(out.values - out.nodes**2 / 2.0)) <= 1e-12

    def test_power_rule(self):
        # I^{1/2} t = Gamma(2)/Gamma(5/2) t^{3/2}.
        out = rl_integral(uniform_series(lambda t: t), 0.5)
        coeff = math.gamma(2.0) / math.gamma(2.5)
        assert coeff == pytest.approx(0.7522527781, abs=1e-9)
        exact = coeff * out.nodes**1.5
        assert np.max(np.abs(out.values - exact)) <= 1e-7

    def test_domain(self):
        u = uniform_series(lambda t: t, n=4)
        with pytest.raises(DomainError):
            rl_integral(u, 1.5)
        with pytest.raises(DomainError):
            rl_integral(u, 0.0)


class TestCaputo:
    def test_constant(self):
        out = caputo_derivative(uniform_series(lambda t: 3.0 * np.ones_like(t)), 0.5)
        assert np.max(np.abs(out.values)) == 0.0

    def test_linear(self):
        # d^{1/2} t = t^{1/2} / Gamma(3/2): exact for the scheme (piecewise
        # linear data is represented exactly).
        out = caputo_derivative(uniform_series(lambda t: t), 0.5)
        exact = np.sqrt(out.nodes) / math.gamma(1.5)
        assert np.max(np.abs(out.values[1:] - exact[1:])) <= 1e-12
        assert out.values[-1] == pytest.approx(1.1283791671, abs=1e-9)

    def test_power_alpha(self):
        # d^{1/2} t^{1/2} = Gamma(3/2), constant in t; graded mesh resolves
        # the derivative singularity of the data at t=0.
        t = (np.arange(257) / 256.0) ** 2
        out = caputo_derivative(TimeSeries(t, np.sqrt(t)), 0.5)
        g = math.gamma(1.5)
        sel = out.nodes >= 0.1
        assert np.max(np.abs(out.values[sel] - g)) <= 2e-3 * g

    def test_node_zero_convention(self):
        out = caputo_derivative(uniform_series(lambda t: t, n=8), 0.5)
        assert out.values[0] == 0.0

    def test_domain(self):
        u = uniform_series(lambda t: t, n=4)
        with pytest.raises(DomainError):
            caputo_derivative(u, 1.0)


class TestRightDerivative:
    def test_zero(self):
        out = rl_right_derivative(uniform_series(lambda t: 0.0 * t), 0.5, 1.0)
        assert np.max(np.abs(out.values)) == 0.0

    def test_classical_limit(self):
        # v = T - t, alpha -> 1: result -> -v' = 1.
        out = rl_right_derivative(uniform_series(lambda t: 1.0 - t), 0.99, 1.0)
        mid = (out.nodes > 0.1) & (out.nodes < 0.9)
        assert np.max(np.abs(out.values[mid] - 1.0)) <= 0.05

    def test_quadratic_closed_form(self):
        # v = (T-t)^2, alpha = 1/2: D v(t) = Gamma(3)/Gamma(5/2) (T-t)^{3/2}.
        out = rl_right_derivative(uniform_series(lambda t: (1.0 - t) ** 2), 0.5, 1.0)
        coeff = math.gamma(3.0) / math.gamma(2.5)
        assert coeff == pytest.approx(1.5045055562, abs=1e-9)
        exact = coeff * (1.0 - out.nodes) ** 1.5
        sel = out.nodes <= 0.9
        assert np.max(np.abs(out.values[sel] - exact[sel])) <= 2e-4
        assert out.values[0] == pytest.approx(coeff, abs=2e-4)

    def test_nonvanishing_end_rejected(self):
        with pytest.raises(PreconditionError):
            rl_right_derivative(uniform_series(lambda t: 1.0 + t), 0.5, 1.0)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_end_rejected(self, t_end):
        # With NaN the end check |t[-1] - t_end| > tol is False, so the
        # derivative used to come back on the mesh as if T were its end.
        v = TimeSeries(np.linspace(0.0, 1.0, 11), 1.0 - np.linspace(0.0, 1.0, 11))
        with pytest.raises(DomainError, match=f"t_end must be finite, got {t_end}"):
            rl_right_derivative(v, 0.5, t_end)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_integration_by_parts(alpha):
    """int v d^a u = int (u - u(0)) D v for smooth u, v with v(T) = 0."""
    T = 1.0
    t = np.linspace(0.0, T, 2049)
    u = np.sin(t) + t**2
    v = (T - t) ** 2 * np.cos(t)
    du = caputo_derivative(TimeSeries(t, u), alpha).values
    dv = rl_right_derivative(TimeSeries(t, v), alpha, T).values
    lhs = np.trapezoid(v * du, t)
    rhs = np.trapezoid((u - u[0]) * dv, t)
    scale = max(np.max(np.abs(v * du)), np.max(np.abs((u - u[0]) * dv)))
    assert abs(lhs - rhs) <= 1e-3 * scale


def test_fundamental_theorem():
    # d^a I^a u recovers u at interior nodes for smooth u.
    u = uniform_series(lambda t: np.cos(t) + t, n=1024)
    back = caputo_derivative(rl_integral(u, 0.5), 0.5)
    sel = (back.nodes > 0.05) & (back.nodes < 1.0)
    assert np.max(np.abs(back.values[sel] - u.values[sel])) <= 5e-3


@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
def test_linearity(a, b):
    t = np.linspace(0.0, 1.0, 65)
    u1 = TimeSeries(t, np.sin(t))
    u2 = TimeSeries(t, t**2)
    combo = TimeSeries(t, a * u1.values + b * u2.values)
    for op in (lambda x: rl_integral(x, 0.5), lambda x: caputo_derivative(x, 0.5)):
        lhs = op(combo).values
        rhs = a * op(u1).values + b * op(u2).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, abs(a) + abs(b))
