"""Embedded golden-value and invariant checks behind the `selftest` command.

Each check is fast (< 1 s) and compares against a frozen closed-form value
or an exact algebraic identity; the suite is a smoke test of the install,
not a substitute for the full test suite.
"""

from __future__ import annotations

import math

import numpy as np


def _checks():
    from .criticality import beta_exponent, critical_exponents, p_star_exponent
    from .fractional import TimeSeries, caputo_derivative
    from .kernels import symbol_Y, symbol_Z
    from .solver import LinearPlan, ModelParams, TimeMesh
    from .special import beta_fn, gamma, gauss_panels, ml_e_neg, wright_phi
    from .spectral import Field, GridSpec, fractional_laplacian

    def relaxation_is_exponential():
        x = np.linspace(0.0, 50.0, 101)
        return float(np.max(np.abs(ml_e_neg(1.0, 1.0, x) - np.exp(-x)))), 1e-12

    def ml_golden_point():
        # E at -1 for order 1/2 equals e * erfc(1)
        want = math.e * math.erfc(1.0)
        return abs(float(ml_e_neg(0.5, 1.0, 1.0)) - want), 1e-12

    def wright_half_gaussian():
        theta = 2.0
        want = math.exp(-(theta**2) / 4.0) / math.sqrt(math.pi)
        return abs(wright_phi(0.5, theta) - want), 1e-12

    def subordination_identity():
        # integral of phi_alpha(theta) e^{-theta} equals the relaxation value;
        # composite 20-point Gauss-Legendre, 6 panels on [0, 34]
        theta, w = (a.ravel() for a in gauss_panels(np.linspace(0.0, 34.0, 7), 20))
        phi = np.array([wright_phi(0.7, t) for t in theta])
        got = float(np.sum(w * phi * np.exp(-theta)))
        want = float(ml_e_neg(0.7, 1.0, 1.0))
        return abs(got - want), 1e-10

    def beta_golden():
        return abs(beta_fn(0.75, 0.5) - 2.3962804694792201) , 1e-10

    def gamma_golden():
        return abs(gamma(0.5) - math.sqrt(math.pi)), 1e-13

    def symbols_at_zero_mode():
        e1 = abs(float(symbol_Z(3.7, 0.0, 0.6, 0.4)) - 1.0)
        e2 = abs(float(symbol_Y(4.0, 0.0, 0.5, 0.4)) - 4.0**-0.5 / math.sqrt(math.pi))
        return max(e1, e2), 1e-12

    def weight_telescoping():
        params = ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)
        mesh = TimeMesh.make(2.0, 40)
        plan = LinearPlan(params, GridSpec(dim=1, points=64, half_width=10.0))
        row = plan.cell_weights(mesh.nodes)  # column 0 is the zero mode
        got = float(np.sum(row[:, 0]))
        want = mesh.t_end**0.5 / gamma(1.5)
        return abs(got - want) / want, 1e-12

    def forcing_closed_form():
        # lam = 0: int_0^t tau^sigma (t-tau)^(a-1) dtau / Gamma(a)
        params = ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)
        plan = LinearPlan(params, GridSpec(dim=1, points=64, half_width=10.0))
        got = float(plan.exact_forcing(2.0)[0])  # column 0 is the zero mode
        want = 2.0**0.25 * beta_fn(0.75, 0.5) / gamma(0.5)
        return abs(got - want) / want, 1e-12

    def exponent_algebra():
        params = ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)
        rep = critical_exponents(params, q=4.0)
        errs = [
            abs(rep.p_star - 7.0 / 3.0),
            abs(rep.p_c - 2.5),
            abs(rep.r_c - 1.25),
            abs(rep.beta.value - 0.09375),
            abs(p_star_exponent(1.0, 1.0, -0.5, 3) - 2.0),
        ]
        return max(errs), 1e-12

    def beta_vanishes_at_critical_q():
        params = ModelParams(alpha=0.7, s=0.3, sigma=-0.2, p=2.5, dim=2)
        p_c = critical_exponents(params).p_c
        return abs(beta_exponent(params, p_c).value), 1e-12

    def caputo_power_rule():
        t = np.linspace(0.0, 1.0, 2001)
        series = TimeSeries(nodes=t, values=t**0.5)
        deriv = caputo_derivative(series, 0.5)
        want = gamma(1.5)
        return abs(deriv.values[-1] - want) / want, 2e-2

    def multiplier_composition():
        grid = GridSpec(dim=1, points=128, half_width=10.0)
        rng = np.random.default_rng(7)
        f = Field(grid=grid, values=rng.standard_normal(grid.shape))
        lhs = fractional_laplacian(fractional_laplacian(f, 0.3), 0.4)
        rhs = fractional_laplacian(f, 0.7)
        return float(np.max(np.abs(lhs.values - rhs.values))), 1e-10

    return [
        ("relaxation limit matches exp", relaxation_is_exponential),
        ("relaxation golden point", ml_golden_point),
        ("subordination density golden point", wright_half_gaussian),
        ("subordination Laplace identity", subordination_identity),
        ("beta-function golden value", beta_golden),
        ("gamma golden value", gamma_golden),
        ("kernel symbols at zero mode", symbols_at_zero_mode),
        ("history weights telescope", weight_telescoping),
        ("forcing closed form at zero mode", forcing_closed_form),
        ("critical exponent algebra", exponent_algebra),
        ("decay exponent vanishes at critical q", beta_vanishes_at_critical_q),
        ("memory-derivative power rule", caputo_power_rule),
        ("fractional Laplacian composition", multiplier_composition),
    ]


def run_selftest(verbose: bool = True) -> bool:
    ok = True
    rows = []
    for name, fn in _checks():
        try:
            err, tol = fn()
            passed = err <= tol
            detail = f"err={err:.3e} tol={tol:.0e}"
        except Exception as exc:  # a crash is a failure, not an abort
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
        ok = ok and passed
        rows.append((name, passed, detail))
    if verbose:
        width = max(len(name) for name, _, _ in rows)
        for name, passed, detail in rows:
            print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
        print(f"selftest: {'all checks passed' if ok else 'FAILURES present'}")
    return ok
