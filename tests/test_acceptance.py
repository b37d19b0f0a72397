"""End-to-end acceptance gate: eleven numbered criteria, one test each.

Each test prints the measured quantities it asserts on, so a verbose run
doubles as a verification report.
"""
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fracsim import (
    ClassifyThresholds,
    DataSpec,
    GridSpec,
    LinearPlan,
    ModelParams,
    ResolutionWarning,
    SweepConfig,
    TimeMesh,
    fractional_laplacian,
    apply_propagator,
    beta_exponent,
    bracket_pstar,
    caputo_derivative,
    critical_exponents,
    gaussian_field,
    integrate,
    lq_norm,
    ml_e_neg,
    p_star_exponent,
    picard_solve,
    rl_right_derivative,
    wright_phi,
    wright_tail_cut,
)
from fracsim.fractional import TimeSeries
from fracsim.special import beta_fn, gamma as gamma_fn
from fracsim.spectral import Field

CANONICAL = ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)


def grid_delta(grid: GridSpec) -> Field:
    values = np.zeros(grid.shape)
    values[grid.points // 2] = 1.0 / grid.cell_volume  # unit-mass spike
    return Field(grid, values)


def test_criterion_01_special_function_golden_values():
    x = np.linspace(0.0, 50.0, 1000)
    err_exp = float(np.max(np.abs(ml_e_neg(1.0, 1.0, x) - np.exp(-x))))
    print(f"\n  max |E_11(-x) - exp(-x)| = {err_exp:.3e}")
    assert err_exp <= 1e-10

    val = float(ml_e_neg(0.5, 1.0, 1.0))
    print(f"  E_0.5,1(-1) = {val:.12f}")
    assert val == pytest.approx(0.427583576, abs=1e-8)

    thetas = np.linspace(0.0, 10.0, 101)
    closed = np.exp(-(thetas**2) / 4.0) / math.sqrt(math.pi)
    err_wright = max(
        abs(wright_phi(0.5, float(th)) - c) for th, c in zip(thetas, closed)
    )
    print(f"  max |phi_0.5 - closed form| = {err_wright:.3e}")
    assert err_wright <= 1e-8

    for alpha in (0.3, 0.5, 0.7):
        total, _ = quad(
            lambda th: wright_phi(alpha, th), 0.0, wright_tail_cut(alpha), limit=200
        )
        print(f"  integral of phi_{alpha} = {total:.10f}")
        assert total == pytest.approx(1.0, abs=1e-6)


def test_criterion_02_beta_identity_graded_quadrature():
    # int_0^1 tau^{-1/4} (1-tau)^{-1/2} dtau via the solver's closed-form
    # forcing at lambda = 0, against the Gamma-function oracle.
    mesh = TimeMesh.make(1.0, 100, grading=2.0)
    grid = GridSpec(dim=1, points=64, half_width=10.0)
    plan = LinearPlan(CANONICAL, grid, forcing_scheme="accurate")
    assert plan.lam_u[0] == 0.0
    s_val = plan.forcing_weights(mesh.nodes)
    measured = float(s_val[0]) * gamma_fn(CANONICAL.alpha)
    exact = beta_fn(0.75, 0.5)
    rel = abs(measured - exact) / exact
    print(f"\n  closed form {measured:.12f} vs B(0.75,0.5) {exact:.12f}"
          f"  rel err {rel:.3e}")
    assert exact == pytest.approx(2.396280469, abs=1e-8)
    assert rel <= 1e-12


def test_criterion_03_kernel_mass_conservation():
    grid = GridSpec(dim=1, points=4096, half_width=50.0)
    raw = gaussian_field(grid, 1.0, 0.05)
    mass0 = float(np.sum(raw.values)) * grid.cell_volume
    delta_approx = Field(grid, raw.values / mass0)
    for alpha, s in ((0.5, 0.4), (0.7, 0.7)):
        for t in (0.1, 1.0, 10.0):
            out = apply_propagator("Z", t, delta_approx, alpha, s)
            mass = float(np.sum(out.values)) * grid.cell_volume
            print(f"\n  alpha={alpha} s={s} t={t}: mass = {mass:.10f}")
            assert mass == pytest.approx(1.0, abs=1e-4)


def test_criterion_04_scaling_law_regressions():
    def fitted_slopes(points: int, half_width: float) -> dict:
        grid = GridSpec(dim=1, points=points, half_width=half_width)
        d = grid_delta(grid)
        ts = np.geomspace(0.5, 8.0, 9)
        out = {}
        for kind in ("Z", "Y"):
            for q in (1.0, 2.0):
                norms = [
                    lq_norm(apply_propagator(kind, float(t), d, 0.5, 0.4), q)
                    for t in ts
                ]
                out[(kind, q)] = float(
                    np.polyfit(np.log(ts), np.log(norms), 1)[0]
                )
        return out

    base = fitted_slopes(32768, 100.0)
    doubled = fitted_slopes(65536, 200.0)  # same spacing, twice the box
    scale = 0.5 / (2.0 * 0.4)  # N alpha / 2s
    for (kind, q), slope in base.items():
        decay = scale * (1.0 - 1.0 / q)
        predicted = -decay if kind == "Z" else -(1.0 - 0.5 + decay)
        rel = abs(slope - predicted) / max(abs(predicted), 0.01)
        drift = abs(doubled[(kind, q)] - slope) / max(abs(slope), 0.01)
        print(f"\n  {kind} q={q}: fitted {slope:.5f} vs {predicted:.5f}"
              f"  (err {rel:.4f}, box-doubling drift {drift:.4f})")
        assert rel <= 0.02
        assert drift <= 0.005


def test_criterion_05_exponent_algebra():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10_000:
        alpha = rng.uniform(0.05, 1.0)
        dim = int(rng.integers(1, 4))
        s = rng.uniform(0.05, min(1.0, dim / 2.0 - 1e-6))
        sigma = rng.uniform(-alpha * 0.999, 0.0)
        p_star = p_star_exponent(alpha, s, sigma, dim)
        if p_star is None:
            continue
        p = rng.uniform(1.0 + 1e-6, 3.0 * p_star)
        if p == p_star:
            continue
        params = ModelParams(alpha, s, sigma, p, dim)
        gamma = critical_exponents(params).gamma
        assert (gamma < 0.0) == (p < p_star), (alpha, s, sigma, p, dim)
        # beta vanishes at the scale-critical exponent q = p_c
        p_c = dim * (p - 1.0) / (2.0 * s)
        if p_c >= 1.0:
            assert abs(beta_exponent(params, p_c).value) <= 1e-12
        checked += 1
    print(f"\n  sign(gamma) < 0 iff p < p* on {checked} random tuples")

    classical = p_star_exponent(1.0, 1.0, -0.5, 3)
    print(f"  classical limit p*(alpha=s=1, sigma=-1/2, N=3) = {classical}")
    assert classical == pytest.approx((3.0 + 1.0) / (3.0 + 1.0 - 2.0), abs=1e-12)
    rep = critical_exponents(ModelParams(1.0, 1.0, 0.0, 2.0, dim=3))
    assert rep.p_fujita == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)


def _picard_oracle_case(points):
    grid = GridSpec(dim=1, points=points, half_width=50.0)
    u0 = gaussian_field(grid, 0.01, 1.0)
    w = gaussian_field(grid, 0.01, 1.0)
    mesh = TimeMesh.make(0.5, 64, grading=2.0)
    direct = integrate(CANONICAL, grid, u0, w, mesh, q_report=4.0)
    fixed_point = picard_solve(CANONICAL, grid, u0, w, mesh, q_report=4.0)
    diff = float(
        np.max(np.abs(direct.final_field.values - fixed_point.final_field.values))
    )
    print(f"\n  {points} points: L-infinity disagreement at T=0.5: {diff:.3e}")
    print(f"  top-octave fraction: {direct.tail_fraction_max:.3e}")
    print(f"  observed contraction factor: {fixed_point.contraction_factor:.3e}")
    assert diff <= 1e-4
    assert fixed_point.contraction_factor < 1.0


def test_criterion_06_picard_oracle_equivalence():
    # The tail monitor calls 256 points under-resolved; 1024 points resolve
    # the same run and must not warn.
    with pytest.warns(ResolutionWarning):
        _picard_oracle_case(256)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        _picard_oracle_case(1024)


def test_criterion_07_forcing_only_closed_forms(linear_values):
    # lambda = 0: constant forcing, mean = c t^{sigma+alpha} B(sigma+1, alpha)
    # divided by Gamma(alpha).
    grid = GridSpec(dim=1, points=64, half_width=10.0)
    c = 0.3
    w_const = Field(grid, np.full(grid.shape, c))
    mesh = TimeMesh.make(2.0, 100, grading=2.0)
    values = linear_values(LinearPlan(CANONICAL, grid, forcing_scheme="accurate"),
                           mesh.nodes, None, w_const)
    a, sig = CANONICAL.alpha, CANONICAL.sigma
    exact0 = c * 2.0 ** (sig + a) * beta_fn(sig + 1.0, a) / gamma_fn(a)
    mean = float(np.mean(values))
    rel0 = abs(mean - exact0) / exact0
    print(f"\n  lambda=0: mean {mean:.12f} vs {exact0:.12f}  rel err {rel0:.3e}")
    assert rel0 <= 1e-12

    # lambda > 0: cosine mode k=8 on [-50, 50); amplitude at T=2 frozen from
    # 30-digit adaptive quadrature of the singular Duhamel integral.
    frozen = 0.8491344240237772
    grid = GridSpec(dim=1, points=256, half_width=50.0)
    xi = 8 * math.pi / grid.half_width
    w_mode = Field(grid, np.cos(xi * grid.axis()))
    values = linear_values(LinearPlan(CANONICAL, grid, forcing_scheme="accurate"),
                           mesh.nodes, None, w_mode)
    val = float(values[grid.points // 2])
    rel1 = abs(val - frozen) / frozen
    print(f"  lambda>0: amplitude {val:.12f} vs {frozen:.12f}  rel err {rel1:.3e}")
    assert rel1 <= 1e-12


DICHOTOMY_GRID = GridSpec(dim=1, points=1024, half_width=50.0)


def _dichotomy_run(p: float, amplitude: float, u_max: float = 1e8):
    params = ModelParams(0.5, 0.4, -0.25, p, dim=1)
    w = gaussian_field(DICHOTOMY_GRID, amplitude, 1.0)
    mesh = TimeMesh.make(50.0, 600, grading=2.0)
    thresholds = ClassifyThresholds(u_max=u_max, ratio_max=10.0, t_end=50.0)
    return integrate(
        params, DICHOTOMY_GRID, None, w, mesh, q_report=4.0,
        thresholds=thresholds,
    )


def test_criterion_08_fujita_dichotomy_desk_experiment():
    blow = _dichotomy_run(1.5, 1.0)
    print(f"\n  p=1.5, amp 1.0: {blow.classification}"
          f" at t ~ {blow.blowup_time_est}")
    assert blow.classification == "BlowUp"
    blow_half = _dichotomy_run(1.5, 1.0, u_max=5e7)
    print(f"  p=1.5 with halved U_max: {blow_half.classification}")
    assert blow_half.classification == "BlowUp"

    glob = _dichotomy_run(4.0, 0.01)
    beta = 0.09375  # reference decay exponent for the q = 4 history
    print(f"  p=4, amp 0.01: {glob.classification},"
          f" decay exponent {glob.decay_exponent:.4f}"
          f" (R^2 {glob.decay_r_squared:.5f}) vs -beta = {-beta:.5f}")
    assert glob.classification == "Global"
    assert abs(glob.decay_exponent - (-beta)) <= 0.25 * beta


def test_criterion_09_empirical_threshold_bracketing():
    config = SweepConfig(
        alpha=0.5,
        s=0.4,
        sigma=-0.25,
        dim=1,
        p_values=(1.8, 3.0),
        u0=DataSpec(kind="zero"),
        w=DataSpec(kind="gaussian", amplitude=0.4, width=1.0),
        grid=DICHOTOMY_GRID,
        t_end=50.0,
        steps=600,
        grading=2.0,
        thresholds=ClassifyThresholds(u_max=1e8, ratio_max=10.0, t_end=50.0,
                                      beta=0.09375),
        q_report=4.0,
    )
    result = bracket_pstar(config, tol_p=0.2)
    target = 7.0 / 3.0
    print(f"\n  bracket [{result.p_lo:.4f}, {result.p_hi:.4f}],"
          f" midpoint {result.midpoint:.4f}, target {target:.4f}")
    if result.undetermined:
        print(f"  undetermined probes: {result.undetermined}")
    if result.p_hi - result.p_lo <= 0.2:
        assert abs(result.midpoint - target) <= 0.35
    else:
        # widened bracket: acceptable only with explicit diagnostics
        assert result.undetermined


def test_criterion_10_fractional_calculus_identities():
    # integration by parts: int v d^a u = int (u - u(0)) D^a_right v
    t = np.linspace(0.0, 1.0, 2049)
    u = np.sin(t) + t**2
    v = (1.0 - t) ** 2 * np.cos(t)
    for alpha in (0.3, 0.5, 0.8):
        du = caputo_derivative(TimeSeries(t, u), alpha).values
        dv = rl_right_derivative(TimeSeries(t, v), alpha, 1.0).values
        lhs = np.trapezoid(v * du, t)
        rhs = np.trapezoid((u - u[0]) * dv, t)
        scale = max(np.max(np.abs(v * du)), np.max(np.abs((u - u[0]) * dv)))
        resid = abs(lhs - rhs) / scale
        print(f"\n  alpha={alpha}: integration-by-parts residual {resid:.3e}")
        assert resid <= 1e-3

    # d^{1/2} t^{1/2} = Gamma(3/2): graded-mesh error decays at rate 2 - alpha
    alpha = 0.5
    exact = gamma_fn(1.5)
    errors = []
    for steps in (64, 128, 256):
        mesh = TimeMesh.make(1.0, steps, grading=2.0)
        series = TimeSeries(mesh.nodes, np.sqrt(mesh.nodes))
        out = caputo_derivative(series, alpha)
        sel = out.nodes >= 0.1
        errors.append(float(np.max(np.abs(out.values[sel] - exact))))
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    print(f"  errors {errors}, rates {rates} (theory {2 - alpha})")
    for rate in rates:
        assert abs(rate - (2.0 - alpha)) <= 0.15 * (2.0 - alpha)


def test_criterion_11_spectral_operator_identities():
    grid = GridSpec(dim=1, points=256, half_width=20.0)
    rng = np.random.default_rng(11)
    u = Field(grid, rng.standard_normal(grid.shape))
    v = Field(grid, rng.standard_normal(grid.shape))

    lu = fractional_laplacian(u, 0.6)
    lv = fractional_laplacian(v, 0.6)
    inner_a = float(np.sum(lu.values * v.values)) * grid.cell_volume
    inner_b = float(np.sum(u.values * lv.values)) * grid.cell_volume
    scale = lq_norm(u, 2.0) * lq_norm(v, 2.0)
    mismatch = abs(inner_a - inner_b) / scale
    print(f"\n  self-adjointness mismatch: {mismatch:.3e}")
    assert mismatch <= 1e-12

    composed = fractional_laplacian(fractional_laplacian(u, 0.3), 0.4)
    direct = fractional_laplacian(u, 0.7)
    comp_err = float(np.max(np.abs(composed.values - direct.values)))
    print(f"  composition 0.3 after 0.4 vs 0.7: {comp_err:.3e}")
    assert comp_err <= 1e-10
