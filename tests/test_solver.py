"""Time stepper: weight tables, exactness checks, classification, Picard."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from fracsim import (
    ClassifyThresholds,
    DomainError,
    GridSpec,
    LinearPlan,
    ModelParams,
    NonContractionError,
    PreconditionError,
    TimeMesh,
    classify,
    estimate_decay_exponent,
    gaussian_field,
    integrate,
    ml_e_neg,
    picard_solve,
    to_spectral,
)
from fracsim.spectral import Field
import fracsim.solver as solver


def cosine_field(grid: GridSpec, k: int) -> Field:
    x = grid.axis()
    xi = k * math.pi / grid.half_width
    return Field(grid, np.cos(xi * x))


class TestConfigObjects:
    def test_model_params_validation(self):
        ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=1)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.0, s=0.4, sigma=-0.25, p=3.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=1.2, s=0.4, sigma=-0.25, p=3.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, s=1.5, sigma=-0.25, p=3.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, s=0.4, sigma=0.5, p=3.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, s=0.4, sigma=-1.0, p=3.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=1.0)
        with pytest.raises(DomainError):
            ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=4)

    def test_outside_theorem_range_flag(self):
        assert not ModelParams(0.5, 0.4, -0.25, 3.0).outside_theorem_range
        assert ModelParams(0.5, 0.4, -0.5, 3.0).outside_theorem_range
        assert ModelParams(0.5, 0.4, -0.75, 3.0).outside_theorem_range

    def test_time_mesh_make(self):
        mesh = TimeMesh.make(2.0, 10, grading=2.0)
        assert mesh.steps == 10
        assert mesh.t_end == pytest.approx(2.0)
        j = np.arange(11.0)
        assert np.allclose(mesh.nodes, 2.0 * (j / 10.0) ** 2)
        uniform = TimeMesh.make(1.0, 4, grading=1.0)
        assert np.allclose(uniform.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_time_mesh_validation(self):
        with pytest.raises(DomainError):
            TimeMesh.make(0.0, 10)
        with pytest.raises(DomainError):
            TimeMesh.make(1.0, 1)
        with pytest.raises(DomainError):
            TimeMesh.make(1.0, 10, grading=0.5)
        with pytest.raises(PreconditionError):
            TimeMesh(np.array([0.0, 1.0]), 1.0)
        with pytest.raises(PreconditionError):
            TimeMesh(np.array([0.1, 0.5, 1.0]), 1.0)
        with pytest.raises(PreconditionError):
            TimeMesh(np.array([0.0, 0.5, 0.4]), 1.0)


class TestWeightTable:
    """Node n's cell-weight row from the plan, one column per unique lam."""

    GRID = GridSpec(dim=1, points=64, half_width=10.0)

    def test_zero_mode_closed_form(self):
        # lambda = 0: cell weight is ((t-t_j)^a - (t-t_{j+1})^a) / Gamma(a+1).
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        mesh = TimeMesh.make(2.0, 8, grading=2.0)
        plan = LinearPlan(params, self.GRID, mesh)
        assert plan.lam_u[0] == 0.0
        a = params.alpha
        t = mesh.nodes
        for n in range(1, 9):
            expected = (
                (t[n] - t[:n]) ** a - (t[n] - t[1 : n + 1]) ** a
            ) / gamma_fn(a + 1.0)
            assert plan.cell_weights(n)[:, 0] == pytest.approx(expected, rel=1e-12)

    def test_classical_limit_exponential_weights(self):
        # alpha = 1: the kernel is e^{-lam (t - tau)}.  A wide box keeps every
        # lam = |xi| at most ~1, as in the single-lam check this replaces.
        params = ModelParams(1.0, 0.5, 0.0, 2.0)
        mesh = TimeMesh.make(1.5, 6, grading=1.0)
        plan = LinearPlan(params, GridSpec(dim=1, points=64, half_width=100.0), mesh)
        lam = plan.lam_u[1:]
        assert plan.lam_u[0] == 0.0 and lam.max() < 1.01
        t = mesh.nodes
        for n in range(1, 7):
            expected = (
                np.exp(-lam * (t[n] - t[1 : n + 1, None]))
                - np.exp(-lam * (t[n] - t[:n, None]))
            ) / lam
            assert plan.cell_weights(n)[:, 1:] == pytest.approx(expected, rel=1e-12)

    def test_telescoping_and_positivity(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        mesh = TimeMesh.make(3.0, 12, grading=2.0)
        plan = LinearPlan(params, self.GRID, mesh)
        a = params.alpha
        lam = plan.lam_u
        for n in range(1, 13):
            w = plan.cell_weights(n)
            # one row per cell before node n, one column per unique lam
            assert w.shape == (n, lam.size)
            assert np.all(w >= 0.0)
            t_n = mesh.nodes[n]
            total = t_n**a * ml_e_neg(a, a + 1.0, lam * t_n**a)
            assert np.sum(w, axis=0) == pytest.approx(total, rel=1e-10)


class TestLinearExactness:
    def test_pure_diffusion_is_per_mode_exact(self):
        # without nonlinearity and forcing the marcher must reproduce the
        # mode-wise decay factor exactly, independent of step count.
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=128, half_width=20.0)
        u0 = gaussian_field(grid, 1.0, 2.0)
        mesh = TimeMesh.make(2.0, 7, grading=2.0)
        res = integrate(params, grid, u0, None, mesh, nonlinearity=False)
        lam = grid.xi_squared().ravel() ** params.s
        u0_modes = to_spectral(u0).modes.ravel()
        exact_modes = ml_e_neg(params.alpha, 1.0, lam * 2.0**params.alpha) * u0_modes
        exact = np.fft.ifft(exact_modes / grid.cell_volume).real
        err = np.max(np.abs(res.final_field.values - exact))
        assert err <= 1e-12

    def test_forcing_zero_mode_closed_form(self):
        # constant forcing, sigma < 0: the mean evolves as
        # c t^{sigma+alpha} B(sigma+1, alpha) / Gamma(alpha).
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        c = 0.3
        w = Field(grid, np.full(grid.shape, c))
        mesh = TimeMesh.make(2.0, 100, grading=2.0)
        res = integrate(
            params, grid, None, w, mesh, nonlinearity=False,
            forcing_scheme="accurate",
        )
        a, sig = params.alpha, params.sigma
        exact = c * 2.0 ** (sig + a) * beta_fn(sig + 1.0, a) / gamma_fn(a)
        mean = float(np.mean(res.final_field.values))
        assert mean == pytest.approx(exact, rel=1e-12)

    def test_forcing_single_mode_oracle(self):
        # cos mode k = 8 on [-50, 50): lam = (8 pi / 50)^{0.8}. The mode
        # amplitude at T = 2 is int_0^T tau^sigma (T-tau)^{a-1}
        # E_{a,a}(-lam (T-tau)^a) dtau / Gamma-normalised, evaluated once with
        # 30-digit adaptive quadrature and frozen here.
        frozen = 0.8491344240237772
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        w = cosine_field(grid, 8)
        mesh = TimeMesh.make(2.0, 100, grading=2.0)
        res = integrate(
            params, grid, None, w, mesh, nonlinearity=False,
            forcing_scheme="accurate",
        )
        # solution is frozen * cos(xi x); read it off at x = 0
        val = float(res.final_field.values[grid.points // 2])
        assert val == pytest.approx(frozen, rel=1e-12)

    def test_forcing_sigma_zero_is_exact(self):
        # sigma = 0 reduces to the telescoped weight sum, exact per mode:
        # the mean evolves as c t^a E_{a,a+1}(0) = c t^a / Gamma(a+1).
        params = ModelParams(0.5, 0.4, 0.0, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        c = 0.3
        w = Field(grid, np.full(grid.shape, c))
        mesh = TimeMesh.make(2.0, 5, grading=2.0)
        res = integrate(params, grid, None, w, mesh, nonlinearity=False)
        exact = c * 2.0**0.5 / gamma_fn(1.5)
        mean = float(np.mean(res.final_field.values))
        assert mean == pytest.approx(exact, rel=1e-13)

    def test_forcing_scheme_refinement(self):
        # against the frozen oracle, the fast rule's error shrinks as the mesh
        # is refined, while the closed form is exact at every step count.
        frozen = 0.8491344240237772
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        w = cosine_field(grid, 8)
        errs = {"fast": [], "accurate": []}
        for scheme, found in errs.items():
            for steps in (25, 50, 100):
                mesh = TimeMesh.make(2.0, steps, grading=2.0)
                res = integrate(
                    params, grid, None, w, mesh, nonlinearity=False,
                    forcing_scheme=scheme,
                )
                val = float(res.final_field.values[grid.points // 2])
                found.append(abs(val - frozen) / frozen)
        fast = errs["fast"]
        assert fast[0] > fast[1] > fast[2]
        assert max(errs["accurate"]) <= 1e-12

    def test_exact_forcing_at_alpha_one(self):
        # alpha = 1: S(t; lam) = int_0^t tau^sigma e^{-lam (t - tau)} dtau.
        # E_{1,1.75} comes from 1F1; lam t reaches ~50, where its power
        # series cancels badly.
        params = ModelParams(1.0, 0.5, -0.25, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(5.0, 4, grading=2.0)
        plan = LinearPlan(params, grid, mesh, "accurate")
        assert plan.lam_u.max() * mesh.t_end > 30.0
        for n in (1, 4):
            t = mesh.nodes[n]
            want = [
                quad(lambda tau: math.exp(-lam * (t - tau)), 0.0, t,
                     weight="alg", wvar=(-0.25, 0.0), epsabs=0.0, epsrel=1e-13)[0]
                for lam in plan.lam_u
            ]
            np.testing.assert_allclose(plan.forcing_weights(n), want, rtol=1e-12)


class TestModeMap:
    """The plan's real-FFT half-spectrum mode map in dims 1-3."""

    @staticmethod
    def plan(dim, mesh=None, scheme="fast"):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim)
        return LinearPlan(params, GridSpec(dim=dim, points=64, half_width=8.0),
                          mesh, scheme)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mode_count_and_eigenvalues(self, dim):
        plan = self.plan(dim)
        points = plan.grid.points
        assert plan.nmodes == points ** (dim - 1) * (points // 2 + 1)
        lam_full = plan.grid.xi_squared() ** plan.params.s
        assert np.array_equal(plan.lam_u, np.unique(lam_full))
        if dim == 1:  # every half-spectrum mode has its own eigenvalue
            assert plan.lam_u.size == plan.nmodes

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_round_trip(self, dim):
        plan = self.plan(dim)
        v = np.random.default_rng(dim).standard_normal(plan.grid.shape)
        back = plan.to_values(plan.to_modes(v))
        assert back.shape == v.shape
        assert np.max(np.abs(back - v)) <= 1e-14 * np.max(np.abs(v))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linear_march_matches_full_spectrum(self, dim):
        # Z(t)u0 + S_w(t) from the full complex spectrum, built here from
        # ml_e_neg and the closed-form forcing, at every node of the march.
        mesh = TimeMesh.make(2.0, 6, grading=2.0)
        plan = self.plan(dim, mesh, "accurate")
        grid, params = plan.grid, plan.params
        r_sq = grid.radius_squared()
        x0 = grid.axis()[(slice(None),) + (None,) * (dim - 1)]
        u0 = Field(grid, np.exp(-r_sq / 4.0) * (1.0 + 0.3 * x0))
        w = Field(grid, 0.5 * np.exp(-((x0 - 1.0) ** 2) - r_sq / 9.0))
        res = integrate(params, grid, u0, w, mesh, q_report=2.0,
                        nonlinearity=False, forcing_scheme="accurate")
        lam_full = grid.xi_squared() ** params.s
        _, inv_full = np.unique(lam_full, return_inverse=True)
        inv_full = inv_full.reshape(grid.shape)
        u0_hat, w_hat = to_spectral(u0).modes, to_spectral(w).modes
        assert res.t_nodes.size == mesh.steps + 1
        for n in range(1, mesh.steps + 1):
            t_n = mesh.nodes[n]
            z = ml_e_neg(params.alpha, 1.0, lam_full * t_n**params.alpha)
            modes = z * u0_hat + plan.exact_forcing(t_n)[inv_full] * w_hat
            want = np.fft.ifftn(modes / grid.cell_volume).real
            np.testing.assert_allclose(
                res.linf_history[n], np.max(np.abs(want)), rtol=1e-12)
            np.testing.assert_allclose(
                res.lq_history[n], np.sqrt(np.sum(want**2) * grid.cell_volume),
                rtol=1e-12)
        np.testing.assert_allclose(res.final_field.values, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))


class TestClassification:
    THR = ClassifyThresholds(u_max=1e8, ratio_max=10.0, t_end=10.0)

    def test_trigger_means_blowup(self):
        t = np.array([0.0, 1.0, 2.0])
        ones = np.ones(3)
        label, when = classify(t, ones, ones, self.THR, triggered_at=2.0)
        assert label == "BlowUp"
        assert when == pytest.approx(2.0)

    def test_short_run_is_undetermined(self):
        t = np.linspace(0.0, 5.0, 20)  # stops before t_end = 10
        ones = np.ones(20)
        label, when = classify(t, ones, ones, self.THR, reached_end=False)
        assert label == "Undetermined"
        assert when is None

    def test_decaying_run_is_global(self):
        t = np.linspace(0.0, 10.0, 40)
        norms = 1.0 / (1.0 + t)
        label, when = classify(t, norms, norms, self.THR, reached_end=True)
        assert label == "Global"
        assert when is None

    def test_rising_tail_is_undetermined(self):
        t = np.linspace(0.0, 10.0, 40)
        norms = 1.0 + 0.5 * t  # grows 5% per node near the end
        label, _ = classify(t, norms, norms, self.THR, reached_end=True)
        assert label == "Undetermined"

    def test_decay_fit_power_law(self):
        t = np.geomspace(1.0, 100.0, 50)
        slope, r2 = estimate_decay_exponent(t, t**-0.25)
        assert slope == pytest.approx(-0.25, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_decay_fit_tolerates_ripple(self):
        t = np.geomspace(1.0, 100.0, 200)
        norms = 3.0 * t**-0.1 * (1.0 + 0.01 * np.sin(np.log(t)))
        slope, r2 = estimate_decay_exponent(t, norms)
        assert slope == pytest.approx(-0.1, abs=0.01)
        assert r2 > 0.98

    def test_decay_fit_needs_samples(self):
        t = np.geomspace(1.0, 10.0, 5)
        with pytest.raises(PreconditionError):
            estimate_decay_exponent(t, t**-0.5)


class TestIntegratorBehaviour:
    def test_deterministic_rerun(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=128, half_width=20.0)
        u0 = gaussian_field(grid, 0.1, 1.0)
        w = gaussian_field(grid, 0.1, 1.0)
        mesh = TimeMesh.make(1.0, 30, grading=2.0)
        a = integrate(params, grid, u0, w, mesh, q_report=4.0)
        b = integrate(params, grid, u0, w, mesh, q_report=4.0)
        assert np.array_equal(a.lq_history, b.lq_history)
        assert np.array_equal(a.final_field.values, b.final_field.values)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_data_triggers_blowup(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        u0 = gaussian_field(grid, 50.0, 1.0)
        mesh = TimeMesh.make(5.0, 40, grading=2.0)
        res = integrate(params, grid, u0, None, mesh)
        assert res.classification == "BlowUp"
        assert res.blowup_time_est is not None

    def test_dimension_mismatch_rejected(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=2)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(1.0, 5)
        with pytest.raises(PreconditionError):
            integrate(params, grid, None, None, mesh)

    @pytest.mark.parametrize("sigma, with_w", [(0.0, True), (-0.25, False)])
    def test_unknown_forcing_scheme_rejected(self, sigma, with_w):
        # Neither run reads the scheme (sigma = 0 sums the cell weights, and
        # w = None has no forcing), so only an up-front check can reject it.
        params = ModelParams(0.5, 0.4, sigma, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        w = gaussian_field(grid, 0.05, 1.0) if with_w else None
        mesh = TimeMesh.make(1.0, 5)
        with pytest.raises(DomainError, match="forcing scheme"):
            integrate(params, grid, None, w, mesh, forcing_scheme="bogus")
        with pytest.raises(DomainError, match="forcing scheme"):
            picard_solve(params, grid, None, w, mesh, forcing_scheme="bogus")


class TestPicard:
    def test_zero_data_fixed_point(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(0.5, 16, grading=2.0)
        res = picard_solve(params, grid, None, None, mesh)
        assert res.iterations == 1
        assert np.max(np.abs(res.final_field.values)) == 0.0
        assert res.contraction_factor == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_data_fails_to_contract(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        u0 = gaussian_field(grid, 50.0, 1.0)
        mesh = TimeMesh.make(5.0, 40, grading=2.0)
        with pytest.raises(NonContractionError):
            picard_solve(params, grid, u0, None, mesh)


class TestRegimeOracle:
    """The march on the Mittag-Leffler table against the regime evaluator.

    Every weight and propagator value of the march comes from the fast
    table; swapping it for `ml_e_neg` must leave the run unchanged.
    """

    PARAMS = ModelParams(0.5, 0.4, -0.25, 3.0)
    GRID = GridSpec(dim=1, points=128, half_width=20.0)

    @staticmethod
    def on_regimes(monkeypatch):
        monkeypatch.setattr(solver, "ml_neg_fast", lambda a, b, y: ml_e_neg(a, b, y))

    @staticmethod
    def assert_close(a, b):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("scheme", ["fast", "accurate"])
    def test_integrate(self, monkeypatch, scheme):
        u0 = gaussian_field(self.GRID, 0.05, 1.0)
        w = gaussian_field(self.GRID, 0.05, 1.0)
        mesh = TimeMesh.make(10.0, 40, grading=2.0)

        def run():
            return integrate(self.PARAMS, self.GRID, u0, w, mesh, q_report=4.0,
                             forcing_scheme=scheme)

        table = run()
        self.on_regimes(monkeypatch)
        oracle = run()
        assert table.classification == oracle.classification == "Global"
        self.assert_close(table.lq_history, oracle.lq_history)
        self.assert_close(table.linf_history, oracle.linf_history)

    def test_picard(self, monkeypatch):
        u0 = gaussian_field(self.GRID, 0.1, 1.0)
        w = gaussian_field(self.GRID, 0.1, 1.0)
        mesh = TimeMesh.make(1.0, 16, grading=2.0)

        def run():
            return picard_solve(self.PARAMS, self.GRID, u0, w, mesh, q_report=4.0,
                                forcing_scheme="accurate")

        table = run()
        self.on_regimes(monkeypatch)
        oracle = run()
        assert table.iterations == oracle.iterations
        self.assert_close(table.lq_history, oracle.lq_history)
        self.assert_close(table.linf_history, oracle.linf_history)
