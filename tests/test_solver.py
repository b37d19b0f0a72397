"""Time stepper: weight tables, exactness checks, classification, Picard."""
import collections
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn
from scipy.special import roots_jacobi

from fracsim import (
    ClassifyThresholds,
    DomainError,
    GridSpec,
    LinearPlan,
    ModelParams,
    NonContractionError,
    PreconditionError,
    SimResult,
    TimeMesh,
    Trigger,
    classify,
    estimate_decay_exponent,
    gaussian_field,
    integrate,
    integrate_many,
    lq_norm,
    ml_e_neg,
    picard_solve,
)
from fracsim.spectral import Field
import fracsim.solver as solver
import fracsim.spectral as spectral


def full_lam(grid: GridSpec, s: float) -> np.ndarray:
    """|xi|^(2s) on the full FFT-ordered mode grid."""
    ax = (2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)) ** 2
    return sum(np.meshgrid(*([ax] * grid.dim), indexing="ij")) ** s


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


JACOBI_CASES = [(a, sig) for a in (0.3, 0.5, 0.9) for sig in (-0.5, -0.25)]


class TestGaussJacobi:
    """The 12-point rule of the n = 1 forcing step, weight (1-x)^(a-1) (1+x)^sigma."""

    @pytest.mark.parametrize("a,sig", JACOBI_CASES)
    def test_nodes_match_scipy(self, a, sig):
        x, _ = solver._gauss_jacobi(12, a - 1.0, sig)
        want, _ = roots_jacobi(12, a - 1.0, sig)
        np.testing.assert_allclose(x, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("a,sig", JACOBI_CASES)
    def test_weights_match_a_40_digit_rule(self, a, sig):
        # Golub-Welsch at 40 digits.  scipy's roots_jacobi weights are up to
        # 1.9e-13 off this rule at (0.3, -0.5), so they are not the oracle.
        with mpmath.workdps(40):
            ja, jb = mpmath.mpf(a - 1.0), mpmath.mpf(sig)
            jac = mpmath.zeros(12, 12)
            for k in range(12):
                t = 2 * k + ja + jb
                jac[k, k] = ((jb - ja) / (ja + jb + 2) if k == 0
                             else (jb * jb - ja * ja) / (t * (t + 2)))
                if k:
                    ratio = 1 if k == 1 else (k + ja + jb) / (t - 1)
                    jac[k, k - 1] = jac[k - 1, k] = mpmath.sqrt(
                        4 * k * (k + ja) * (k + jb) * ratio / (t * t * (t + 1)))
            nodes, vecs = mpmath.eigsy(jac)
            mu0 = (2 ** (ja + jb + 1) * mpmath.gamma(ja + 1) * mpmath.gamma(jb + 1)
                   / mpmath.gamma(ja + jb + 2))
            order = sorted(range(12), key=lambda i: nodes[i])
            want = np.array([float(mu0 * vecs[0, i] ** 2) for i in order])
        _, w = solver._gauss_jacobi(12, a - 1.0, sig)
        np.testing.assert_allclose(w, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("a,sig", JACOBI_CASES)
    def test_rule_is_exact_to_degree_23(self, a, sig):
        # int x^k (1-x)^(a-1) (1+x)^sig dx from Beta functions, at 40 digits:
        # with x = 2t - 1 it is 2^(a+sig) sum_j C(k,j) 2^j (-1)^(k-j) B(j+sig+1, a).
        x, w = solver._gauss_jacobi(12, a - 1.0, sig)
        with mpmath.workdps(40):
            for k in range(24):
                exact = 2 ** mpmath.mpf(a + sig) * mpmath.fsum(
                    mpmath.binomial(k, j) * 2**j * (-1) ** (k - j)
                    * mpmath.beta(j + sig + 1, a) for j in range(k + 1))
                scale = float(np.sum(w * np.abs(x) ** k))
                assert abs(float(np.sum(w * x**k)) - float(exact)) <= 1e-13 * scale


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


    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_row_equals_the_closed_telescoped_row(self, n):
        # The old (n+1)-point formula, which also evaluates the d = 0 end,
        # on the criterion-09 bracket mesh; the row must match it bit for bit.
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        mesh = TimeMesh.make(50.0, 100, grading=2.0)
        plan = LinearPlan(params, GridSpec(dim=1, points=1024, half_width=50.0),
                          mesh)
        a = params.alpha
        d = (mesh.nodes[n] - mesh.nodes[: n + 1])[:, None] ** a
        e = d * solver.ml_neg_fast(a, a + 1.0, d * plan.lam_u[None, :])
        assert np.array_equal(plan.cell_weights(n), e[:-1] - e[1:])


class TestHistoryContraction:
    """`LinearPlan.history_modes` against the complex product-and-sum."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_complex_oracle(self, dim):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim)
        plan = LinearPlan(params, GridSpec(dim=dim, points=64, half_width=8.0))
        rng = np.random.default_rng(dim)
        m = 6
        hist = (rng.standard_normal((m + 1, plan.nmodes))
                + 1j * rng.standard_normal((m + 1, plan.nmodes)))
        planes = np.stack([hist.real, hist.imag], axis=1)
        trap = 0.5 * (planes[:-1] + planes[1:])
        gathered = np.empty((m, plan.nmodes))
        for n in (1, 2, m):
            cells = rng.random((n, plan.lam_u.size))
            wf = np.take(cells, plan.inv, axis=1)
            left = np.multiply(wf, hist[:n]).sum(axis=0)
            assert np.array_equal(plan.history_modes(cells, planes, gathered), left)
            # picard_solve's cell-trapezoid sample (N_j + N_{j+1}) / 2
            mid = np.sum(wf * 0.5 * (hist[:n] + hist[1 : n + 1]), axis=0)
            assert np.array_equal(plan.history_modes(cells, trap, gathered), mid)

    def test_planes_hold_the_modes(self):
        plan = LinearPlan(ModelParams(0.5, 0.4, -0.25, 3.0, dim=2),
                          GridSpec(dim=2, points=64, half_width=8.0))
        v = np.random.default_rng(5).standard_normal(plan.grid.shape)
        out = np.empty((2, plan.nmodes))
        plan.to_planes(v, out)
        modes = plan.to_modes(v)
        assert np.array_equal(out[0], modes.real)
        assert np.array_equal(out[1], modes.imag)


class TestMarchMemory:
    def test_traced_peak_of_a_warm_2d_march(self):
        # The march holds the real-plane history, the weight-gather buffer
        # and one cell-weight row; an (M, nmodes) complex temporary (1.35 MB
        # here) must not come back.  Slack: 1.2 MB for the Mittag-Leffler
        # temporaries of one row (0.68 MB for cell_weights(M) alone) and
        # the step's mode vectors.  Measured peak: 3.05 MB of a 3.42 MB bound.
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=2)
        grid = GridSpec(dim=2, points=64, half_width=8.0)
        mesh = TimeMesh.make(10.0, 40)
        w = gaussian_field(grid, 0.4, 1.0)
        integrate(params, grid, None, w, mesh)  # warm the Mittag-Leffler tables
        plan = LinearPlan(params, grid, mesh)
        m = mesh.steps
        history = (m + 1) * plan.nmodes * 16
        gather = m * plan.nmodes * 8
        row = m * plan.lam_u.size * 8
        slack = 1.2e6
        tracemalloc.start()
        try:
            res = integrate(params, grid, None, w, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.t_nodes.size == m + 1
        assert peak < history + gather + row + slack


class TestLinearExactness:
    def test_pure_diffusion_is_per_mode_exact(self, linear_values):
        # without nonlinearity and forcing the linear solution must reproduce
        # the mode-wise decay factor exactly, independent of step count.
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=128, half_width=20.0)
        u0 = gaussian_field(grid, 1.0, 2.0)
        mesh = TimeMesh.make(2.0, 7, grading=2.0)
        values = linear_values(LinearPlan(params, grid, mesh), u0, None)
        lam = full_lam(grid, params.s)
        u0_modes = np.fft.fft(u0.values)
        exact_modes = ml_e_neg(params.alpha, 1.0, lam * 2.0**params.alpha) * u0_modes
        exact = np.fft.ifft(exact_modes).real
        err = np.max(np.abs(values - exact))
        assert err <= 1e-12

    def test_forcing_zero_mode_closed_form(self, linear_values):
        # constant forcing, sigma < 0: the mean evolves as
        # c t^{sigma+alpha} B(sigma+1, alpha) / Gamma(alpha).
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        c = 0.3
        w = Field(grid, np.full(grid.shape, c))
        mesh = TimeMesh.make(2.0, 100, grading=2.0)
        values = linear_values(LinearPlan(params, grid, mesh, "accurate"), None, w)
        a, sig = params.alpha, params.sigma
        exact = c * 2.0 ** (sig + a) * beta_fn(sig + 1.0, a) / gamma_fn(a)
        mean = float(np.mean(values))
        assert mean == pytest.approx(exact, rel=1e-12)

    def test_forcing_single_mode_oracle(self, linear_values):
        # cos mode k = 8 on [-50, 50): lam = (8 pi / 50)^{0.8}. The mode
        # amplitude at T = 2 is int_0^T tau^sigma (T-tau)^{a-1}
        # E_{a,a}(-lam (T-tau)^a) dtau / Gamma-normalised, evaluated once with
        # 30-digit adaptive quadrature and frozen here.
        frozen = 0.8491344240237772
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        w = cosine_field(grid, 8)
        mesh = TimeMesh.make(2.0, 100, grading=2.0)
        values = linear_values(LinearPlan(params, grid, mesh, "accurate"), None, w)
        # solution is frozen * cos(xi x); read it off at x = 0
        val = float(values[grid.points // 2])
        assert val == pytest.approx(frozen, rel=1e-12)

    def test_forcing_sigma_zero_is_exact(self, linear_values):
        # sigma = 0 uses the closed form under either scheme, exact per mode:
        # the mean evolves as c t^a E_{a,a+1}(0) = c t^a / Gamma(a+1).
        params = ModelParams(0.5, 0.4, 0.0, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        c = 0.3
        w = Field(grid, np.full(grid.shape, c))
        mesh = TimeMesh.make(2.0, 5, grading=2.0)
        values = linear_values(LinearPlan(params, grid, mesh), None, w)
        exact = c * 2.0**0.5 / gamma_fn(1.5)
        mean = float(np.mean(values))
        assert mean == pytest.approx(exact, rel=1e-13)

    def test_forcing_scheme_refinement(self, linear_values):
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
                plan = LinearPlan(params, grid, mesh, scheme)
                val = float(linear_values(plan, None, w)[grid.points // 2])
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
        lam_full = full_lam(plan.grid, plan.params.s)
        assert np.array_equal(plan.lam_u, np.unique(lam_full))
        if dim == 1:  # every half-spectrum mode has its own eigenvalue
            assert plan.lam_u.size == plan.nmodes

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gather_is_the_row_itself_only_under_the_identity_map(self, dim):
        plan = self.plan(dim, TimeMesh.make(2.0, 6))
        cells = plan.cell_weights(4)
        buffer = plan.gather_buffer()
        row = plan.gather(cells, buffer)
        assert np.array_equal(row, np.take(cells, plan.inv, axis=1))
        assert plan.identity_map == (dim == 1)
        if dim == 1:
            assert row is cells and buffer is None
        else:
            assert row is not cells and np.shares_memory(row, buffer)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_round_trip(self, dim):
        plan = self.plan(dim)
        v = np.random.default_rng(dim).standard_normal(plan.grid.shape)
        back = plan.to_values(plan.to_modes(v))
        assert back.shape == v.shape
        assert np.max(np.abs(back - v)) <= 1e-14 * np.max(np.abs(v))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linear_march_matches_full_spectrum(self, dim, linear_values):
        # Z(t)u0 + S_w(t) from the full complex spectrum, built here from
        # ml_e_neg and the closed-form forcing, at every node of the march.
        mesh = TimeMesh.make(2.0, 6, grading=2.0)
        plan = self.plan(dim, mesh, "accurate")
        grid, params = plan.grid, plan.params
        r_sq = grid.radius_squared()
        x0 = grid.axis()[(slice(None),) + (None,) * (dim - 1)]
        u0 = Field(grid, np.exp(-r_sq / 4.0) * (1.0 + 0.3 * x0))
        w = Field(grid, 0.5 * np.exp(-((x0 - 1.0) ** 2) - r_sq / 9.0))
        lam_full = full_lam(grid, params.s)
        _, inv_full = np.unique(lam_full, return_inverse=True)
        inv_full = inv_full.reshape(grid.shape)
        u0_hat = np.fft.fftn(u0.values) * grid.cell_volume
        w_hat = np.fft.fftn(w.values) * grid.cell_volume
        for n in range(1, mesh.steps + 1):
            t_n = mesh.nodes[n]
            z = ml_e_neg(params.alpha, 1.0, lam_full * t_n**params.alpha)
            modes = z * u0_hat + plan.exact_forcing(t_n)[inv_full] * w_hat
            want = np.fft.ifftn(modes / grid.cell_volume).real
            got = linear_values(plan, u0, w, n)
            np.testing.assert_allclose(
                np.max(np.abs(got)), np.max(np.abs(want)), rtol=1e-12)
            np.testing.assert_allclose(
                lq_norm(Field(grid, got), 2.0),
                np.sqrt(np.sum(want**2) * grid.cell_volume), rtol=1e-12)
        np.testing.assert_allclose(got, want, rtol=0,
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

    def test_classify_t_end_past_the_mesh_end_rejected(self):
        # Classification at t = 50 on a mesh that ends at 20 could only say
        # Undetermined; the same run classified at its mesh end is Global.
        params = ModelParams(0.5, 0.4, -0.25, 4.0)
        grid = GridSpec(dim=1, points=512, half_width=50.0)
        w = gaussian_field(grid, 0.01, 1.0)
        mesh = TimeMesh.make(20.0, 100)
        assert integrate(params, grid, None, w, mesh).classification == "Global"
        with pytest.raises(DomainError, match="classify.t_end 50.0 exceeds "
                                              "time.t_end 20.0"):
            integrate(params, grid, None, w, mesh,
                      thresholds=ClassifyThresholds(u_max=1e6))

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


class TestIntegrateMany:
    """A lockstep march of several p against each member's own march."""

    @staticmethod
    def assert_same_run(a, b):
        for name in ("t_nodes", "lq_history", "linf_history"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("params", "classification", "blowup_time_est",
                     "decay_exponent", "decay_r_squared", "tail_fraction_max",
                     "notes"):
            assert getattr(a, name) == getattr(b, name)
        assert np.array_equal(a.final_field.values, b.final_field.values)

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_1d_members_with_an_early_exit_equal_their_own_marches(self):
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        u0 = gaussian_field(grid, 0.05, 1.0)
        w = gaussian_field(grid, 0.4, 1.0)
        mesh = TimeMesh.make(50.0, 60)
        params = [ModelParams(0.5, 0.4, -0.25, p) for p in (3.0, 1.5, 4.0)]
        many = integrate_many(params, grid, u0, w, mesh, q_report=4.0)
        assert [r.classification for r in many] == ["Global", "BlowUp", "Global"]
        # p = 1.5 stops mid-march while the others march on without it
        assert 1 < many[1].t_nodes.size - 1 < mesh.steps
        for par, res in zip(params, many):
            self.assert_same_run(res, integrate(par, grid, u0, w, mesh, q_report=4.0))

    def test_2d_members_equal_their_own_marches(self):
        grid = GridSpec(dim=2, points=64, half_width=8.0)
        w = gaussian_field(grid, 0.4, 1.0)
        mesh = TimeMesh.make(10.0, 40)
        params = [ModelParams(0.5, 0.4, -0.25, p, dim=2) for p in (2.0, 3.0)]
        many = integrate_many(params, grid, None, w, mesh, q_report=4.0)
        for par, res in zip(params, many):
            self.assert_same_run(res, integrate(par, grid, None, w, mesh, q_report=4.0))

    @staticmethod
    def assert_identical(a, b):
        """Every field of two results equal bit for bit; a run stopped by
        non-finite values has no final field."""
        for f in dataclasses.fields(SimResult):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, Field):
                x, y = x.values, y.values
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y), f.name
            else:
                assert x == y, f.name

    # p = 2000 overflows |u|^p at once (non-finite values at the first step),
    # p = 20 crosses u_max at that step and p = 3 runs on until its growth
    # ratio trips.
    TRIGGER_POWERS = {"non_finite": 2000.0, "amplitude": 20.0, "growth_ratio": 3.0}

    @staticmethod
    def trigger_setup():
        grid = GridSpec(dim=1, points=128, half_width=20.0)
        u0 = gaussian_field(grid, 2.0, 1.0)
        thr = ClassifyThresholds(u_max=1e3, ratio_max=1.5, t_end=1.0)
        return grid, u0, TimeMesh.make(1.0, 40), thr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_three_trigger_kinds_in_one_march_equal_their_own_marches(self):
        grid, u0, mesh, thr = self.trigger_setup()
        params = [ModelParams(0.5, 0.4, -0.25, p, dim=1)
                  for p in self.TRIGGER_POWERS.values()]
        many = integrate_many(params, grid, u0, None, mesh, q_report=4.0,
                              thresholds=thr)
        assert [r.trigger.kind for r in many] == list(self.TRIGGER_POWERS)
        first, second, third = (r.trigger.t for r in many)
        assert first == second == mesh.nodes[1] < third
        for par, res in zip(params, many):
            self.assert_identical(res, integrate(par, grid, u0, None, mesh,
                                                 q_report=4.0, thresholds=thr))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_3d_members_equal_their_own_marches(self):
        # The smallest grid is 64 points per axis.
        grid = GridSpec(dim=3, points=64, half_width=6.0)
        u0 = gaussian_field(grid, 2.0, 1.0)
        w = gaussian_field(grid, 0.2, 1.0)
        mesh = TimeMesh.make(0.5, 4)
        params = [ModelParams(0.5, 0.4, -0.25, p, dim=3) for p in (2000.0, 3.0, 2.0)]
        many = integrate_many(params, grid, u0, w, mesh, q_report=4.0)
        assert many[0].trigger.kind == "non_finite"
        assert [r.t_nodes.size - 1 for r in many] == [1, mesh.steps, mesh.steps]
        for par, res in zip(params, many):
            self.assert_identical(res, integrate(par, grid, u0, w, mesh, q_report=4.0))

    def test_one_transform_each_way_per_step(self, monkeypatch):
        # The live members share one inverse and one forward transform per
        # step; per-member transforms would multiply these counts.
        calls = collections.Counter()
        for name in ("rfftn", "irfftn"):
            def counted(*args, _real=getattr(spectral.np.fft, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(spectral.np.fft, name, counted)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        u0 = gaussian_field(grid, 0.05, 1.0)
        w = gaussian_field(grid, 0.05, 1.0)
        mesh = TimeMesh.make(2.0, 12)
        params = [ModelParams(0.5, 0.4, -0.25, p) for p in (2.0, 3.0, 4.0)]
        many = integrate_many(params, grid, u0, w, mesh)
        assert all(r.t_nodes.size - 1 == mesh.steps for r in many)
        assert calls["irfftn"] == mesh.steps
        # u0, w and the first history entry, then one per step
        assert calls["rfftn"] <= mesh.steps + 3

    def test_members_must_differ_only_in_p(self):
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(1.0, 5)
        base = ModelParams(0.5, 0.4, -0.25, 3.0)
        for other in (ModelParams(0.6, 0.4, -0.25, 2.0),
                      ModelParams(0.5, 0.3, -0.25, 2.0),
                      ModelParams(0.5, 0.4, -0.2, 2.0)):
            with pytest.raises(PreconditionError, match="share"):
                integrate_many([base, other], grid, None, None, mesh)
        with pytest.raises(PreconditionError, match="at least one"):
            integrate_many([], grid, None, None, mesh)


class TestTrigger:
    """`SimResult.trigger`: kind, node time and value of an early stop."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    @pytest.mark.parametrize("kind", list(TestIntegrateMany.TRIGGER_POWERS))
    def test_each_kind(self, kind):
        grid, u0, mesh, thr = TestIntegrateMany.trigger_setup()
        params = ModelParams(0.5, 0.4, -0.25, TestIntegrateMany.TRIGGER_POWERS[kind])
        res = integrate(params, grid, u0, None, mesh, q_report=4.0, thresholds=thr)
        trig = res.trigger
        assert trig.kind == kind
        assert trig.t == res.t_nodes[-1] == res.blowup_time_est
        assert res.classification == "BlowUp"
        assert res.notes[0] == trig.note
        linf = res.linf_history
        if kind == "non_finite":
            assert trig.value == math.inf == linf[-1]
            assert res.final_field is None
            assert trig.note == f"non-finite values at t={trig.t:.6g}"
        elif kind == "amplitude":
            assert trig.value == linf[-1] > thr.u_max
            assert trig.note == f"amplitude threshold exceeded at t={trig.t:.6g}"
        else:
            assert trig.value == linf[-1] / linf[-2] > thr.ratio_max
            assert linf[-1] <= thr.u_max
            assert trig.note == f"per-step growth ratio exceeded at t={trig.t:.6g}"

    def test_a_run_to_the_end_has_none(self):
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        res = integrate(ModelParams(0.5, 0.4, -0.25, 3.0), grid, None,
                        gaussian_field(grid, 0.05, 1.0), TimeMesh.make(2.0, 12))
        assert res.trigger is None and res.notes == []

    def test_is_frozen(self):
        trig = Trigger("amplitude", 1.0, 2e8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trig.value = 0.0


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
