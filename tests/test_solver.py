"""Time stepper: weight tables, exactness checks, classification, Picard."""
import collections
import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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
    ResolutionWarning,
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
    """|xi|^(2s) on the full FFT-ordered mode grid, xi = pi k / L from
    integer wave numbers k."""
    k = np.fft.fftfreq(grid.points, 1.0 / grid.points)
    k2 = sum(np.meshgrid(*([k * k] * grid.dim), indexing="ij"))
    return ((np.pi / grid.half_width) ** 2 * k2) ** s


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

    def test_boolean_dim_rejected(self):
        with pytest.raises(DomainError, match="dim must be 1, 2 or 3, got True"):
            ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=3.0, dim=True)

    def test_infinite_p_rejected(self):
        with pytest.raises(DomainError, match="p must be finite"):
            ModelParams(alpha=0.5, s=0.4, sigma=-0.25, p=math.inf)

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

    @pytest.mark.parametrize("steps", [100.5, True])
    def test_time_mesh_steps_must_be_an_integer(self, steps):
        with pytest.raises(DomainError, match=f"steps must be an integer >= 2, got {steps}"):
            TimeMesh.make(50.0, steps)

    def test_time_mesh_grading_must_be_finite(self):
        with pytest.raises(DomainError, match="grading must be >= 1 and finite, got inf"):
            TimeMesh.make(50.0, 100, grading=math.inf)

    def test_time_mesh_validation(self):
        with pytest.raises(DomainError):
            TimeMesh.make(0.0, 10)
        with pytest.raises(DomainError):
            TimeMesh.make(1.0, 1)
        with pytest.raises(DomainError):
            TimeMesh.make(1.0, 10, grading=0.5)
        with pytest.raises(PreconditionError):
            TimeMesh(np.array([0.0, 1.0]))
        with pytest.raises(PreconditionError):
            TimeMesh(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(PreconditionError):
            TimeMesh(np.array([0.0, 0.5, 0.4]))
        with pytest.raises(PreconditionError, match="finite"):
            TimeMesh(np.array([0.0, 1.0, np.inf]))


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
        plan = LinearPlan(params, self.GRID)
        assert plan.lam_u[0] == 0.0
        a = params.alpha
        t = mesh.nodes
        for n in range(1, 9):
            expected = (
                (t[n] - t[:n]) ** a - (t[n] - t[1 : n + 1]) ** a
            ) / gamma_fn(a + 1.0)
            row = plan.cell_weights(t[: n + 1])
            assert row[:, 0] == pytest.approx(expected, rel=1e-12)

    def test_classical_limit_exponential_weights(self):
        # alpha = 1: the kernel is e^{-lam (t - tau)}.  A wide box keeps every
        # lam = |xi| at most ~1, as in the single-lam check this replaces.
        params = ModelParams(1.0, 0.5, 0.0, 2.0)
        mesh = TimeMesh.make(1.5, 6, grading=1.0)
        plan = LinearPlan(params, GridSpec(dim=1, points=64, half_width=100.0))
        lam = plan.lam_u[1:]
        assert plan.lam_u[0] == 0.0 and lam.max() < 1.01
        t = mesh.nodes
        for n in range(1, 7):
            expected = (
                np.exp(-lam * (t[n] - t[1 : n + 1, None]))
                - np.exp(-lam * (t[n] - t[:n, None]))
            ) / lam
            row = plan.cell_weights(t[: n + 1])
            assert row[:, 1:] == pytest.approx(expected, rel=1e-12)

    # The 64-point line's cell row takes the table at every eigenvalue;
    # the bracket's 1024-point line and the march_2d 128^2 grid interpolate.
    GRIDS = [GRID, GridSpec(dim=1, points=1024, half_width=50.0),
             GridSpec(dim=2, points=128, half_width=16.0)]

    def test_telescoping_and_positivity(self):
        self.check_telescoping_and_positivity(self.GRID)

    @pytest.mark.parametrize("grid", GRIDS[1:], ids=["1d-1024", "2d-128"])
    def test_telescoping_and_positivity_of_interpolated_rows(self, grid):
        self.check_telescoping_and_positivity(grid)

    @staticmethod
    def check_telescoping_and_positivity(grid):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=grid.dim)
        mesh = TimeMesh.make(3.0, 12, grading=2.0)
        plan = LinearPlan(params, grid)
        a = params.alpha
        lam = plan.lam_u
        for n in range(1, 13):
            w = plan.cell_weights(mesh.nodes[: n + 1])
            # one row per cell before node n, one column per unique lam
            assert w.shape == (n, lam.size)
            assert np.all(w >= 0.0)
            t_n = mesh.nodes[n]
            total = t_n**a * ml_e_neg(a, a + 1.0, lam * t_n**a)
            assert np.sum(w, axis=0) == pytest.approx(total, rel=1e-10)

    @staticmethod
    def regime_row(plan, nodes):
        """Node n's row from `ml_e_neg` at every eigenvalue, and its
        largest weight per column."""
        a, n = plan.params.alpha, nodes.size - 1
        d = (nodes[n] - nodes)[:, None] ** a
        e = d * ml_e_neg(a, a + 1.0, d * plan.lam_u)
        row = e[:-1] - e[1:]
        return row, np.max(np.abs(row), axis=0)

    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_row_equals_the_closed_telescoped_row(self, n):
        # The old (n+1)-point formula, which also evaluates the d = 0 end and
        # takes the table at every eigenvalue, on the criterion-09 bracket
        # mesh: the interpolated row and that direct row are each within
        # 5e-14 of the regimes' row, relative to the column's largest weight.
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        mesh = TimeMesh.make(50.0, 100, grading=2.0)
        plan = LinearPlan(params, GridSpec(dim=1, points=1024, half_width=50.0))
        a, nodes = params.alpha, mesh.nodes[: n + 1]
        d = (nodes[n] - nodes)[:, None] ** a
        e = d * solver.ml_neg_fast(a, a + 1.0, d * plan.lam_u[None, :])
        exact, scale = self.regime_row(plan, nodes)
        for row in (plan.cell_weights(nodes), e[:-1] - e[1:]):
            assert np.max(np.abs(row - exact) / scale) <= 5e-14

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0])
    @pytest.mark.parametrize("grid, mesh, steps", [
        (GridSpec(dim=1, points=1024, half_width=50.0), TimeMesh.make(50.0, 100),
         (1, 2, 10, 100)),
        (GridSpec(dim=1, points=65536, half_width=50.0), TimeMesh.make(50.0, 20),
         (1, 3, 20)),
        (GridSpec(dim=2, points=128, half_width=16.0), TimeMesh.make(20.0, 40),
         (1, 5, 40)),
        (GridSpec(dim=3, points=64, half_width=16.0), TimeMesh.make(20.0, 10),
         (1, 10)),
    ], ids=["1d-1024", "1d-65536", "2d-128", "3d-64"])
    def test_interpolated_row_against_the_regimes(self, alpha, grid, mesh, steps):
        # The rows from K table nodes and the barycentric matrix are within
        # 1e-13 of the regimes' rows at every eigenvalue, relative to each
        # column's largest weight (worst measured: 7.6e-14, which is the
        # table's own error on the 1024-point line at alpha = 0.95).
        plan = LinearPlan(ModelParams(alpha, 0.4, -0.25, 3.0, dim=grid.dim), grid)
        lam_k, interp = plan.cell_interpolant
        assert interp.shape == (lam_k.size, plan.lam_u.size - 1)
        assert 2 * lam_k.size < plan.lam_u.size - 1
        for n in steps:
            exact, scale = self.regime_row(plan, mesh.nodes[: n + 1])
            row = plan.cell_weights(mesh.nodes[: n + 1])
            assert np.max(np.abs(row - exact) / scale) <= 1e-13

    def test_node_count_and_identity(self):
        # K from the Bernstein-ellipse bound: 48 on the bracket's line, 37 on
        # the march_2d grid.  Where K >= (L-1)/2 (the 64-point line needs
        # 41 of 32) the nodes are the eigenvalues and P is the identity.
        for alpha, grid, count in [
            (0.5, GridSpec(dim=1, points=1024, half_width=50.0), 48),
            (0.9, GridSpec(dim=1, points=1024, half_width=50.0), 63),
            (1.0, GridSpec(dim=1, points=1024, half_width=50.0), 69),
            (0.5, GridSpec(dim=2, points=128, half_width=16.0), 37),
        ]:
            plan = LinearPlan(ModelParams(alpha, 0.4, -0.25, 3.0, dim=grid.dim), grid)
            assert plan.cell_interpolant[0].size == count
            lam = plan.lam_u[1:]
            assert plan.cell_interpolant[0].min() == pytest.approx(lam.min(), rel=1e-15)
            assert plan.cell_interpolant[0].max() == pytest.approx(lam.max(), rel=1e-15)
        plan = LinearPlan(ModelParams(0.5, 0.4, -0.25, 3.0), self.GRID)
        lam_k, interp = plan.cell_interpolant
        assert np.array_equal(lam_k, plan.lam_u[1:])
        assert np.array_equal(interp, np.eye(lam_k.size))

    @pytest.mark.parametrize("grid", [GRID, GridSpec(dim=2, points=64, half_width=10.0),
                                      *GRIDS[1:]],
                             ids=["1", "2", "1d-1024", "2d-128"])
    def test_row_in_the_march_scratch_equals_the_new_row(self, grid):
        # Every node's row, written into one scratch in rising and then in
        # falling order, is a view of it and equals the allocating call bit
        # for bit; nothing is read from an earlier step's contents.
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=grid.dim)
        mesh = TimeMesh.make(10.0, 30, grading=2.0)
        plan = LinearPlan(params, grid)
        buf = plan.cell_buffer(mesh.steps)
        for n in [*range(1, mesh.steps + 1), *range(mesh.steps, 0, -1)]:
            row = plan.cell_weights(mesh.nodes[: n + 1], buf)
            assert row.shape == (n, plan.lam_u.size)
            assert np.shares_memory(row, buf)
            assert np.array_equal(row, plan.cell_weights(mesh.nodes[: n + 1]))


class TestHistoryContraction:
    """`LinearPlan.contract` of the compact cell row against the complex
    product-and-sum over the modes."""

    @staticmethod
    def slot_planes(plan, modes):
        planes = np.empty(modes.shape[:-1] + (2, plan.grid.nmodes))
        plan.to_slots(modes, planes)
        return planes

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_complex_oracle(self, dim):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim)
        plan = LinearPlan(params, GridSpec(dim=dim, points=64, half_width=8.0))
        rng = np.random.default_rng(dim)
        m = 6
        hist = (rng.standard_normal((m + 1, plan.grid.nmodes))
                + 1j * rng.standard_normal((m + 1, plan.grid.nmodes)))
        planes = self.slot_planes(plan, hist)
        trap = 0.5 * (planes[:-1] + planes[1:])
        for n in (1, 2, m):
            cells = rng.random((n, plan.lam_u.size))
            wf = np.take(cells, plan.inv, axis=1)
            left = np.multiply(wf, hist[:n]).sum(axis=0)
            assert np.array_equal(plan.contract(cells, planes), left)
            # picard_solve's cell-trapezoid sample (N_j + N_{j+1}) / 2
            mid = np.sum(wf * 0.5 * (hist[:n] + hist[1 : n + 1]), axis=0)
            assert np.array_equal(plan.contract(cells, trap), mid)

    def test_planes_hold_the_modes(self):
        # Plane 0 is the real part and plane 1 the imaginary part: one cell
        # of unit weight contracts a history of one node back to its modes.
        plan = LinearPlan(ModelParams(0.5, 0.4, -0.25, 3.0, dim=2),
                          GridSpec(dim=2, points=64, half_width=8.0))
        v = np.random.default_rng(5).standard_normal(plan.grid.shape)
        modes = plan.grid.to_modes(v)
        planes = self.slot_planes(plan, modes[None])
        assert np.array_equal(planes[0, 0], modes.real[plan.perm])
        assert np.array_equal(planes[0, 1], modes.imag[plan.perm])
        out = plan.contract(np.ones((1, plan.lam_u.size)), planes)
        assert np.array_equal(out.real, modes.real)
        assert np.array_equal(out.imag, modes.imag)
        with pytest.raises(PreconditionError):  # a copy would drop the writes
            plan.to_slots(modes, np.empty((plan.grid.nmodes, 2)).T)


class TestMarchMemory:
    def test_traced_peak_of_a_warm_2d_march(self):
        # The march holds the real-plane history and the cell-weight
        # scratch (the row plane and the (M, K) argument plane), and
        # contracts the compact row with no (M, nmodes) weight gather
        # (0.68 MB here) or complex temporary (1.35 MB).  Slack: 1.2 MB for
        # the argument plane, the (K, L-1) interpolation matrix, the
        # table's chunk buffers, the plan's slot gathers and the step's
        # mode vectors.  Measured peak: 2.17 MB of a 2.73 MB bound.
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=2)
        grid = GridSpec(dim=2, points=64, half_width=8.0)
        mesh = TimeMesh.make(10.0, 40)
        w = gaussian_field(grid, 0.4, 1.0)
        integrate(params, grid, None, w, mesh)  # warm the Mittag-Leffler tables
        plan = LinearPlan(params, grid)
        m = mesh.steps
        history = (m + 1) * plan.grid.nmodes * 16
        row = m * plan.lam_u.size * 8
        slack = 1.2e6
        tracemalloc.start()
        try:
            res = integrate(params, grid, None, w, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.t_nodes.size == m + 1
        assert peak < history + row + slack

    FAULTS = """
import resource
import fracsim as fs
grid = fs.GridSpec(dim=1, points=1024, half_width=50.0)
params = fs.ModelParams(0.5, 0.4, -0.25, 3.0)
w = fs.gaussian_field(grid, 0.4, 1.0)
mesh = fs.TimeMesh.make(50.0, 200)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fs.integrate(params, grid, None, w, mesh)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    def test_one_shot_march_reuses_its_scratch(self):
        # A fresh process marches the canonical 1D run once, Mittag-Leffler
        # tables included.  Per-step cell-weight arrays, one row larger each
        # step, come back from the allocator as fresh pages: ~28000 minor
        # page faults at M = 200, growing like M^2 L for L eigenvalues.  With
        # the march's scratch allocated once it takes ~2600.
        resource = pytest.importorskip("resource")
        if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
            pytest.skip("getrusage reports no minor page faults here")
        src = str(pathlib.Path(solver.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", self.FAULTS], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert int(out.stdout.split()[-1]) < 8000


class TestLinearExactness:
    def test_pure_diffusion_is_per_mode_exact(self, linear_values):
        # without nonlinearity and forcing the linear solution must reproduce
        # the mode-wise decay factor exactly, independent of step count.
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=128, half_width=20.0)
        u0 = gaussian_field(grid, 1.0, 2.0)
        mesh = TimeMesh.make(2.0, 7, grading=2.0)
        values = linear_values(LinearPlan(params, grid), mesh.nodes, u0, None)
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
        values = linear_values(LinearPlan(params, grid, forcing_scheme="accurate"),
                               mesh.nodes, None, w)
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
        values = linear_values(LinearPlan(params, grid, forcing_scheme="accurate"),
                               mesh.nodes, None, w)
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
        values = linear_values(LinearPlan(params, grid), mesh.nodes, None, w)
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
                plan = LinearPlan(params, grid, forcing_scheme=scheme)
                val = float(linear_values(plan, mesh.nodes, None, w)[grid.points // 2])
                found.append(abs(val - frozen) / frozen)
        fast = errs["fast"]
        assert fast[0] > fast[1] > fast[2]
        assert max(errs["accurate"]) <= 1e-12

    def test_exact_forcing_at_alpha_one(self):
        # alpha = 1: S(t; lam) = int_0^t tau^sigma e^{-lam (t - tau)} dtau.
        # E_{1,2+sigma} comes from Kummer's sum; lam t reaches ~50, where its
        # power series cancels badly.
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(5.0, 4, grading=2.0)
        for sigma in (-0.75, -0.25, -0.1):
            plan = LinearPlan(ModelParams(1.0, 0.5, sigma, 3.0), grid,
                              forcing_scheme="accurate")
            assert plan.lam_u.max() * mesh.t_end > 30.0
            for n in (1, 4):
                t = mesh.nodes[n]
                want = [
                    quad(lambda tau: math.exp(-lam * (t - tau)), 0.0, t, weight="alg",
                         wvar=(sigma, 0.0), epsabs=0.0, epsrel=1e-13)[0]
                    for lam in plan.lam_u
                ]
                np.testing.assert_allclose(plan.forcing_weights(mesh.nodes[: n + 1]),
                                           want, rtol=1e-12)


class TestModeMap:
    """The plan's real-FFT half-spectrum mode map in dims 1-3."""

    def test_plan_takes_no_mesh(self):
        # The march owns the node times: a positional third argument is a
        # stale call, not a forcing scheme.
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=8.0)
        mesh = TimeMesh.make(2.0, 6)
        with pytest.raises(TypeError):
            LinearPlan(params, grid, mesh)
        with pytest.raises(TypeError):
            LinearPlan(params, grid, "accurate")
        assert not hasattr(LinearPlan(params, grid), "mesh")

    @staticmethod
    def plan(dim, scheme="fast"):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim)
        return LinearPlan(params, GridSpec(dim=dim, points=64, half_width=8.0),
                          forcing_scheme=scheme)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mode_count_and_eigenvalues(self, dim):
        plan = self.plan(dim)
        points = plan.grid.points
        assert plan.grid.nmodes == points ** (dim - 1) * (points // 2 + 1)
        lam_full = full_lam(plan.grid, plan.params.s)
        # The same eigenvalue set, each value once, zero first.
        assert np.array_equal(np.sort(plan.lam_u), np.unique(lam_full))
        assert np.unique(plan.lam_u).size == plan.lam_u.size
        assert plan.lam_u[0] == 0.0
        if dim == 1:  # every half-spectrum mode has its own eigenvalue
            assert plan.lam_u.size == plan.grid.nmodes
            assert np.all(np.diff(plan.lam_u) > 0.0)

    @pytest.mark.parametrize("dim, points, distinct", [(1, 1024, 513), (2, 128, 1621),
                                                       (3, 64, 1914)])
    def test_one_eigenvalue_per_integer_wave_number_norm(self, dim, points, distinct):
        grid = GridSpec(dim=dim, points=points, half_width=50.0)
        plan = LinearPlan(ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim), grid)
        k = np.fft.fftfreq(points, 1.0 / points).astype(int)
        axes = [k * k] * (dim - 1) + [np.arange(points // 2 + 1) ** 2]
        k2 = sum(np.meshgrid(*axes, indexing="ij")).ravel()
        assert plan.lam_u.size == np.unique(k2).size == distinct
        # each |k|^2 maps to one eigenvalue, and each eigenvalue to one |k|^2
        assert np.unique(np.stack([k2, plan.inv]), axis=1).shape[1] == distinct
        # 1D keeps the natural mode order; 2D and 3D regroup the modes
        assert np.array_equal(plan.perm, np.arange(plan.grid.nmodes)) == (dim == 1)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_spread_puts_each_eigenvalue_on_its_modes(self, dim):
        plan = self.plan(dim)
        per_lam = plan.propagator(1.0)
        assert np.array_equal(plan.spread(per_lam), per_lam[plan.inv])
        cells = np.random.default_rng(dim).random((3, plan.lam_u.size))
        assert np.array_equal(plan.spread(cells), np.take(cells, plan.inv, axis=1))
        for gone in ("gather_buffer", "identity_map"):
            assert not hasattr(plan, gone)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_round_trip(self, dim):
        plan = self.plan(dim)
        v = np.random.default_rng(dim).standard_normal(plan.grid.shape)
        back = plan.grid.to_values(plan.grid.to_modes(v))
        assert back.shape == v.shape
        assert np.max(np.abs(back - v)) <= 1e-14 * np.max(np.abs(v))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linear_march_matches_full_spectrum(self, dim, linear_values):
        # Z(t)u0 + S_w(t) from the full complex spectrum, built here from
        # ml_e_neg and the closed-form forcing, at every node of the march.
        mesh = TimeMesh.make(2.0, 6, grading=2.0)
        plan = self.plan(dim, "accurate")
        grid, params = plan.grid, plan.params
        r_sq = grid.radius_squared()
        x0 = grid.axis()[(slice(None),) + (None,) * (dim - 1)]
        u0 = Field(grid, np.exp(-r_sq / 4.0) * (1.0 + 0.3 * x0))
        w = Field(grid, 0.5 * np.exp(-((x0 - 1.0) ** 2) - r_sq / 9.0))
        lam_full = full_lam(grid, params.s)
        # full-spectrum mode -> the plan's column of its eigenvalue
        _, inv_full = np.unique(lam_full, return_inverse=True)
        inv_full = np.argsort(plan.lam_u)[inv_full.reshape(grid.shape)]
        u0_hat = np.fft.fftn(u0.values) * grid.cell_volume
        w_hat = np.fft.fftn(w.values) * grid.cell_volume
        for n in range(1, mesh.steps + 1):
            t_n = mesh.nodes[n]
            z = ml_e_neg(params.alpha, 1.0, lam_full * t_n**params.alpha)
            modes = z * u0_hat + plan.exact_forcing(t_n)[inv_full] * w_hat
            want = np.fft.ifftn(modes / grid.cell_volume).real
            got = linear_values(plan, mesh.nodes[: n + 1], u0, w)
            np.testing.assert_allclose(
                np.max(np.abs(got)), np.max(np.abs(want)), rtol=1e-12)
            np.testing.assert_allclose(
                lq_norm(Field(grid, got), 2.0),
                np.sqrt(np.sum(want**2) * grid.cell_volume), rtol=1e-12)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))


class TestSlotLayout:
    """The history's slot order: slot r holds the r-th mode of every
    eigenvalue with more than r modes, against the suffix of the row's
    columns ordered by (multiplicity, lam)."""

    @pytest.mark.parametrize("dim, points", [(1, 64), (2, 64), (3, 64), (2, 128)])
    def test_slots_read_the_column_suffix(self, dim, points):
        grid = GridSpec(dim=dim, points=points, half_width=8.0)
        plan = LinearPlan(ModelParams(0.5, 0.4, -0.25, 3.0, dim=dim), grid)
        n_cols, inv, perm = plan.lam_u.size, plan.inv, plan.perm
        assert np.array_equal(np.sort(perm), np.arange(plan.grid.nmodes))
        mult = np.bincount(inv, minlength=n_cols)
        assert np.all(np.diff(mult) >= 0)
        # within one multiplicity the columns keep ascending lam
        for m in np.unique(mult):
            assert np.all(np.diff(plan.lam_u[mult == m]) > 0.0)
        r, end = 0, 0
        seen, last = np.zeros(n_cols, dtype=int), np.full(n_cols, -1)
        widths = [width for _, _, width in plan.slots]
        assert widths == sorted(set(widths), reverse=True)  # equal widths merged
        for start, stop, width in plan.slots:
            assert start == end and (stop - start) % width == 0
            end = stop
            for first in range(start, stop, width):
                # slot r: every column with more than r modes, in order
                assert width == np.count_nonzero(mult > r)
                modes = perm[first : first + width]
                cols = inv[modes]
                assert np.array_equal(cols, np.arange(n_cols - width, n_cols))
                assert np.all(mult[cols] > r)
                # slots 0, 1, ... take each column's modes in natural order
                assert np.all(modes > last[cols])
                last[cols] = modes
                seen[cols] += 1
                r += 1
        assert end == plan.grid.nmodes and np.array_equal(seen, mult)
        assert r == mult.max()
        if dim == 1:
            assert plan.slots == ((0, plan.grid.nmodes, plan.grid.nmodes),)

    def test_march_2d_grid_merges_to_one_einsum_per_multiplicity(self):
        # 1621 eigenvalues on 8320 modes, with 11 distinct multiplicities up
        # to 16: one merged run of slots per distinct multiplicity.
        grid = GridSpec(dim=2, points=128, half_width=16.0)
        plan = LinearPlan(ModelParams(0.5, 0.4, -0.25, 3.0, dim=2), grid)
        mult = np.bincount(plan.inv)
        assert (plan.lam_u.size, mult.max()) == (1621, 16)
        assert len(plan.slots) == np.unique(mult).size == 11


class TestClassification:
    THR = ClassifyThresholds(u_max=1e8, ratio_max=10.0, t_end=10.0)

    def test_trigger_means_blowup(self):
        t = np.linspace(0.0, 2.0, 9)  # the last quarter holds 3 nodes
        ones = np.ones(9)
        trigger = Trigger("amplitude", 2.0, 1e9)
        assert classify(t, ones, self.THR, trigger) == "BlowUp"
        # The trigger is the one blow-up rule: the same history without it
        # is judged by the last-quarter test alone.
        assert classify(t, ones, self.THR) == "Global"

    def test_window_too_short_to_test_is_undetermined(self):
        # With 2 nodes in the last quarter there is no rise to test for.
        t = np.array([0.0, 1.0, 2.0])
        assert classify(t, np.ones(3), self.THR) == "Undetermined"
        assert classify(t, np.ones(3), self.THR, Trigger("amplitude", 2.0, 1e9)) == "BlowUp"

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_short_window_march_is_undetermined(self):
        # t^beta ||u||_4 rises 2% per node at the end, past the 1% slack.
        # At M = 10 the last quarter holds 2 nodes, which no rise can show
        # in, and the run used to be Global; at M = 16 it holds 3 and the
        # test finds the rise.
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        w = gaussian_field(grid, 0.01, 1.0)
        thr = ClassifyThresholds(t_end=50.0, beta=0.09375)
        short, tested = (integrate(ModelParams(0.5, 0.4, -0.25, 1.5), grid, None, w,
                                   TimeMesh.make(50.0, steps), q_report=4.0,
                                   thresholds=thr) for steps in (10, 16))
        assert short.classification == tested.classification == "Undetermined"
        assert short.notes[0] == ("last quarter holds 2 node(s), fewer than 3: "
                                  "too short to test")
        assert not any("last quarter" in note for note in tested.notes)

    def test_verdict_is_taken_at_the_last_node(self):
        # The history stops before THR.t_end = 10; classify reads no t_end,
        # only the last quarter of the nodes it is given.
        t = np.linspace(0.0, 5.0, 20)
        ones = np.ones(20)
        assert classify(t, ones, self.THR) == "Global"

    def test_decaying_run_is_global(self):
        t = np.linspace(0.0, 10.0, 40)
        norms = 1.0 / (1.0 + t)
        assert classify(t, norms, self.THR) == "Global"

    def test_rising_tail_is_undetermined(self):
        t = np.linspace(0.0, 10.0, 40)
        norms = 1.0 + 0.5 * t  # grows 5% per node near the end
        assert classify(t, norms, self.THR) == "Undetermined"

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

    def test_large_data_triggers_blowup(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=256, half_width=50.0)
        u0 = gaussian_field(grid, 50.0, 1.0)
        mesh = TimeMesh.make(5.0, 40, grading=2.0)
        with pytest.warns(ResolutionWarning):  # 256 points do not resolve it
            res = integrate(params, grid, u0, None, mesh)
        assert res.classification == "BlowUp"
        assert res.blowup_time_est is not None

    def test_dimension_mismatch_rejected(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim=2)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(1.0, 5)
        with pytest.raises(DomainError):
            integrate(params, grid, None, None, mesh)

    @pytest.mark.parametrize("march", [integrate, integrate_many, picard_solve])
    @pytest.mark.parametrize("role", ["u0", "w"])
    @pytest.mark.parametrize("other", [
        GridSpec(dim=1, points=256, half_width=50.0),  # was zero-padded
        GridSpec(dim=1, points=1024, half_width=10.0),  # was read on [-50, 50]
        GridSpec(dim=2, points=64, half_width=50.0),  # was a numpy ValueError
    ])
    def test_data_off_the_march_grid_rejected(self, march, role, other):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=1024, half_width=50.0)
        data = {"u0": None, "w": gaussian_field(grid, 0.05, 1.0)}
        data[role] = gaussian_field(other, 0.05, 1.0)
        members = [params] if march is integrate_many else params
        with pytest.raises(PreconditionError,
                           match=f"{role} lies on .*, not the march's GridSpec"):
            march(members, grid, data["u0"], data["w"], TimeMesh.make(5.0, 20))

    def test_classify_t_end_past_the_mesh_end_rejected(self):
        # The verdict is taken at the mesh end, so thresholds for any other
        # time are rejected, not ignored; the same run with thresholds for
        # its mesh end is Global.
        params = ModelParams(0.5, 0.4, -0.25, 4.0)
        grid = GridSpec(dim=1, points=512, half_width=50.0)
        w = gaussian_field(grid, 0.01, 1.0)
        mesh = TimeMesh.make(20.0, 100)
        assert integrate(params, grid, None, w, mesh).classification == "Global"
        for t_end in (50.0, 10.0):
            for march in (integrate, integrate_many):
                members = [params] if march is integrate_many else params
                with pytest.raises(DomainError, match=f"classify.t_end {t_end} "
                                                      "differs from time.t_end 20.0"):
                    march(members, grid, None, w, mesh,
                          thresholds=ClassifyThresholds(u_max=1e6, t_end=t_end))

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_decaying_data_above_u_max_is_not_blowup(self):
        # The data start above u_max and decay at once, so no trigger fires;
        # a scan of the L^inf history used to call this BlowUp at t = 0.
        grid = GridSpec(dim=1, points=1024, half_width=20.0)
        u0 = Field(grid, 1.05 * np.exp(-grid.axis() ** 2 / 0.1**2))
        mesh = TimeMesh.make(10.0, 10, grading=1.0)
        thr = ClassifyThresholds(u_max=1.0, t_end=10.0)
        res = integrate(ModelParams(0.5, 0.4, -0.25, 3.0), grid, u0, None, mesh,
                        thresholds=thr)
        assert res.linf_history[0] > thr.u_max > res.linf_history[1]
        assert res.t_nodes.size == mesh.nodes.size
        assert res.trigger is None and res.blowup_time_est is None
        assert res.classification == "Global"

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

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_integer_power_overflow_stops_non_finite(self):
        # |u0|^4 overflows to inf by multiplication at node 0, so the p = 4
        # member stops non_finite at the first step; |u0|^3 does not, and
        # that member stops on its amplitude there.
        grid, _, mesh, thr = self.trigger_setup()
        u0 = gaussian_field(grid, 1e80, 1.0)
        params = [ModelParams(0.5, 0.4, -0.25, p) for p in (4.0, 3.0)]
        many = integrate_many(params, grid, u0, None, mesh, q_report=4.0,
                              thresholds=thr)
        assert [r.trigger.kind for r in many] == ["non_finite", "amplitude"]
        assert [r.trigger.t for r in many] == [mesh.nodes[1]] * 2
        for par, res in zip(params, many):
            self.assert_identical(res, integrate(par, grid, u0, None, mesh,
                                                 q_report=4.0, thresholds=thr))

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

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_members_that_all_stop_non_finite_at_different_nodes(self):
        # With both blow-up thresholds out of reach every member runs until
        # its values overflow, each at its own later node, so non-finite
        # rows sit among live members at several steps. The members are not
        # in stopping order, so a stopped row is followed by live ones.
        grid = GridSpec(dim=1, points=256, half_width=20.0)
        u0 = gaussian_field(grid, 2.0, 1.0)
        w = gaussian_field(grid, 4.0, 1.0)
        mesh = TimeMesh.make(10.0, 60)
        thr = ClassifyThresholds(u_max=1e300, ratio_max=1e300, t_end=10.0)
        params = [ModelParams(0.5, 0.4, -0.25, p) for p in (6.0, 1.5, 9.0, 3.0)]
        many = integrate_many(params, grid, u0, w, mesh, q_report=4.0,
                              thresholds=thr)
        assert [r.trigger.kind for r in many] == ["non_finite"] * 4
        stops = [r.t_nodes.size - 1 for r in many]
        assert len(set(stops)) == 4 and min(stops) > 1
        for par, res in zip(params, many):
            self.assert_identical(res, integrate(par, grid, u0, w, mesh,
                                                 q_report=4.0, thresholds=thr))

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


class TestAlphaOneRecursion:
    """The march at alpha = 1 against an exact recursion.

    There the kernel is e^{-lam (t - tau)}, so every cell weight obeys
    W[j, n] = e^{-lam h_n} W[j, n-1], h_n = t_n - t_{n-1}, and the history
    sum H_n = sum_{j<n} W[j, n] N_j obeys

        H_n = e^{-lam h_n} H_{n-1} + W[n-1, n] N_{n-1},
        W[n-1, n] = (1 - e^{-lam h_n}) / lam  (h_n at lam = 0).

    The recursion runs per half-spectrum mode of the grid, with no mode
    map, and shares no contraction, spread, history or scratch code with
    `integrate_many`.
    """

    @staticmethod
    def recursion(params, grid, u0, w, mesh, q, linear=None):
        """Final field and (L^q, L^inf) norm histories.  The linear part is
        Z(t) u0 + S_w(t) in closed form (sigma = 0), or from `linear(n)`,
        flat modes, when given."""
        lam = grid.xi_squared() ** params.s
        zero = lam == 0.0
        lam_or_one = np.where(zero, 1.0, lam)

        def cell(h):  # int_0^h e^{-lam tau} dtau
            return np.where(zero, h, -np.expm1(-lam * h) / lam_or_one)

        t = mesh.nodes
        u0_modes, w_modes = grid.to_modes(u0.values), grid.to_modes(w.values)
        hist = np.zeros(grid.nmodes, dtype=complex)
        u = u0.values
        lq, linf = [lq_norm(u0, q)], [float(np.max(np.abs(u)))]
        for n in range(1, mesh.steps + 1):
            h = t[n] - t[n - 1]
            hist = (np.exp(-lam * h) * hist
                    + cell(h) * grid.to_modes(np.abs(u) ** params.p))
            if linear is None:
                lin = np.exp(-lam * t[n]) * u0_modes + cell(t[n]) * w_modes
            else:
                lin = linear(n)
            u = grid.to_values(lin + hist)
            lq.append(lq_norm(Field(grid, u), q))
            linf.append(float(np.max(np.abs(u))))
        return u, np.array(lq), np.array(linf)

    @staticmethod
    def assert_agree(res, oracle):
        u, lq, linf = oracle
        assert res.t_nodes.size == lq.size  # no trigger: the whole mesh
        field = res.final_field.values
        assert np.max(np.abs(field - u)) <= 1e-13 * np.max(np.abs(u))
        np.testing.assert_allclose(res.lq_history, lq, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(res.linf_history, linf, rtol=1e-13, atol=0.0)

    MESH = TimeMesh.make(5.0, 60)

    @staticmethod
    def data(grid):
        return gaussian_field(grid, 0.2, 1.0), gaussian_field(grid, 0.15, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -0.25])
    def test_integrate_1d(self, sigma):
        # p = 2: the nonlinear part is ~37% of u at t = 5.  At sigma < 0
        # the linear part is the plan's own "fast" rule, computed afresh;
        # the march reads that rule's cell row from its scratch.
        grid = GridSpec(dim=1, points=256, half_width=20.0)
        params = ModelParams(1.0, 0.4, sigma, 2.0)
        u0, w = self.data(grid)
        linear = None
        if sigma != 0.0:
            plan = LinearPlan(params, grid)
            u0_m, w_m = grid.to_modes(u0.values), grid.to_modes(w.values)
            linear = lambda n: plan.linear_modes(self.MESH.nodes[: n + 1], u0_m, w_m)
        res = integrate(params, grid, u0, w, self.MESH, q_report=4.0)
        self.assert_agree(res, self.recursion(params, grid, u0, w, self.MESH,
                                              4.0, linear))

    def test_integrate_2d(self):
        # 2112 half-spectrum modes on 457 unique eigenvalues: the march's mode
        # map against a recursion on every mode.  The nonlinear part is ~11%.
        grid = GridSpec(dim=2, points=64, half_width=8.0)
        params = ModelParams(1.0, 0.4, 0.0, 2.0, dim=2)
        u0, w = self.data(grid)
        res = integrate(params, grid, u0, w, self.MESH, q_report=4.0)
        self.assert_agree(res, self.recursion(params, grid, u0, w, self.MESH, 4.0))

    def test_integrate_3d(self):
        # 135168 half-spectrum modes on 1914 unique eigenvalues whose
        # multiplicities reach 280: every slot of the history layout against
        # the recursion on every mode.
        grid = GridSpec(dim=3, points=64, half_width=8.0)
        params = ModelParams(1.0, 0.4, 0.0, 2.0, dim=3)
        mesh = TimeMesh.make(5.0, 10)
        u0, w = self.data(grid)
        res = integrate(params, grid, u0, w, mesh, q_report=4.0)
        self.assert_agree(res, self.recursion(params, grid, u0, w, mesh, 4.0))

    def test_lockstep_members(self):
        grid = GridSpec(dim=1, points=256, half_width=20.0)
        params = [ModelParams(1.0, 0.4, 0.0, p) for p in (2.0, 3.0, 4.0)]
        u0, w = self.data(grid)
        many = integrate_many(params, grid, u0, w, self.MESH, q_report=4.0)
        for par, res in zip(params, many):
            self.assert_agree(res, self.recursion(par, grid, u0, w, self.MESH, 4.0))


class TestTrigger:
    """`SimResult.trigger`: kind, node time and value of an early stop."""

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
        # 16 steps: the last quarter holds the 3 nodes a verdict tests.
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        res = integrate(ModelParams(0.5, 0.4, -0.25, 3.0), grid, None,
                        gaussian_field(grid, 0.05, 1.0), TimeMesh.make(2.0, 16))
        assert res.trigger is None and res.notes == []

    def test_is_frozen(self):
        trig = Trigger("amplitude", 1.0, 2e8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trig.value = 0.0

    GRID = GridSpec(dim=1, points=64, half_width=10.0)

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    @given(p=st.floats(1.2, 6.0), amplitude=st.floats(0.0, 1.0))
    def test_blowup_exactly_when_triggered(self, p, amplitude):
        # The data start above u_max, so a scan of the L^inf history would
        # call every run BlowUp; only a trigger may.
        grid = self.GRID
        u0 = gaussian_field(grid, 1.05, 0.3)
        w = gaussian_field(grid, amplitude, 1.0) if amplitude > 0.0 else None
        mesh = TimeMesh.make(5.0, 20, grading=1.0)
        thr = ClassifyThresholds(u_max=1.0, t_end=5.0)
        res = integrate(ModelParams(0.5, 0.4, -0.25, p), grid, u0, w, mesh,
                        thresholds=thr)
        if res.classification == "BlowUp":
            assert res.blowup_time_est == res.trigger.t
        else:
            assert res.trigger is None and res.blowup_time_est is None


class TestPicard:
    def test_zero_data_fixed_point(self):
        params = ModelParams(0.5, 0.4, -0.25, 3.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        mesh = TimeMesh.make(0.5, 16, grading=2.0)
        res = picard_solve(params, grid, None, None, mesh)
        assert res.iterations == 1
        assert np.max(np.abs(res.final_field.values)) == 0.0
        assert res.contraction_factor == 0.0

    def test_2d_data_along_one_axis_is_the_1d_fixed_point(self):
        # Data constant along the last axis live on its k = 0 plane, whose
        # eigenvalues are the 1D grid's: the 2D fixed point, iterated on the
        # slot-order history, is the 1D one on every row.
        params = ModelParams(0.5, 0.4, -0.25, 2.0)
        mesh = TimeMesh.make(2.0, 12, grading=2.0)
        line = GridSpec(dim=1, points=64, half_width=10.0)
        plane = GridSpec(dim=2, points=64, half_width=10.0)
        profile = np.exp(-line.axis() ** 2)
        one = picard_solve(params, line, Field(line, 0.3 * profile),
                           Field(line, 0.2 * profile), mesh)
        column = np.broadcast_to(profile[:, None], plane.shape)
        two = picard_solve(dataclasses.replace(params, dim=2), plane,
                           Field(plane, 0.3 * column), Field(plane, 0.2 * column),
                           mesh)
        assert two.iterations == one.iterations > 3
        u1 = one.final_field.values
        np.testing.assert_allclose(two.final_field.values,
                                   np.broadcast_to(u1[:, None], plane.shape),
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(u1)))
        np.testing.assert_allclose(two.linf_history, one.linf_history,
                                   rtol=1e-13, atol=0.0)

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
        def regimes(a, b, y, out=None):
            values = ml_e_neg(a, b, y)
            if out is None:
                return values
            out[...] = values
            return out

        monkeypatch.setattr(solver, "ml_neg_fast", regimes)

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
