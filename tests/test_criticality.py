"""Exponent algebra, admissible windows and data-dependent criteria."""
import math

import numpy as np
import pytest

from fracsim import (
    DomainError,
    GridSpec,
    LinearPlan,
    ModelParams,
    PreconditionError,
    UnsupportedRangeError,
    admissible_q_window,
    apply_propagator,
    beta_exponent,
    critical_exponents,
    gaussian_field,
    indicator_field,
    local_average_hypotheses,
    lq_norm,
    ml_e_neg,
    p_star_exponent,
    smallness_condition,
)
from fracsim import criticality
from fracsim.special import beta_fn, gamma as gamma_fn
from fracsim.spectral import Field


class TestExponentAlgebra:
    def test_p_star_canonical(self, canonical_params):
        p = canonical_params
        assert p_star_exponent(p.alpha, p.s, p.sigma, p.dim) == pytest.approx(
            7.0 / 3.0, abs=1e-14
        )

    def test_p_star_classical_heat(self):
        # alpha = s = 1, sigma = -1/2, three dimensions: threshold 2.
        assert p_star_exponent(1.0, 1.0, -0.5, 3) == pytest.approx(2.0, abs=1e-12)

    def test_p_star_unforced_limit(self):
        # sigma = 0 collapses to N / (N - 2s).
        assert p_star_exponent(0.7, 0.3, 0.0, 2) == pytest.approx(
            2.0 / (2.0 - 0.6), abs=1e-12
        )

    def test_p_star_denominator_guard(self):
        # N alpha <= 2s (alpha + sigma) has no finite threshold.
        assert p_star_exponent(0.2, 1.0, 0.0, 1) is None

    def test_scale_critical_exponent(self):
        assert critical_exponents(
            ModelParams(0.5, 0.4, -0.25, 2.0)
        ).p_c == pytest.approx(1.25, abs=1e-14)
        assert critical_exponents(
            ModelParams(0.5, 0.4, -0.25, 3.0)
        ).p_c == pytest.approx(2.5, abs=1e-14)

    def test_r_c_canonical(self, canonical_params):
        assert critical_exponents(canonical_params).r_c == pytest.approx(
            1.25, abs=1e-14
        )

    def test_beta_values(self, canonical_params):
        chk = beta_exponent(canonical_params, 4.0)
        assert chk.value == pytest.approx(0.09375, abs=1e-15)
        assert chk.in_unit_range and chk.above_forcing_floor
        # beta vanishes exactly at the scale-critical exponent q = p_c
        assert beta_exponent(canonical_params, 2.5).value == pytest.approx(
            0.0, abs=1e-12
        )
        low = beta_exponent(canonical_params, 2.0)
        assert low.value == pytest.approx(-0.0625, abs=1e-15)
        assert not low.in_unit_range
        with pytest.raises(DomainError):
            beta_exponent(canonical_params, 0.5)

    def test_beta_rejects_nan_q_and_accepts_inf(self, canonical_params):
        with pytest.raises(DomainError, match="q must be >= 1, got nan"):
            beta_exponent(canonical_params, float("nan"))
        # q = inf is the max norm: beta = a/(p-1)
        assert beta_exponent(canonical_params, np.inf).value == 0.25

    def test_r_c_identity(self, canonical_params):
        # beta(q) + alpha - (N alpha / 2s)(1/r_c - 1/q) + sigma = 0 for all q.
        rep = critical_exponents(canonical_params)
        a, s, n = canonical_params.alpha, canonical_params.s, canonical_params.dim
        for q in (3.5, 4.0, 5.0, 7.0):
            beta = beta_exponent(canonical_params, q).value
            resid = beta + a - (n * a / (2 * s)) * (1.0 / rep.r_c - 1.0 / q) + (
                canonical_params.sigma
            )
            assert abs(resid) <= 1e-12

    def test_gamma_sign_matches_threshold(self):
        # gamma < 0 exactly on the subcritical side p < p*, over 10^4 random
        # admissible parameter tuples.
        rng = np.random.default_rng(20260826)
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
            if abs(p - p_star) < 1e-9:
                continue
            params = ModelParams(alpha, s, sigma, p, dim)
            gamma = critical_exponents(params).gamma
            assert (gamma < 0.0) == (p < p_star), (alpha, s, sigma, p, dim)
            checked += 1


class TestAdmissibleWindow:
    def test_window_canonical(self, canonical_params):
        win = admissible_q_window(canonical_params)
        assert win.valid
        assert win.q_lo == pytest.approx(3.0, abs=1e-12)
        assert win.q_hi == pytest.approx(7.5, abs=1e-12)
        assert win.contains(4.0)
        assert not win.contains(3.0) and not win.contains(7.5)

    def test_window_nesting(self, canonical_params):
        # every admissible q sits above both p and the scale-critical p_c.
        win = admissible_q_window(canonical_params)
        rep = critical_exponents(canonical_params)
        assert win.q_lo >= canonical_params.p - 1e-12
        assert win.q_lo >= rep.p_c - 1e-12

    def test_window_empty_below_threshold(self):
        win = admissible_q_window(ModelParams(0.5, 0.4, -0.25, 1.5))
        assert not win.valid
        assert "empty-window" in win.flags
        assert not win.contains(4.0)

    def test_window_boundary_degenerate(self):
        p_star = p_star_exponent(0.5, 0.4, -0.25, 1)
        win = admissible_q_window(ModelParams(0.5, 0.4, -0.25, p_star))
        assert "boundary-degenerate" in win.flags


GRID = GridSpec(dim=1, points=1024, half_width=50.0)


class TestSmallness:
    def test_zero_data(self, canonical_params):
        zero = Field(GRID, np.zeros(GRID.shape))
        rep = smallness_condition(canonical_params, zero, zero, 4.0, [0.5, 1.0])
        assert rep.sup_value == 0.0
        assert rep.beta == pytest.approx(0.09375)

    def test_single_mode_closed_form(self, canonical_params):
        # u0 = cos(xi x) is a propagator eigenfunction, so the criterion value
        # is t^beta E_{a,1}(-xi^{2s} t^a) ||u0||_q exactly.
        k = 4
        xi = k * math.pi / GRID.half_width
        u0 = Field(GRID, np.cos(xi * GRID.axis()))
        zero = Field(GRID, np.zeros(GRID.shape))
        ts = np.array([0.25, 1.0, 4.0])
        rep = smallness_condition(canonical_params, u0, zero, 4.0, ts)
        lam = xi ** (2 * canonical_params.s)
        beta = rep.beta
        expected = np.array(
            [
                t**beta
                * ml_e_neg(canonical_params.alpha, 1.0, lam * t**canonical_params.alpha)
                * lq_norm(u0, 4.0)
                for t in ts
            ]
        )
        assert rep.sample_values == pytest.approx(expected, rel=1e-12)
        assert rep.sup_value == pytest.approx(float(expected.max()), rel=1e-12)

    @pytest.mark.parametrize("dim, q", [(1, 4.0), (2, 8.0)])
    def test_plan_terms_equal_the_propagator_oracle(self, dim, q):
        params = ModelParams(0.5, 0.4, -0.25, 3.0, dim)
        grid = GridSpec(dim=dim, points=1024 if dim == 1 else 64, half_width=20.0)
        u0 = gaussian_field(grid, 0.1, 1.0)
        w = gaussian_field(grid, 0.1, 2.0)
        ts = [0.5, 1.0, 7.3]
        rep = smallness_condition(params, u0, w, q, ts)
        plan = LinearPlan(params, grid)
        w_modes = plan.to_modes(w.values)
        want = [
            t**rep.beta * (
                lq_norm(apply_propagator("Z", t, u0, 0.5, 0.4), q)
                + lq_norm(Field(grid, plan.to_values(
                    plan.exact_forcing(t)[plan.inv] * w_modes)), q)
            )
            for t in ts
        ]
        assert rep.sample_values.tolist() == want

    def test_linearity_in_amplitude(self, canonical_params):
        u0 = gaussian_field(GRID, 0.1, 1.0)
        w = gaussian_field(GRID, 0.1, 2.0)
        ts = [0.5, 2.0]
        one = smallness_condition(canonical_params, u0, w, 4.0, ts)
        two = smallness_condition(
            canonical_params,
            Field(GRID, 2.0 * u0.values),
            Field(GRID, 2.0 * w.values),
            4.0,
            ts,
        )
        assert two.sup_value / one.sup_value == pytest.approx(2.0, rel=1e-12)

    def test_q_outside_window_rejected(self, canonical_params):
        u0 = gaussian_field(GRID, 0.1, 1.0)
        with pytest.raises(UnsupportedRangeError):
            smallness_condition(canonical_params, u0, u0, 2.0, [1.0])

    def test_bad_times_rejected(self, canonical_params):
        u0 = gaussian_field(GRID, 0.1, 1.0)
        with pytest.raises(DomainError):
            smallness_condition(canonical_params, u0, u0, 4.0, [])
        with pytest.raises(DomainError):
            smallness_condition(canonical_params, u0, u0, 4.0, [0.0, 1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite positive times"):
                smallness_condition(canonical_params, u0, u0, 4.0, [1.0, bad])


class TestBallAverageSup:
    """`_ball_average_sup` against a masked sum per radius."""

    @staticmethod
    def masked(field, R_grid, radius_exp, weight_exp):
        r_sq = field.grid.radius_squared()
        return np.array([
            R**weight_exp * float(np.sum(field.values[r_sq < R ** (2.0 * radius_exp)]))
            * field.grid.cell_volume
            for R in R_grid
        ])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_masked_sums(self, dim):
        grid = GridSpec(dim=dim, points=64, half_width=4.0)
        rng = np.random.default_rng(5)
        field = Field(grid, rng.uniform(0.0, 1.0, grid.shape))
        # radius_exp = 1/2 makes the ball's squared radius R itself: R = 0 is
        # an empty ball, R = 1 lies exactly on grid radius 1 (x = 1 is a
        # sample), and R = 100 > dim * 16 is past the box corner.
        on_grid = 1.0
        assert np.any(grid.radius_squared() == on_grid)
        R_grid = np.array([0.0, 0.3, on_grid, 2.5, 9.0, 100.0])
        for weight_exp in (0.75, -0.75):
            R = R_grid if weight_exp > 0 else R_grid[1:]
            want = self.masked(field, R, 0.5, weight_exp)
            sup, at_edge = criticality._ball_average_sup(field, R, 0.5, weight_exp)
            assert sup == pytest.approx(np.max(want), rel=1e-13)
            assert at_edge == (int(np.argmax(want)) == R.size - 1)
        # Each ball of the grid above, one at a time, as the sole radius.
        for R in R_grid:
            want = self.masked(field, [R], 0.5, 0.75)[0]
            got, _ = criticality._ball_average_sup(field, np.array([R]), 0.5, 0.75)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        # The strict < leaves the samples at exactly R = 1 out.
        r_sq = grid.radius_squared()
        closed = float(np.sum(field.values[r_sq <= on_grid])) * grid.cell_volume
        got, _ = criticality._ball_average_sup(field, np.array([on_grid]), 0.5, 0.0)
        assert got < closed


class TestLocalAverageHypotheses:
    def test_small_gaussian_data(self, canonical_params, f_profile_canonical):
        u0 = gaussian_field(GRID, 0.05, 1.0)
        w = gaussian_field(GRID, 0.05, 1.0)
        rep = local_average_hypotheses(
            canonical_params, u0, w, 4.0, 1.0, 1.0, 1.0,
            F_profile=f_profile_canonical,
        )
        # R_0 equals the smaller of its two defining branches
        beta = beta_exponent(canonical_params, 4.0).value
        c = beta_fn(0.75, 0.5) / gamma_fn(0.5)
        b_u0 = (1.0 / (2.0 * lq_norm(u0, 4.0))) ** (1.0 / beta)
        b_w = (1.0 / (2.0 * c * lq_norm(w, 4.0))) ** (1.0 / (beta + 0.25))
        assert rep.R_0 == pytest.approx(min(b_u0, b_w), rel=1e-12)
        assert rep.holds_tail_u0 and rep.holds_tail_w
        assert rep.holds_local_F and rep.holds_avg_u0 and rep.holds_avg_w
        assert rep.flags == ()
        assert rep.avg_rhs == pytest.approx(1.4165179346689734, rel=1e-9)

    def test_companion_exponent_variant_differs(
        self, canonical_params, f_profile_canonical
    ):
        u0 = gaussian_field(GRID, 0.05, 1.0)
        rep_q = local_average_hypotheses(
            canonical_params, u0, u0, 4.0, 1.0, 1.0, 1.0,
            F_profile=f_profile_canonical,
        )
        rep_r = local_average_hypotheses(
            canonical_params, u0, u0, 4.0, 1.0, 1.0, 1.0,
            F_profile=f_profile_canonical, tail_norm_exponent="r",
        )
        assert rep_r.avg_rhs == pytest.approx(0.44523246685539275, rel=1e-9)
        assert rep_r.avg_rhs != pytest.approx(rep_q.avg_rhs, rel=1e-3)

    def test_compact_support_empty_tail(self, canonical_params, f_profile_canonical):
        ind = indicator_field(GRID, 0.05, 2.0)
        rep = local_average_hypotheses(
            canonical_params, ind, ind, 4.0, 2.0, 1.0, 1.0,
            F_profile=f_profile_canonical,
        )
        assert rep.tail_u0 == 0.0 and rep.tail_w == 0.0

    def test_zero_data_flag(self, canonical_params, f_profile_canonical):
        zero = Field(GRID, np.zeros(GRID.shape))
        rep = local_average_hypotheses(
            canonical_params, zero, zero, 4.0, 1.0, 1.0, 1.0,
            F_profile=f_profile_canonical,
        )
        assert "zero-data" in rep.flags
        assert rep.holds_tail_u0 and rep.holds_avg_u0 and rep.holds_avg_w

    def test_negative_data_rejected(self, canonical_params, f_profile_canonical):
        bad = Field(GRID, -gaussian_field(GRID, 0.05, 1.0).values)
        good = gaussian_field(GRID, 0.05, 1.0)
        with pytest.raises(PreconditionError):
            local_average_hypotheses(
                canonical_params, bad, good, 4.0, 1.0, 1.0, 1.0,
                F_profile=f_profile_canonical,
            )

    def test_bad_arguments_rejected(self, canonical_params, f_profile_canonical):
        u0 = gaussian_field(GRID, 0.05, 1.0)
        with pytest.raises(DomainError):
            local_average_hypotheses(
                canonical_params, u0, u0, 4.0, 1.0, 1.0, 1.0,
                F_profile=f_profile_canonical, tail_norm_exponent="z",
            )
        with pytest.raises(DomainError):
            local_average_hypotheses(
                canonical_params, u0, u0, 4.0, -1.0, 1.0, 1.0,
                F_profile=f_profile_canonical,
            )
        for bad in ((np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.nan)):
            with pytest.raises(DomainError, match="finite"):
                local_average_hypotheses(canonical_params, u0, u0, 4.0, *bad,
                                         F_profile=f_profile_canonical)

    def test_dimension_too_small_rejected(self):
        params = ModelParams(0.5, 0.6, -0.25, 3.0, dim=1)  # dim = 1 < 2s
        u0 = gaussian_field(GRID, 0.05, 1.0)
        with pytest.raises(UnsupportedRangeError):
            local_average_hypotheses(params, u0, u0, 4.0, 1.0, 1.0, 1.0)
