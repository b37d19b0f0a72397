"""Special functions: Gamma, Beta, Mittag-Leffler and Wright evaluators."""
import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
import scipy.special as sp
from scipy.integrate import quad
from scipy.special import erfcx

from fracsim import (
    DomainError,
    PreconditionError,
    beta_fn,
    gamma,
    ml_e_neg,
    wright_phi,
)
import fracsim.special as special
from fracsim.special import ml_neg_fast, wright_tail_cut

SQRT_PI = 1.7724538509055160273
# E_{1/2,1}(-1) = e * erfc(1), frozen from an independent high-precision oracle.
ML_HALF_AT_MINUS_ONE = 0.4275835761558070


class TestGamma:
    def test_one(self):
        assert gamma(1.0) == 1.0

    def test_factorial(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma(bad)


class TestBeta:
    def test_ones(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_halves(self):
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    def test_three_quarters_half(self):
        # Independent oracle: Gamma(0.75) Gamma(0.5) / Gamma(1.25).
        oracle = math.gamma(0.75) * math.gamma(0.5) / math.gamma(1.25)
        assert oracle == pytest.approx(2.3962804694711844, rel=1e-13)
        assert beta_fn(0.75, 0.5) == pytest.approx(oracle, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(-1.0, 0.5)
        with pytest.raises(DomainError):
            beta_fn(0.5, 0.0)


class TestGammaHelpers:
    """The math-module Gamma helpers against scipy.special, the reference.

    log Gamma vanishes at 1 and 2, so its rows are compared relative to
    max(|value|, 1).
    """

    @pytest.mark.parametrize("x", [0.0, -1.0, -3.0, 0.5, 172.0, 600.0])
    def test_rgamma_at_poles_overflow_and_a_half(self, x):
        want = float(sp.rgamma(x))
        got = special._rgamma(x)
        assert got == want or abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(a, b) for a in (0.3, 0.5, 0.7, 0.9, 0.95)
         for b in (a, 1.0, a + 1.0, a + 0.75, a + 0.5)],
    )
    def test_series_edge_row_and_edge(self, alpha, beta):
        n = np.arange(1, special._MAX_SERIES_TERMS)
        z = alpha * n + beta
        want = sp.gammaln(z)
        row = special._lgamma_row(z)
        assert np.max(np.abs(row - want) / np.maximum(np.abs(want), 1.0)) <= 1e-15
        # The edge the scipy row gives, by the rule of `_series_rule`.
        edge = next((0.5 * x for x in (5.0, 4.0, 3.0, 2.5, 2.0, 1.6, 1.3, 1.0, 0.8,
                                       0.6, 0.5, 0.4, 0.3)
                     if np.max(n * math.log(x) - want) <= math.log(1e4)), 0.125)
        x_lo, coeffs = special._series_rule(alpha, beta)
        assert x_lo == edge
        # N = coeffs.size - 1 is the first n from which x_lo^n / Gamma(a n + b)
        # stays below the stop (log_terms[i] is term n = i + 1).
        last = coeffs.size - 1
        log_terms = n * math.log(edge) - want
        assert np.all(log_terms[last - 1 :] < math.log(special._SERIES_STOP))
        assert log_terms[last - 2] >= math.log(special._SERIES_STOP)
        np.testing.assert_allclose(
            coeffs, sp.rgamma(alpha * np.arange(last + 1) + beta), rtol=1e-15, atol=0.0)


class TestPowerLawFit:
    """`power_law_fit` in closed form against exact power laws and
    `np.polyfit`'s least-squares line."""

    @pytest.mark.parametrize("c, k", [(1.0, -0.5), (3.0, -0.09375), (0.02, 2.5),
                                      (7.5, 0.0)])
    def test_exact_power_law(self, c, k):
        x = np.geomspace(0.3, 80.0, 25)
        slope, intercept, r2 = special.power_law_fit(x, c * x**k)
        assert abs(slope - k) <= 1e-14
        assert abs(intercept - math.log(c)) <= 1e-14
        assert r2 == 1.0

    @staticmethod
    def polyfit_line(x, y):
        log_x, log_y = np.log(x), np.log(y)
        slope, intercept = np.polyfit(log_x, log_y, 1)
        resid = log_y - (slope * log_x + intercept)
        ss_tot = np.sum((log_y - np.mean(log_y)) ** 2)
        return slope, intercept, 1.0 - np.sum(resid**2) / ss_tot

    @pytest.mark.parametrize("noise", [0.0, 1e-3, 0.3])
    def test_agrees_with_polyfit(self, noise):
        # Criterion 08's decay window: the mesh nodes t >= 0.75 T of the
        # T = 50, M = 600 graded mesh, a t^(-beta) norm with a ripple, and
        # multiplicative noise.
        t = 50.0 * (np.arange(601) / 600.0) ** 2
        t = t[t >= 37.5]
        rng = np.random.default_rng(8)
        y = (t**-0.09375 * (1.0 + 0.01 * np.sin(t))
             * np.exp(noise * rng.standard_normal(t.size)))
        got = special.power_law_fit(t, y)
        want = self.polyfit_line(t, y)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    @pytest.mark.parametrize("x", [[2.0, 2.0, 2.0], [5.0]])
    def test_one_distinct_x_rejected(self, x):
        with pytest.raises(PreconditionError, match="two distinct x"):
            special.power_law_fit(np.array(x), np.arange(1.0, len(x) + 1.0))


class TestMittagLeffler:
    def test_exponential_limit(self):
        x = np.linspace(0.0, 50.0, 1000)
        vals = ml_e_neg(1.0, 1.0, x)
        assert np.max(np.abs(vals - np.exp(-x))) <= 1e-10

    def test_value_at_zero(self):
        assert ml_e_neg(0.5, 1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert ml_e_neg(0.3, 0.7, 0.0) == pytest.approx(
            1.0 / math.gamma(0.7), rel=1e-12
        )

    def test_half_order_golden(self):
        assert ml_e_neg(0.5, 1.0, 1.0) == pytest.approx(
            ML_HALF_AT_MINUS_ONE, abs=1e-10
        )

    def test_half_order_all_regimes(self):
        # E_{1/2,1}(-y) = e^{y^2} erfc(y) = erfcx(y): an independent oracle
        # that spans the series, interpolant and asymptotic regimes.
        y = np.geomspace(1e-3, 1e5, 400)
        vals = ml_e_neg(0.5, 1.0, y)
        assert np.max(np.abs(vals - erfcx(y))) <= 1e-10

    def test_second_parameter_recursion(self):
        # E_{1/2,1/2}(-y) = 1/sqrt(pi) - y erfcx(y), again independent.
        y = np.geomspace(1e-2, 1e4, 200)
        vals = ml_e_neg(0.5, 0.5, y)
        oracle = 1.0 / SQRT_PI - y * erfcx(y)
        assert np.max(np.abs(vals - oracle)) <= 1e-9

    @pytest.mark.parametrize(
        "beta", [0.01, 0.5, 0.999999, 1.000001, 1.25, 1.75, 1.95, 2.000001, 3.2, 10.0])
    def test_alpha_one_hypergeometric(self, beta):
        # E_{1,b}(-y) = 1F1(1; b; -y) / Gamma(b), oracle at 40 digits, on all
        # three regimes and both sides of the series edge and of y = 150.
        edges = np.array([special._series_rule(1.0, beta)[0], special._ASYMPTOTIC_EDGE])
        near = edges[:, None] * np.array([0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1])
        y = np.concatenate([[0.0, 29.0, 31.0], np.geomspace(1e-3, 1e6, 60), near.ravel()])
        with mpmath.workdps(40):
            want = np.array([
                float(mpmath.hyp1f1(1, beta, -mpmath.mpf(v)) / mpmath.gamma(beta))
                for v in y
            ])
        got = ml_e_neg(1.0, beta, y)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        # Relative too, except for small b: at y = 150 the asymptotic
        # expansion's truncation (1e-16 absolute) is 1.5e-12 of E_{1,0.01}.
        if beta >= 0.5:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_wrapper_and_domain(self):
        with pytest.raises(DomainError):
            ml_e_neg(1.5, 1.0, 1.0)
        for alpha in (0.5, 1.0):
            for beta in (np.nan, np.inf):
                with pytest.raises(DomainError, match="orders"):
                    ml_e_neg(alpha, beta, np.array([0.0, 5.0, 200.0]))
        with pytest.raises(DomainError):
            ml_e_neg(0.5, -1.0, 1.0)
        with pytest.raises(DomainError):
            ml_e_neg(0.5, 1.0, -1.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_monotone_and_bounded(self, alpha):
        y = np.linspace(0.0, 100.0, 1000)
        vals = ml_e_neg(alpha, 1.0, y)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)

    @given(
        alpha=st.floats(0.2, 0.9),
        y=st.floats(0.0, 1e5),
    )
    def test_complete_monotonicity_proxy(self, alpha, y):
        v = ml_e_neg(alpha, 1.0, y)
        assert 0.0 < v <= 1.0

    def test_fast_evaluator_matches(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(0.0, 500.0, size=2000)
        for ab in ((0.5, 0.5), (0.5, 1.5), (0.7, 1.7)):
            ref = ml_e_neg(*ab, y)
            fast = ml_neg_fast(*ab, y)
            assert np.max(np.abs(ref - fast)) <= 1e-9
        y = rng.uniform(0.0, 5e3, size=2000)
        for ab in ((0.5, 1.0), (0.5, 0.5)):
            assert np.max(np.abs(ml_e_neg(*ab, y) - ml_neg_fast(*ab, y))) <= 1e-9


def series_loop_oracle(alpha, beta, y):
    """The term-by-term Kahan loop (Fast2Sum on the larger operand) over the
    fixed N + 1 terms of `special._series_rule` that `special._series_neg`
    sums in blocks."""
    total = np.full_like(y, special._rgamma(beta))
    comp = np.zeros_like(y)
    power = np.ones_like(y)
    for n in range(1, special._series_rule(alpha, beta)[1].size):
        power = power * (-y)
        term = power * special._rgamma(alpha * n + beta)
        t = total + term
        comp += np.where(
            np.abs(total) >= np.abs(term),
            (total - t) + term,
            (term - t) + total,
        )
        total = t
    return total + comp


class TestSeriesRegime:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (1.0, 1.5), (1.0, 2.75),
                                            (0.5, 0.5), (0.5, 1.0), (0.5, 1.5)])
    def test_blocks_equal_the_term_by_term_loop(self, alpha, beta):
        # Bit for bit, on sizes that take one and several blocks of
        # arguments, with y = 0, subnormal and tiny arguments, and both ends
        # of the regime, where the terms outgrow the running sum.
        x_lo = special._series_rule(alpha, beta)[0]
        rng = np.random.default_rng(int(10 * alpha + beta))
        edge = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.5 * x_lo, x_lo])
        for size in (1, 6, 100, 1500, 5000):
            y = np.concatenate([edge, rng.uniform(0.0, x_lo, size)])[:size]
            got = special._series_neg(alpha, beta, y)
            assert np.array_equal(got, series_loop_oracle(alpha, beta, y))
            # the same values through the public entry
            assert np.array_equal(ml_e_neg(alpha, beta, y)[y <= x_lo], got[y <= x_lo])


def branch_cut_oracle(alpha, beta, x):
    """E_{a,b}(-x) by 25-digit mpmath quadrature of the branch-cut integral.

    In v = r^a the integrand is bounded at 0 for b <= 1; b > 1 steps down with
    E_{a,b}(-x) = (1/Gamma(b-a) - E_{a,b-a}(-x)) / x.
    """
    with mpmath.workdps(25):
        if beta > 1.0:
            head = mpmath.rgamma(mpmath.mpf(beta) - alpha)
            return (head - branch_cut_oracle(alpha, beta - alpha, x)) / x
        a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        s_b, s_ab, c_a = mpmath.sinpi(b), mpmath.sinpi(a - b), mpmath.cospi(a)

        def f(v):
            return (mpmath.exp(-(v ** (1 / a))) * v ** ((1 - b) / a)
                    * (v * s_b - x * s_ab) / (v * v + 2 * x * v * c_a + x * x))

        # Break at the near-pole of the denominator, v = -x cos(pi a).
        pts = [0, 1] + ([-x * c_a / 2, -x * c_a, -2 * x * c_a] if c_a < 0 else [])
        return mpmath.quad(f, sorted(set(pts)) + [mpmath.inf]) / (a * mpmath.pi)


class TestMidRegime:
    """`ml_e_neg` on x_lo < y < 150, where the fixed branch-cut rule owns it
    (Kummer's sum at alpha = 1)."""

    @staticmethod
    def mid_points(alpha, beta, n):
        x_lo, x_hi = special._series_rule(alpha, beta)[0], special._ASYMPTOTIC_EDGE
        return np.geomspace(x_lo, x_hi, n + 2)[1:-1]

    @pytest.mark.parametrize(
        "alpha,beta",
        [(a, b) for a in (0.3, 0.5, 0.7, 0.9, 0.95) for b in (a, 1.0)]
        + [(0.5, 1.5), (0.5, 1.25)],
    )
    def test_against_mpmath(self, alpha, beta):
        # The mid range and both sides of its edges: the series below x_lo
        # and the asymptotic expansion from 150 on.
        edges = np.array([special._series_rule(alpha, beta)[0], special._ASYMPTOTIC_EDGE])
        near = edges[:, None] * np.array([0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1])
        y = np.concatenate([self.mid_points(alpha, beta, 8), near.ravel()])
        want = np.array([float(branch_cut_oracle(alpha, beta, v)) for v in y])
        np.testing.assert_allclose(ml_e_neg(alpha, beta, y), want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("alpha,beta",
                             [(0.3, 1.0), (0.95, 0.95), (0.5, 1.5), (1.0, 1.75),
                              (0.5, 0.5)])
    def test_values_do_not_depend_on_the_other_arguments(self, alpha, beta):
        # Enough mid-range points to span several evaluation blocks, and the
        # series and asymptotic regimes too.  A stop test taken over the
        # whole call gave E_{1/2,1/2}(-0.15335839598997494) another last bit
        # next to x_lo = 1.5 than alone.
        x_lo = special._series_rule(alpha, beta)[0]
        y = np.concatenate([[0.15335839598997494], np.linspace(0.0, x_lo, 50),
                            self.mid_points(alpha, beta, 400),
                            np.geomspace(special._ASYMPTOTIC_EDGE, 1e6, 20)])
        vals = ml_e_neg(alpha, beta, y)
        assert np.array_equal(ml_e_neg(alpha, beta, y[::-1]), vals[::-1])
        assert all(ml_e_neg(alpha, beta, v) == want for v, want in zip(y, vals))


class TestFastTable:
    @pytest.fixture(autouse=True)
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(special, "_FAST_CACHE", {})

    def test_extends_instead_of_extrapolating(self):
        ml_neg_fast(0.5, 0.5, np.linspace(0.0, 10.0, 50))
        y = np.array([1e4, 3e4, 1e6])
        assert np.max(np.abs(ml_neg_fast(0.5, 0.5, y) - ml_e_neg(0.5, 0.5, y))) <= 1e-9

    def test_values_do_not_depend_on_call_history(self, monkeypatch):
        narrow = np.linspace(0.0, 10.0, 401)
        wide = np.geomspace(1e-3, 1e5, 401)
        first_narrow = (ml_neg_fast(0.5, 0.5, narrow), ml_neg_fast(0.5, 0.5, wide))
        monkeypatch.setattr(special, "_FAST_CACHE", {})
        wide_first = ml_neg_fast(0.5, 0.5, wide)
        assert np.array_equal(ml_neg_fast(0.5, 0.5, narrow), first_narrow[0])
        assert np.array_equal(wide_first, first_narrow[1])

    def test_concurrent_extension_appends_each_piece_once(self, monkeypatch):
        # Slow fits widen the window in which threads reach the same table end.
        def slow_fit(alpha, beta, y):
            time.sleep(1e-3)
            return ml_e_neg(alpha, beta, y)

        y = np.geomspace(1e-3, 1e4, 3000)
        serial = special._FastMLNeg(0.5, 1.5)
        expected = serial(y)
        monkeypatch.setattr(special, "ml_e_neg", slow_fit)
        shared = special._FastMLNeg(0.5, 1.5)
        start = threading.Barrier(4)

        def call(_):
            start.wait()
            return shared(y)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(call, range(4)))
        assert shared.coeffs.shape == serial.coeffs.shape
        for out in results:
            assert np.array_equal(out, expected)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.95])
    def test_matches_the_regime_evaluator(self, alpha):
        # b = 1, a, a + 1 and a + sigma + 1 for sigma in {-0.25, -0.5}.
        y = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 600), np.linspace(0.0, 200.0, 801)])
        for beta in (1.0, alpha, alpha + 1.0, alpha + 0.75, alpha + 0.5):
            err = np.max(np.abs(ml_neg_fast(alpha, beta, y) - ml_e_neg(alpha, beta, y)))
            assert err <= 1e-13, (beta, err)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.95])
    def test_sub_pieces_match_the_interpolants_they_came_from(self, alpha):
        # Each fitted piece's degree-15 interpolant, rebuilt from the regime
        # evaluator at the table's block nodes, against its stored
        # degree-4 sub-pieces at 33 points each.  The bound is the
        # truncation itself: near y = 0 at a = b = 0.3 the dropped T_5
        # coefficient is 2.8e-15 of a largest value of 0.33.
        table = special._FastMLNeg
        nodes = np.cos(np.pi * (np.arange(table.FIT_DEG + 1) + 0.5) / (table.FIT_DEG + 1))
        s = np.linspace(-0.5, 0.5, 33)
        x = 2.0 * (np.arange(table.SUB)[:, None] + 0.5 + s) / table.SUB - 1.0
        for beta in (1.0, alpha, alpha + 1.0, alpha + 0.75, alpha + 0.5):
            fast = table(alpha, beta)
            fast(np.array([1e4]))
            blocks = fast.coeffs.shape[1] // (table.BLOCK * table.SUB)
            values = np.concatenate([
                ml_e_neg(alpha, beta, np.expm1(
                    (b * table.BLOCK + table._BLOCK_NODES) * table.FIT_PIECE))
                for b in range(blocks)])
            fit = np.polynomial.chebyshev.chebfit(nodes, values.T, table.FIT_DEG)
            want = np.polynomial.chebyshev.chebval(x, fit)
            got = np.polynomial.polynomial.polyval(
                s, fast.coeffs.reshape(table.DEG + 1, -1, table.SUB))
            err = np.max(np.abs(got - want)) / np.max(np.abs(values))
            assert err <= 1e-14, (beta, err)

    def test_re_expansion_matches_exact_arithmetic(self):
        # Rational arithmetic: T_k(x_j + s/32) as a polynomial in s, peeled
        # into T_m(2 s) from the top degree down, truncated to m <= 4.  The
        # map, applied to each T_k's values at the 16 nodes, must give those
        # truncations within 1e-14 as polynomials on s in [-1/2, 1/2] (sum
        # of |error_r| 2^-r), for every k <= 15 and every sub-piece.  The
        # map's inputs are irrational, so it cannot be exact.  Its
        # recurrence reaches 7.6e-15; reading the coefficients off sampled
        # values gives 3.5e-14 and a detour through degree-15 monomials
        # 9e-12.
        def combine(p, q, c=1):
            n = max(len(p), len(q))
            p, q = p + [0] * (n - len(p)), q + [0] * (n - len(q))
            return [a + c * b for a, b in zip(p, q)]

        def times(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        def chebyshev(x):  # T_0 .. T_15 of the linear polynomial x
            ts = [[Fraction(1)], x]
            while len(ts) < 16:
                ts.append(combine(times([2 * a for a in x], ts[-1]), ts[-2], -1))
            return ts

        basis = chebyshev([Fraction(0), Fraction(2)])
        theta = np.pi * (np.arange(16) + 0.5) / 16
        got = (np.cos(np.outer(np.arange(16), theta))
               @ special._re_expansion(15, 64, 4)).reshape(16, 64, 5)
        weight = 0.5 ** np.arange(5)
        for j in range(64):
            x_j = Fraction(2 * j + 1, 64) - 1
            for k, p in enumerate(chebyshev([x_j, Fraction(1, 32)])):
                kept = [Fraction(0)] * 5
                for m in range(k, -1, -1):
                    d = p[m] / basis[m][m]
                    p = combine(p, basis[m], -d)
                    if m <= 4:
                        kept = combine(kept, basis[m], d)
                err = np.abs(got[k, j] - [float(c) for c in kept]) @ weight
                assert err <= 1e-14, (j, k, err)

    def test_each_extension_fits_its_blocks_in_one_call(self, monkeypatch):
        # Ten blocks of 32 nodes reach y = 1e4 (log1p(1e4) = 9.2), and each
        # extension fits the blocks it appends in one call.
        calls = []

        def counting(alpha, beta, y):
            calls.append(np.size(y))
            return ml_e_neg(alpha, beta, y)

        monkeypatch.setattr(special, "ml_e_neg", counting)
        ml_neg_fast(0.5, 1.0, np.array([0.0, 1e4]))
        assert len(calls) == 1 and calls[0] <= 400, calls
        calls.clear()
        fresh = special._FastMLNeg(0.5, 1.0)
        fresh(np.array([10.0]))
        fresh(np.array([1e4]))
        assert calls == [3 * 32, 7 * 32]

    def test_one_wide_call_builds_the_same_table_as_many_narrow_ones(self):
        wide = special._FastMLNeg(0.7, 1.45)
        wide(np.array([0.0, 3e4]))
        narrow = special._FastMLNeg(0.7, 1.45)
        for top in np.geomspace(1e-3, 3e4, 60):
            narrow(np.linspace(0.0, top, 7))
        assert narrow.coeffs.shape == wide.coeffs.shape
        assert narrow.coeffs.tobytes() == wide.coeffs.tobytes()

    def test_shape_and_empty_input(self):
        y = np.linspace(0.0, 50.0, 12).reshape(3, 4)
        assert ml_neg_fast(0.5, 1.5, y).shape == (3, 4)
        assert ml_neg_fast(0.5, 1.5, np.empty((0, 4))).shape == (0, 4)

    @pytest.mark.parametrize("ab", [(0.5, 1.0), (0.5, 0.5), (0.7, 1.7), (1.0, 0.5)])
    def test_zero_is_exact_and_scalars_are_floats(self, ab):
        want = 1.0 / math.gamma(ab[1])
        vals = ml_neg_fast(*ab, np.array([0.0, 2.0, 0.0]))
        assert vals[0] == vals[2] == pytest.approx(want, rel=1e-15)
        assert vals[0] == ml_e_neg(*ab, 0.0)
        one = ml_neg_fast(*ab, 0.0)
        assert type(one) is float and one == vals[0]
        assert ml_neg_fast(*ab, 2.0) == vals[1]

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
    def test_alpha_one_uses_the_closed_forms(self, beta):
        y = np.concatenate([np.linspace(0.0, 30.0, 301), np.geomspace(31.0, 1e6, 50)])
        vals = ml_neg_fast(1.0, beta, y)
        assert np.array_equal(vals, ml_e_neg(1.0, beta, y))
        assert np.all(np.isfinite(vals))
        assert ml_neg_fast(1.0, beta, 29.0) == ml_e_neg(1.0, beta, 29.0)
        assert special._FAST_CACHE == {}

    @pytest.mark.parametrize("ab", [(0.5, 1.5), (0.3, 1.0), (0.9, 0.9)])
    def test_in_place_equals_the_new_array(self, ab):
        # More points than one evaluation chunk, so a later chunk of y is
        # read after earlier chunks of the same buffer were overwritten.
        y = np.geomspace(1e-6, 3e4, 5 * (special._FastMLNeg.CHUNK // 2 + 1)).reshape(5, -1)
        want = ml_neg_fast(*ab, y)
        buf = y.copy()
        assert ml_neg_fast(*ab, buf, out=buf) is buf
        assert np.array_equal(buf, want)
        other = np.empty_like(y)
        assert ml_neg_fast(*ab, y, out=other) is other
        assert np.array_equal(other, want)

    def test_chunk_buffers_are_kept_per_thread(self):
        mine = special._chunk_buffers()
        assert special._chunk_buffers() is mine
        with ThreadPoolExecutor(max_workers=1) as pool:
            theirs = pool.submit(special._chunk_buffers).result()
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_warm_in_place_call_allocates_no_chunk_buffers(self):
        # Fresh t, idx and row buffers would take CHUNK * 56 B = 459 KB;
        # the 128 KiB bound leaves room for NumPy's 64 KiB cast buffer.
        y = np.geomspace(1e-6, 3e4, 3 * special._FastMLNeg.CHUNK)
        buf = y.copy()
        ml_neg_fast(0.5, 1.0, buf, out=buf)
        buf[...] = y
        tracemalloc.start()
        try:
            ml_neg_fast(0.5, 1.0, buf, out=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 17

    @pytest.mark.parametrize("ab", [(0.5, 1.0), (0.7, 1.7)])
    def test_in_place_zeros_are_exact(self, ab):
        # The y == 0 mask must be taken before the table overwrites y.
        y = np.array([[0.0, 2.0, 0.0], [5.0, 0.0, 1e3]])
        zero = y == 0.0
        buf = y.copy()
        ml_neg_fast(*ab, buf, out=buf)
        assert np.all(buf[zero] == 1.0 / math.gamma(ab[1]))
        assert np.array_equal(buf, ml_neg_fast(*ab, y))

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_alpha_one_fills_out(self, beta):
        y = np.linspace(0.0, 30.0, 31)
        buf = y.copy()
        assert ml_neg_fast(1.0, beta, buf, out=buf) is buf
        assert np.array_equal(buf, ml_e_neg(1.0, beta, y))

    def test_out_must_be_a_contiguous_float_array_of_y_shape(self):
        y = np.linspace(0.0, 10.0, 24).reshape(4, 6)
        for out in (np.empty((6, 4)).T, np.empty((4, 12))[:, ::2],
                    np.empty((4, 6), dtype=np.float32), np.empty(24)):
            with pytest.raises(DomainError, match="out must be"):
                ml_neg_fast(0.5, 0.5, y, out=out)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            ml_neg_fast(0.5, 0.5, np.array([1.0, bad]))
        assert special._FAST_CACHE == {}
        with pytest.raises(DomainError):
            ml_neg_fast(1.5, 0.5, np.array([1.0]))
        for alpha in (0.5, 1.0):
            with pytest.raises(DomainError, match="orders"):
                ml_neg_fast(alpha, bad, np.array([0.0, 5.0, 200.0]))
        assert special._FAST_CACHE == {}


def wright_series_oracle(alpha, theta):
    """phi_alpha(theta) from its power series in mpmath, with no term cap.

    Summed until the terms fall 1e-40 below their peak and below 1e-40; the
    precision covers the peak twice over, since the sum is about as far
    below 1 as the peak is above it.
    """
    log_t = math.log(theta) if theta > 0.0 else -math.inf

    def log_term(n):  # log of a bound on |term n|
        z = 1.0 - alpha * (n + 1)
        log_rgamma = (-math.lgamma(z) if z > 0.0
                      else math.lgamma(1.0 - z) - math.log(math.pi))
        return (n * log_t if n else 0.0) - math.lgamma(n + 1.0) + log_rgamma

    peak, n = log_term(0), 1
    while not (log_term(n) < min(peak, 0.0) - 40.0 * math.log(10.0)
               and log_term(n) < log_term(n - 1)):
        peak = max(peak, log_term(n))
        n += 1
    with mpmath.workdps(30 + int(2.0 * max(peak, 0.0) / math.log(10.0))):
        a, t = mpmath.mpf(alpha), mpmath.mpf(theta)
        total, power = mpmath.mpf(0), mpmath.mpf(1)  # power = (-t)^k / k!
        for k in range(n + 1):
            total += power * mpmath.rgamma(1 - a * (k + 1))
            power *= -t / (k + 1)
        return float(total)


class TestWright:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_matches_the_uncapped_series_and_is_nonnegative(self, alpha):
        cut = wright_tail_cut(alpha)
        b = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
        for theta in np.linspace(0.0, 1.5 * cut, 16):  # node 10 is the cut
            got = wright_phi(alpha, theta)
            assert got >= 0.0
            if b * theta ** (1.0 / (1.0 - alpha)) <= 45.0:
                assert abs(got - wright_series_oracle(alpha, theta)) <= 1e-13
            else:
                # phi < 1e-16 here by its saddle-point asymptote; at 1.5 cut the
                # series would need ~1e6 terms at ~1e5 digits for alpha = 0.95.
                assert got <= 1e-13
        for theta in (2.0 * cut, 10.0 * cut, 1e300):
            assert wright_phi(alpha, theta) >= 0.0

    def test_half_order_gaussian_to_the_far_tail(self):
        for theta in np.linspace(0.0, 20.0, 81):
            exact = math.exp(-(theta**2) / 4.0) / SQRT_PI
            assert wright_phi(0.5, theta) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_rule_is_built_once_per_alpha(self):
        special._wright_rule.cache_clear()
        for theta in (0.0, 0.2, 2.0, 40.0):
            wright_phi(0.7, theta)
        info = special._wright_rule.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert special._wright_rule(0.7) is special._wright_rule(0.7)

    @pytest.mark.parametrize("alpha", [1.5, -0.5, 1.0, 0.0, math.nan])
    def test_orders_outside_the_unit_interval_are_rejected(self, alpha):
        with pytest.raises(DomainError):
            wright_tail_cut(alpha)
        with pytest.raises(DomainError):
            wright_phi(alpha, 1.0)

    def test_at_zero(self):
        assert wright_phi(0.5, 0.0) == pytest.approx(1.0 / SQRT_PI, abs=1e-10)

    def test_half_order_closed_form(self):
        for theta in np.linspace(0.0, 10.0, 41):
            exact = math.exp(-(theta**2) / 4.0) / SQRT_PI
            assert wright_phi(0.5, theta) == pytest.approx(exact, abs=1e-8)

    def test_far_tail_nonnegative_and_tiny(self):
        v = wright_phi(0.3, 30.0)
        assert 0.0 <= v <= 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_normalization(self, alpha):
        hi = wright_tail_cut(alpha)
        total, _ = quad(lambda t: wright_phi(alpha, t), 0.0, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_subordination_identity(self, alpha, lam):
        # int_0^inf phi_alpha(t) e^{-lam t} dt = E_{alpha,1}(-lam).
        hi = wright_tail_cut(alpha)
        val, _ = quad(
            lambda t: wright_phi(alpha, t) * math.exp(-lam * t),
            0.0,
            hi,
            limit=200,
        )
        assert val == pytest.approx(float(ml_e_neg(alpha, 1.0, lam)), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            wright_phi(1.0, 1.0)
        with pytest.raises(DomainError):
            wright_phi(0.5, -0.1)
