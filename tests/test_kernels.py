"""Fundamental kernels: symbols, radial profiles, propagators and norms."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad
from scipy.special import erfcx

import fracsim.kernels as kernels
from fracsim.special import ml_neg_fast
from fracsim import (
    DomainError,
    Field,
    GridSpec,
    NumericalError,
    UnsupportedRangeError,
    apply_propagator,
    gaussian_field,
    lq_norm,
    lq_norm_is_finite,
    ml_e_neg,
    profile,
    profile_lq_norm,
    q_critical,
    restricted_lq_norm,
    symbol_Y,
    symbol_Z,
    symbol_decay,
)

GRID = GridSpec(dim=1, points=1024, half_width=50.0)


def exact_delta(grid):
    values = np.zeros(grid.shape)
    values[grid.points // 2] = 1.0 / grid.cell_volume  # unit-mass spike at x=0
    return Field(grid, values)


class TestSymbols:
    def test_z_zero_mode(self):
        val = symbol_Z(3.7, 0.0, 0.5, 0.4)
        assert type(val) is float
        assert val == 1.0
        assert symbol_Z(3.7, np.array([0.0, 1.0]), 0.5, 0.4)[0] == 1.0

    def test_z_heat_limit(self):
        xi_sq = np.array([0.0, 0.5, 2.0])
        assert np.allclose(symbol_Z(1.3, xi_sq, 1.0, 1.0), np.exp(-xi_sq * 1.3))

    def test_z_golden_value(self):
        # |xi| = 1, t = 1: E_{1/2,1}(-1) = erfcx(1), independent oracle.
        assert symbol_Z(1.0, 1.0, 0.5, 0.4) == pytest.approx(
            float(erfcx(1.0)), abs=1e-10
        )

    def test_y_equals_z_at_alpha_one(self):
        xi_sq = np.linspace(0.0, 5.0, 11)
        assert np.allclose(
            symbol_Y(2.0, xi_sq, 1.0, 0.6), symbol_Z(2.0, xi_sq, 1.0, 0.6)
        )

    def test_y_zero_mode(self):
        assert symbol_Y(4.0, 0.0, 0.5, 0.4) == pytest.approx(
            4.0**-0.5 / math.gamma(0.5), rel=1e-12
        )
        assert symbol_Y(4.0, 0.0, 0.5, 0.4) == pytest.approx(0.2820947918, abs=1e-9)

    def test_y_integral_identity(self):
        # int_0^h Y-symbol dtau = h^a E_{a,a+1}(-lam h^a): quadrature oracle.
        a, s, lam, h = 0.5, 0.4, 2.0, 1.5
        val, _ = quad(
            lambda tau: symbol_Y(tau, lam ** (1.0 / s), a, s), 0.0, h, limit=200
        )
        exact = h**a * float(ml_e_neg(a, a + 1.0, lam * h**a))
        assert val == pytest.approx(exact, rel=1e-8)

    def test_domain_and_wrapper(self):
        with pytest.raises(DomainError):
            symbol_Z(0.0, 1.0, 0.5, 0.4)
        with pytest.raises(DomainError):
            symbol_Y(-1.0, 1.0, 0.5, 0.4)


class TestBesselJ0:
    """The numpy J0 and its zeros, which build the dim-2 inversion rule."""

    def test_j0_matches_scipy(self):
        # The dim-2 rule evaluates J0 below the 73rd zero, 228.5.  Beyond ~240
        # scipy's own j0 drifts to 1.3e-15 from mpmath, so mpmath is the
        # oracle there (next test).
        x = np.concatenate([np.linspace(0.0, 240.0, 480001),
                            [1.0, np.nextafter(1.0, 2.0), np.nextafter(20.0, 0.0), 20.0]])
        assert np.max(np.abs(kernels._j0(x) - sp.j0(x))) <= 1e-15

    def test_j0_matches_mpmath_to_300(self):
        x = np.concatenate([np.linspace(0.0, 300.0, 1201), np.linspace(240.0, 300.0, 601)])
        with mpmath.workdps(30):
            want = np.array([float(mpmath.besselj(0, mpmath.mpf(v))) for v in x])
        assert np.max(np.abs(kernels._j0(x) - want)) <= 1e-15

    def test_zeros_match_scipy(self):
        zeros = kernels._j0_zeros()
        want = sp.jn_zeros(0, kernels._N_SEGMENTS + 1)
        np.testing.assert_allclose(zeros, want, rtol=1e-14, atol=0.0)


def per_radius_inverse(sym_fn, r, dim):
    """The inversion at one radius with its breaks built in xi: the rule
    `_unit_rule` rescales, kept here as its reference."""
    if dim == 1:
        zeros = (np.arange(kernels._N_SEGMENTS + 1) + 0.5) * np.pi / r
        weight = lambda xi: np.cos(xi * r) / np.pi
    elif dim == 2:
        zeros = sp.jn_zeros(0, kernels._N_SEGMENTS + 1) / r
        weight = lambda xi: sp.j0(xi * r) * xi / (2.0 * np.pi)
    else:
        zeros = (np.arange(1, kernels._N_SEGMENTS + 2)) * np.pi / r
        weight = lambda xi: np.sin(xi * r) * xi / (2.0 * np.pi**2 * r)
    gx, gw = np.polynomial.legendre.leggauss(12)
    cut = zeros[kernels._N_DIRECT - 1]
    breaks = np.concatenate(([0.0], np.geomspace(cut * 1e-8, cut, 48)))
    breaks = np.unique(np.concatenate((breaks, zeros[: kernels._N_DIRECT - 1])))
    breaks = kernels._split_panels(breaks, np.pi / r)
    hh = 0.5 * np.diff(breaks)
    mm = 0.5 * (breaks[:-1] + breaks[1:])
    xx = mm[:, None] + hh[:, None] * gx
    head = float(np.sum(hh[:, None] * gw * sym_fn(xx) * weight(xx)))
    lo, hi = zeros[kernels._N_DIRECT - 1 : -1], zeros[kernels._N_DIRECT :]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    xi = mid[:, None] + half[:, None] * gx
    partial = np.cumsum(np.sum(half[:, None] * gw * sym_fn(xi) * weight(xi), axis=1))
    while partial.size > 1:
        partial = 0.5 * (partial[:-1] + partial[1:])
    return head + float(partial[0])


class TestUnitRule:
    @pytest.mark.parametrize("kind,dim", [("F", 1), ("F", 2), ("F", 3), ("G", 1)])
    def test_matches_the_per_radius_rule(self, kind, dim):
        # At large r the quadrature sum is up to ~7e5 times its value (dim 3),
        # so reordering its rounding alone moves the value by ~1e-10
        # relative.  The bound is relative to the sum of |terms| (observed
        # at most 9e-16).
        alpha, s = 0.5, 0.4
        beta = 1.0 if kind == "F" else alpha
        sym_fn = lambda xi: ml_neg_fast(alpha, beta, xi ** (2.0 * s))
        radii = np.geomspace(1e-3, 1e3, 40)
        x, w = kernels._unit_rule(dim)
        got = profile(kind, alpha, s, dim, radii).values
        for r, value in zip(radii, got):
            want = per_radius_inverse(sym_fn, r, dim)
            terms = np.sum(np.abs(w * sym_fn(x / r))) / r**dim
            assert abs(value - want) <= 1e-13 * terms

    @pytest.mark.parametrize("kind,alpha,s,dim", [
        ("F", 0.5, 0.4, 1), ("G", 0.5, 0.4, 1), ("F", 0.5, 0.4, 2),
        ("G", 0.5, 0.4, 2), ("F", 0.5, 0.4, 3), ("G", 0.5, 0.4, 3),
        ("F", 0.7, 0.9, 1), ("F", 1.0, 0.5, 2), ("G", 0.7, 0.9, 3),
    ])
    def test_blocks_match_the_per_radius_oracle(self, kind, alpha, s, dim):
        # r^-dim sum_i w_i E(-(x_i/r)^2s), one radius at a time.  As above,
        # the bound is relative to the sum of |terms|: the value itself is
        # up to ~1e8 times smaller at r = 1e3 (s = 0.9, dim 3), where a
        # matrix-vector product and a dot product round differently.
        beta = 1.0 if kind == "F" else alpha
        x, w = kernels._unit_rule(dim)
        per_block = kernels._BLOCK_POINTS // x.size
        radii = np.geomspace(1e-3, 1e3, 2 * per_block + 7)
        origin = dim < symbol_decay(kind, alpha, s)  # finite at r = 0
        if origin:
            radii = np.concatenate(([0.0], radii))
        got = profile(kind, alpha, s, dim, radii).values
        if origin:
            assert got[0] == kernels._value_at_origin(alpha, beta, s, kind, dim)
        for r, value in zip(radii[origin:], got[origin:]):
            sym = ml_neg_fast(alpha, beta, (x / r) ** (2.0 * s))
            want = float(w @ sym) / r**dim
            terms = float(np.abs(w) @ np.abs(sym)) / r**dim
            assert abs(value - want) <= 1e-13 * terms

    def test_no_table_call_exceeds_the_block_cap(self, monkeypatch):
        sizes = []

        def counted(a, b, y, out=None):
            sizes.append(np.size(y))
            return ml_neg_fast(a, b, y, out=out)

        monkeypatch.setattr(kernels, "ml_neg_fast", counted)
        profile("F", 0.5, 0.4, 1, np.geomspace(1e-3, 1e3, 2000))
        n = kernels._unit_rule(1)[0].size
        assert max(sizes) <= kernels._BLOCK_POINTS
        assert sum(sizes) == 2000 * n
        assert len(sizes) == math.ceil(2000 / (kernels._BLOCK_POINTS // n))

    def test_averaging_weights_reproduce_repeated_averaging(self):
        terms = np.random.default_rng(3).standard_normal(61)
        partial = np.cumsum(terms)
        while partial.size > 1:
            partial = 0.5 * (partial[:-1] + partial[1:])
        got = float(kernels._averaging_weights(61) @ terms)
        assert got == pytest.approx(float(partial[0]), rel=1e-14, abs=1e-15)


class TestProfileMemory:
    """`profile` evaluates each block's symbol in one scratch per call."""

    @pytest.mark.parametrize("n_radii", [40, 220])
    def test_traced_peak_of_a_warm_profile(self, n_radii):
        # One block of symbol values; the table's chunk buffers are kept
        # per thread, so a warm call allocates none.  Slack: 256 KiB for
        # NumPy's cast buffer, x^(2s) and the small per-radius vectors.
        # Measured peaks: 0.600 MB of a 0.731 MB bound (40 radii) and 0.648
        # of 0.778 MB (220 radii, five blocks).  Fresh chunk buffers per
        # call read 1.007 and 1.055 MB, and a separate argument array and
        # table output per block 1.475 and 2.086 MB.
        radii = np.geomspace(1e-3, 1e3, n_radii)
        profile("F", 0.5, 0.4, 1, radii)  # warm the Mittag-Leffler table
        n = kernels._unit_rule(1)[0].size
        block = min(n_radii, kernels._BLOCK_POINTS // n) * n * 8
        tracemalloc.start()
        try:
            profile("F", 0.5, 0.4, 1, radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block + (1 << 18)

    def test_blocks_share_one_scratch(self, monkeypatch):
        outs = []

        def counted(a, b, y, out=None):
            outs.append(out)
            return ml_neg_fast(a, b, y, out=out)

        monkeypatch.setattr(kernels, "ml_neg_fast", counted)
        profile("F", 0.5, 0.4, 1, np.geomspace(1e-3, 1e3, 220))
        assert len(outs) == 5
        assert all(out is not None and np.shares_memory(out, outs[0]) for out in outs)


class TestProfiles:
    @pytest.mark.parametrize("r", [1e-3, 0.37, 12.0, 1e3])
    def test_panel_split_matches_linspace(self, r):
        # The head breaks of a dim-1 inversion at radius r, split the loop way.
        zeros = (np.arange(kernels._N_DIRECT) + 0.5) * np.pi / r
        cut = zeros[-1]
        breaks = np.unique(np.concatenate(
            ([0.0], np.geomspace(cut * 1e-8, cut, 48), zeros[:-1])))
        width = np.pi / r
        pieces = [breaks[:1]]
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            m = int(np.ceil((hi - lo) / width))
            pieces.append(np.linspace(lo, hi, m + 1)[1:])
        assert np.array_equal(kernels._split_panels(breaks, width),
                              np.concatenate(pieces))

    def test_gaussian_heat_kernel(self):
        radii = np.concatenate(([0.0], np.geomspace(1e-2, 30.0, 40)))
        prof = profile("F", 1.0, 1.0, 1, radii)
        exact = (4.0 * np.pi) ** -0.5 * np.exp(-prof.radii**2 / 4.0)
        assert np.max(np.abs(prof.values - exact)) <= 1e-10
        assert prof.values[0] == pytest.approx(0.2820947918, abs=1e-9)

    @pytest.mark.parametrize(
        "dim,exact_fn",
        [
            (1, lambda r: 1.0 / (np.pi * (1.0 + r**2))),
            (2, lambda r: (1.0 + r**2) ** -1.5 / (2.0 * np.pi)),
            (3, lambda r: 1.0 / (np.pi**2 * (1.0 + r**2) ** 2)),
        ],
    )
    def test_cauchy_kernels(self, dim, exact_fn):
        # alpha = 1, s = 1/2 at t = 1: the classical Poisson kernels.
        radii = np.geomspace(1e-2, 100.0, 24)
        prof = profile("F", 1.0, 0.5, dim, radii)
        rel = np.abs(prof.values - exact_fn(prof.radii)) / exact_fn(prof.radii)
        assert np.max(rel) <= 1e-8

    def test_monotone_positive(self):
        radii = np.geomspace(1e-2, 100.0, 30)
        prof = profile("F", 0.5, 0.4, 1, radii)
        assert np.all(prof.values > 0.0)
        assert np.all(np.diff(prof.values) <= 0.0)

    def test_unit_mass(self):
        radii = np.geomspace(1e-3, 1e3, 120)
        prof = profile("F", 0.5, 0.4, 1, radii)
        assert profile_lq_norm(prof, 1.0) == pytest.approx(1.0, abs=0.02)

    def test_duhamel_profile_mass(self):
        # ||G||_{L^1} = 1/Gamma(alpha) (the Y symbol at xi = 0 is
        # t^{alpha-1}/Gamma(alpha); the profile is taken at t = 1).
        radii = np.geomspace(1e-3, 1e3, 120)
        prof = profile("G", 0.5, 0.4, 1, radii)
        assert profile_lq_norm(prof, 1.0) == pytest.approx(
            1.0 / math.gamma(0.5), rel=0.02
        )

    @pytest.mark.parametrize("kind,alpha,s,dim", [
        ("F", 0.5, 0.8, 1), ("F", 0.7, 0.9, 1), ("G", 0.5, 0.4, 1),
        ("G", 0.5, 0.5, 1), ("G", 0.7, 0.9, 3), ("F", 1.0, 0.5, 2),
    ])
    def test_origin_value_against_quadrature(self, kind, alpha, s, dim):
        # c_dim int_0^inf E_{a,b}(-xi^2s) xi^(dim-1) dxi by adaptive quadrature,
        # covering mu = dim/(2s) below 1, at 1 (G) and above 1 (G).
        beta = 1.0 if kind == "F" else alpha
        angular = {1: 1.0 / np.pi, 2: 1.0 / (2.0 * np.pi), 3: 1.0 / (2.0 * np.pi**2)}
        f = lambda xi: float(ml_e_neg(alpha, beta, xi ** (2.0 * s))) * xi ** (dim - 1)
        want = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
                   for lo, hi in ((0.0, 1.0), (1.0, np.inf))) * angular[dim]
        got = profile(kind, alpha, s, dim, np.array([0.0, 1.0])).values[0]
        assert got == pytest.approx(want, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            profile("X", 0.5, 0.4, 1, np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            profile("F", 0.5, 0.4, 1, np.array([2.0, 1.0]))

    def test_boolean_dim_rejected(self):
        # True == 1, so only the isinstance test tells it from dim 1.
        radii = np.array([0.5, 1.0, 2.0])
        with pytest.raises(DomainError, match="dim must be 1, 2 or 3, got True"):
            profile("F", 0.5, 0.4, True, radii)
        with pytest.raises(DomainError, match="dim must be 1, 2 or 3, got False"):
            kernels.KernelProfile("G", 0.5, 0.4, False, radii, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_radii_rejected(self, bad):
        for radii in ([0.5, 1.0, bad], [bad, 1.0, 2.0]):
            with pytest.raises(DomainError, match="^radii must be finite$"):
                profile("F", 0.5, 0.4, 1, np.array(radii))


class TestProfileNorms:
    def test_q_critical(self):
        assert q_critical(1, 0.4) == pytest.approx(5.0, rel=1e-12)
        assert q_critical(1, 0.5) == np.inf
        assert q_critical(3, 0.7) == pytest.approx(3.0 / 1.6, rel=1e-12)

    def test_guard_above_critical(self):
        radii = np.geomspace(1e-3, 1e3, 60)
        prof = profile("F", 0.5, 0.4, 1, radii)
        with pytest.raises(UnsupportedRangeError):
            profile_lq_norm(prof, 6.0)
        # q = 5 is q_c itself, though rounding puts 1/(1 - 0.8) a little above it.
        assert q_critical(1, 0.4) > 5.0
        assert not lq_norm_is_finite(5.0, 1, 0.4) and lq_norm_is_finite(4.99, 1, 0.4)
        with pytest.raises(UnsupportedRangeError):
            profile_lq_norm(prof, 5.0)
        # Restricted away from the origin the norm is finite again.
        assert profile_lq_norm(prof, 6.0, r_min=1.0) > 0.0

    @pytest.mark.parametrize("q", [6.0, 10.0])
    def test_bounded_g_profile_is_in_every_l_q(self, q):
        # For alpha < 1 the G symbol decays like |xi|^-4s and 1 < 4s at
        # s = 0.4, so G is bounded and in L^q for q above F's q_c = 5.
        norms = [profile_lq_norm(profile("G", 0.5, 0.4, 1,
                                         np.geomspace(1e-3, 1e3, n)), q)
                 for n in (60, 240)]
        assert all(math.isfinite(v) and v > 0.0 for v in norms)
        assert norms[0] == pytest.approx(norms[1], rel=0.01)
        # L^inf of a profile is its value at the origin, not a quadrature
        with pytest.raises(DomainError, match="finite"):
            profile_lq_norm(profile("G", 0.5, 0.4, 1, np.geomspace(1e-3, 1e3, 60)),
                            np.inf)
        f_prof = profile("F", 0.5, 0.4, 1, np.geomspace(1e-3, 1e3, 60))
        with pytest.raises(UnsupportedRangeError):
            profile_lq_norm(f_prof, 5.0)

    def test_symbol_decay_takes_kind_and_alpha(self):
        assert symbol_decay("F", 0.5, 0.4) == symbol_decay("Z", 0.5, 0.4) == 0.8
        assert symbol_decay("G", 0.5, 0.4) == symbol_decay("Y", 0.5, 0.4) == 1.6
        assert symbol_decay("F", 1.0, 0.4) == symbol_decay("G", 1.0, 0.4) == np.inf
        with pytest.raises(DomainError):
            symbol_decay("X", 0.5, 0.4)
        # the paper's q_c by default; 1/(1 - 4s) for G at s = 0.2
        assert q_critical(1, 0.4) == q_critical(1, 0.4, kind="Z", alpha=0.9)
        assert q_critical(1, 0.2, kind="G", alpha=0.5) == pytest.approx(5.0)
        assert lq_norm_is_finite(np.inf, 1, 0.4, kind="G", alpha=0.5)
        assert lq_norm_is_finite(50.0, 1, 0.4, alpha=1.0)
        assert not lq_norm_is_finite(5.0, 1, 0.2, kind="G", alpha=0.5)

    def test_cauchy_l2_closed_form(self):
        # ||(pi (1+r^2))^{-1}||_{L^2(R)} = 1/sqrt(2 pi).
        radii = np.geomspace(1e-2, 100.0, 40)
        prof = profile("F", 1.0, 0.5, 1, radii)
        assert profile_lq_norm(prof, 2.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=0.02
        )

    def test_restricted_field_norm(self):
        f = gaussian_field(GRID, 1.0, 1.0)
        full = lq_norm(f, 2.0)
        assert restricted_lq_norm(f, 2.0, 0.0) <= full
        # nested exteriors shrink the norm; far exterior is empty
        assert restricted_lq_norm(f, 2.0, 1.0) < restricted_lq_norm(f, 2.0, 0.5)
        assert restricted_lq_norm(f, 2.0, 40.0) <= 1e-100

    @pytest.mark.parametrize("r_min", [-3.0, math.nan])
    def test_restricted_field_norm_rejects_bad_radius(self, r_min):
        # -3 would give the r_min = 3 norm and NaN the empty region's 0.0
        f = gaussian_field(GRID, 1.0, 1.0)
        with pytest.raises(DomainError, match="r_min must be >= 0"):
            restricted_lq_norm(f, 2.0, r_min)


class TestPropagator:
    def test_mass_conservation_constant(self):
        f = Field(GRID, np.full(GRID.shape, 3.0))
        out = apply_propagator("Z", 2.0, f, 0.5, 0.4)
        assert np.max(np.abs(out.values - 3.0)) <= 1e-12

    def test_heat_gaussian_spread(self):
        # alpha = s = 1: Gaussian with squared width w^2 -> w^2 + 4t.
        x = GRID.axis()
        w0, t = 2.0, 1.5
        out = apply_propagator("Z", t, gaussian_field(GRID, 1.0, w0), 1.0, 1.0)
        wt2 = w0**2 + 4.0 * t
        exact = w0 / math.sqrt(wt2) * np.exp(-(x**2) / wt2)
        assert np.max(np.abs(out.values - exact)) <= 1e-12

    def test_l2_contraction(self):
        rng = np.random.default_rng(21)
        f = Field(GRID, rng.standard_normal(GRID.shape))
        out = apply_propagator("Z", 1.0, f, 0.5, 0.4)
        assert lq_norm(out, 2.0) <= lq_norm(f, 2.0)

    def test_grid_mass_unit(self):
        d = exact_delta(GRID)
        out = apply_propagator("Z", 1.0, d, 0.5, 0.4)
        assert lq_norm(out, 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_self_similarity(self):
        # t^{Na/2s} Z(t, r t^{a/2s}) is independent of t.
        a, s = 0.5, 0.4
        grid = GridSpec(dim=1, points=8192, half_width=200.0)
        d = exact_delta(grid)
        x = grid.axis()
        rs = np.array([0.5, 1.0, 2.0])
        ref = None
        for t in (0.5, 1.0, 2.0, 4.0):
            f = apply_propagator("Z", t, d, a, s)
            v = np.interp(rs * t ** (a / (2 * s)), x, f.values) * t ** (a / (2 * s))
            if ref is None:
                ref = v
            assert np.max(np.abs(v / ref - 1.0)) <= 0.01

    def test_tail_norm_scaling(self):
        # ||Z(t)||_{L^q(|x| > lam t^{a/2s})} t^{(Na/2s)(1-1/q)} is t-independent.
        a, s, q, lam = 0.5, 0.4, 2.0, 1.0
        grid = GridSpec(dim=1, points=8192, half_width=200.0)
        d = exact_delta(grid)
        vals = []
        for t in (0.5, 1.0, 2.0, 4.0):
            f = apply_propagator("Z", t, d, a, s)
            vals.append(
                restricted_lq_norm(f, q, lam * t ** (a / (2 * s)))
                * t ** ((a / (2 * s)) * (1.0 - 1.0 / q))
            )
        assert (max(vals) - min(vals)) / min(vals) <= 0.02

    def test_hoelder_in_time_bounded(self):
        # ||Y(t) - Y(t0)||_{L^1} / ((t-t0)^g t0^{a-1-g}) bounded over the time
        # grid, stably under grid refinement.
        a, s, g = 0.5, 0.4, 0.5
        d = exact_delta(GRID)

        def max_ratio(n):
            ts = np.geomspace(0.1, 10.0, n)
            fields = [apply_propagator("Y", t, d, a, s) for t in ts]
            best = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    diff = float(
                        np.sum(np.abs(fields[j].values - fields[i].values))
                    ) * GRID.cell_volume
                    best = max(
                        best, diff / ((ts[j] - ts[i]) ** g * ts[i] ** (a - 1 - g))
                    )
            return best

        m_coarse, m_fine = max_ratio(6), max_ratio(9)
        assert np.isfinite(m_fine)
        assert abs(m_fine - m_coarse) <= 0.1 * m_coarse

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["Z", "Y"])
    def test_matches_full_spectrum(self, kind, dim):
        # The half-spectrum propagator against the symbol applied to the
        # full complex spectrum, built here.
        grid = GridSpec(dim=dim, points=64, half_width=8.0)
        rng = np.random.default_rng(30 + dim)
        f = Field(grid, rng.standard_normal(grid.shape))
        ax = (2.0 * np.pi * np.fft.fftfreq(grid.points, d=grid.spacing)) ** 2
        xi_sq = sum(np.meshgrid(*([ax] * dim), indexing="ij"))
        symbol = symbol_Z if kind == "Z" else symbol_Y
        for t in (0.5, 4.0):
            modes = np.fft.fftn(f.values) * symbol(t, xi_sq, 0.5, 0.4)
            want = np.fft.ifftn(modes).real
            got = apply_propagator(kind, t, f, 0.5, 0.4).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestTableOracle:
    """Symbols, profiles and propagators on the table against the regime evaluator.

    Every Mittag-Leffler value the kernels need comes from the fast table;
    swapping it for `ml_e_neg` must change each result by at most 1e-10
    relative to its largest entry.
    """

    RADII = np.geomspace(1e-2, 1e2, 12)

    @staticmethod
    def on_regimes(monkeypatch):
        def regimes(a, b, y, out=None):
            values = ml_e_neg(a, b, y)
            if out is None:
                return values
            out[...] = values
            return out

        monkeypatch.setattr(kernels, "ml_neg_fast", regimes)

    @staticmethod
    def assert_close(table, oracle):
        assert np.max(np.abs(table - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("kind,dim", [("F", 1), ("F", 2), ("F", 3), ("G", 1)])
    def test_profile(self, monkeypatch, kind, dim):
        table = profile(kind, 0.5, 0.4, dim, self.RADII).values
        self.on_regimes(monkeypatch)
        self.assert_close(table, profile(kind, 0.5, 0.4, dim, self.RADII).values)

    @pytest.mark.parametrize("kind", ["Z", "Y"])
    def test_apply_propagator(self, monkeypatch, kind):
        f = gaussian_field(GRID, 1.0, 1.0)
        table = [apply_propagator(kind, t, f, 0.5, 0.4).values for t in (0.5, 4.0)]
        self.on_regimes(monkeypatch)
        for t, got in zip((0.5, 4.0), table):
            self.assert_close(got, apply_propagator(kind, t, f, 0.5, 0.4).values)
