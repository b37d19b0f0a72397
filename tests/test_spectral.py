"""Periodic-box fields, transforms, the fractional Laplacian and norms."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracsim import (
    DomainError,
    Field,
    GridSpec,
    PreconditionError,
    SpectralField,
    fractional_laplacian,
    gaussian_field,
    half_spectrum_tail_fraction,
    indicator_field,
    load_field,
    lq_norm,
    save_field,
    spectral_tail_fraction,
    to_real,
    to_spectral,
)
import fracsim.spectral as spectral

GRID = GridSpec(dim=1, points=128, half_width=10.0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(dim=4, points=128, half_width=1.0)
        with pytest.raises(DomainError):
            GridSpec(dim=1, points=100, half_width=1.0)  # not a power of two
        with pytest.raises(DomainError):
            GridSpec(dim=1, points=32, half_width=1.0)  # too few
        with pytest.raises(DomainError):
            GridSpec(dim=1, points=128, half_width=-1.0)

    def test_geometry(self):
        assert GRID.spacing == pytest.approx(20.0 / 128)
        assert GRID.cell_volume == pytest.approx(GRID.spacing)
        ax = GRID.axis()
        assert ax[0] == -10.0
        assert np.all(np.diff(ax) > 0.0)


class TestTransforms:
    @given(
        values=arrays(
            np.float64,
            128,
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_round_trip(self, values):
        f = Field(GRID, values)
        back = to_real(to_spectral(f))
        scale = max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(back.values - values)) <= 1e-12 * scale

    def test_parseval(self):
        rng = np.random.default_rng(3)
        f = Field(GRID, rng.standard_normal(128))
        sf = to_spectral(f)
        # ||f||_2^2 * (2L) = sum |modes|^2 / N with this normalization.
        real_sq = float(np.sum(f.values**2)) * GRID.cell_volume
        spec_sq = float(np.sum(np.abs(sf.modes) ** 2)) / (
            GRID.points * GRID.cell_volume
        )
        assert real_sq == pytest.approx(spec_sq, rel=1e-10)

    def test_constant_field(self):
        f = Field(GRID, np.full(128, 2.5))
        sf = to_spectral(f)
        assert sf.modes[0] == pytest.approx(2.5 * 2.0 * GRID.half_width)
        assert np.max(np.abs(sf.modes[1:])) <= 1e-10

    def test_asymmetric_modes_rejected(self):
        modes = np.zeros(128, dtype=complex)
        modes[1] = 1.0  # no conjugate partner
        with pytest.raises(PreconditionError):
            to_real(SpectralField(GRID, modes))


class TestFractionalLaplacian:
    def test_eigenfunction(self):
        L = GRID.half_width
        x = GRID.axis()
        k = 2.0 * np.pi / L  # a resolved Fourier mode
        for s in (0.3, 0.7, 1.0):
            out = fractional_laplacian(Field(GRID, np.sin(k * x)), s)
            assert np.max(np.abs(out.values - k ** (2 * s) * np.sin(k * x))) <= 1e-10

    def test_constant_annihilated(self):
        out = fractional_laplacian(Field(GRID, np.ones(128)), 0.5)
        assert np.max(np.abs(out.values)) <= 1e-13

    def test_semigroup(self):
        rng = np.random.default_rng(11)
        f = Field(GRID, rng.standard_normal(128))
        twice = fractional_laplacian(fractional_laplacian(f, 0.5), 0.5)
        once = fractional_laplacian(f, 1.0)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-10 * np.max(
            np.abs(once.values)
        )

    def test_multiplier_composition(self):
        rng = np.random.default_rng(12)
        f = Field(GRID, rng.standard_normal(128))
        ab = fractional_laplacian(fractional_laplacian(f, 0.3), 0.4)
        direct = fractional_laplacian(f, 0.7)
        assert np.max(np.abs(ab.values - direct.values)) <= 1e-10 * np.max(
            np.abs(direct.values)
        )

    def test_self_adjoint_and_positive(self):
        rng = np.random.default_rng(13)
        u = Field(GRID, rng.standard_normal(128))
        v = Field(GRID, rng.standard_normal(128))
        for s in (0.4, 0.9):
            lu = fractional_laplacian(u, s)
            lv = fractional_laplacian(v, s)
            ip = lambda a, b: float(np.sum(a.values * b.values)) * GRID.cell_volume
            assert abs(ip(u, lv) - ip(lu, v)) <= 1e-12 * lq_norm(u, 2) * lq_norm(v, 2)
            assert ip(u, lu) >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            fractional_laplacian(Field(GRID, np.ones(128)), 1.5)


class TestNorms:
    def test_unit_cell(self):
        values = np.zeros(128)
        values[7] = 1.0
        f = Field(GRID, values)
        for q in (1.0, 2.0, 4.0):
            assert lq_norm(f, q) == pytest.approx(GRID.cell_volume ** (1.0 / q))
        assert lq_norm(f, np.inf) == 1.0

    def test_gaussian_closed_form(self):
        f = gaussian_field(GRID, 1.0, 1.0)  # exp(-x^2)
        assert lq_norm(f, 2.0) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-10)

    @given(c=st.floats(-100.0, 100.0))
    def test_homogeneity(self, c):
        f = gaussian_field(GRID, 1.0, 2.0)
        scaled = Field(GRID, c * f.values)
        assert lq_norm(scaled, 3.0) == pytest.approx(
            abs(c) * lq_norm(f, 3.0), rel=1e-12, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            lq_norm(gaussian_field(GRID, 1.0, 1.0), 0.5)


class TestTailMonitor:
    def test_smooth_field_resolved(self):
        f = gaussian_field(GRID, 1.0, 2.0)
        assert spectral_tail_fraction(to_spectral(f)) <= 1e-10

    def test_zero_field(self):
        f = Field(GRID, np.zeros(128))
        assert spectral_tail_fraction(to_spectral(f)) == 0.0

    def test_rough_field_flagged(self):
        rng = np.random.default_rng(5)
        f = Field(GRID, rng.standard_normal(128))
        assert spectral_tail_fraction(to_spectral(f)) > 0.1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cached_mask_matches_direct_construction(self, dim):
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        k = np.fft.fftfreq(grid.points) * grid.points
        hi = np.abs(k) >= grid.points // 4
        mask = np.logical_or.reduce(np.meshgrid(*([hi] * dim), indexing="ij"))
        rng = np.random.default_rng(dim)
        for _ in range(2):  # the second call reads the cached mask
            sf = to_spectral(Field(grid, rng.standard_normal(grid.shape)))
            energy = np.abs(sf.modes) ** 2
            want = float(np.sum(energy[mask])) / float(np.sum(energy))
            assert spectral_tail_fraction(sf) == want
        cached = spectral._top_octave_mask(grid)
        assert np.array_equal(cached, mask) and not cached.flags.writeable

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_half_spectrum_fraction_matches_full(self, dim):
        # Hermitian weights on the rfftn half spectrum reproduce the
        # full-spectrum top-octave fraction of a real field.
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        rng = np.random.default_rng(10 + dim)
        for _ in range(2):
            f = Field(grid, rng.standard_normal(grid.shape))
            half = np.fft.rfftn(f.values) * grid.cell_volume
            want = spectral_tail_fraction(to_spectral(f))
            assert half_spectrum_tail_fraction(grid, half) == pytest.approx(
                want, rel=1e-13)
        zero = np.zeros(grid.shape[:-1] + (grid.points // 2 + 1,), dtype=complex)
        assert half_spectrum_tail_fraction(grid, zero) == 0.0


class TestDataAndIO:
    def test_indicator(self):
        f = indicator_field(GRID, 2.0, 1.0)
        assert set(np.unique(f.values)) <= {0.0, 2.0}
        assert np.all(f.values[GRID.radius_squared() > 1.0] == 0.0)

    def test_save_load_round_trip(self, tmp_path):
        f = gaussian_field(GRID, 1.5, 0.7)
        path = tmp_path / "field.raw"
        save_field(f, path)
        back = load_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)
