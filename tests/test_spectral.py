"""Periodic-box fields, transforms, the fractional Laplacian and norms."""
import ast
import math
from fractions import Fraction
from pathlib import Path

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
    indicator_field,
    lq_norm,
    to_real,
    to_spectral,
)
import fracsim
import fracsim.spectral as spectral

GRID = GridSpec(dim=1, points=128, half_width=10.0)


def full_xi_squared(grid: GridSpec) -> np.ndarray:
    """|xi|^2 on the full FFT-ordered mode grid, xi = pi k / L from
    integer wave numbers k."""
    k = np.fft.fftfreq(grid.points, 1.0 / grid.points)
    k2 = sum(np.meshgrid(*([k * k] * grid.dim), indexing="ij"))
    return (np.pi / grid.half_width) ** 2 * k2


def full_top_octave(grid: GridSpec) -> np.ndarray:
    """Mask of the full-spectrum modes with some |index| >= points/4."""
    hi = np.abs(np.fft.fftfreq(grid.points) * grid.points) >= grid.points // 4
    return np.logical_or.reduce(np.meshgrid(*([hi] * grid.dim), indexing="ij"))


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

    def test_boolean_dim_rejected(self):
        with pytest.raises(DomainError, match="dim must be 1, 2 or 3, got True"):
            GridSpec(dim=True, points=128, half_width=1.0)

    @pytest.mark.parametrize("points", [64.0, True])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(DomainError, match="points must be a power of two >= 64"):
            GridSpec(dim=1, points=points, half_width=1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_half_spectrum_grid(self, dim):
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        assert grid.mode_shape == (64,) * (dim - 1) + (33,)
        # the half grid is the full grid's last axis cut to k = 0 .. points/2
        want = full_xi_squared(grid)[..., :33].ravel()
        assert grid.nmodes == want.size
        assert np.array_equal(grid.xi_squared(), want)

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
        # ||f||_2^2 * (2L) = sum |modes|^2 / N over the full spectrum; the
        # half spectrum counts each mode off k = 0 and k = N/2 twice.
        energy = np.abs(sf.modes) ** 2
        full_sum = 2.0 * np.sum(energy) - energy[0] - energy[-1]
        real_sq = float(np.sum(f.values**2)) * GRID.cell_volume
        spec_sq = float(full_sum) / (GRID.points * GRID.cell_volume)
        assert real_sq == pytest.approx(spec_sq, rel=1e-10)

    def test_constant_field(self):
        f = Field(GRID, np.full(128, 2.5))
        sf = to_spectral(f)
        assert sf.modes[0] == pytest.approx(2.5 * 2.0 * GRID.half_width)
        assert np.max(np.abs(sf.modes[1:])) <= 1e-10

    def test_asymmetric_modes_rejected(self):
        modes = np.zeros(GRID.mode_shape, dtype=complex)
        modes[1] = 1.0  # its conjugate twin is implied: a real cosine
        assert np.max(np.abs(to_real(SpectralField(GRID, modes)).values)) > 0.0
        modes[0] = 1j  # the zero mode is its own twin, so must be real
        with pytest.raises(PreconditionError):
            to_real(SpectralField(GRID, modes))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("plane", [0, -1])
    def test_self_conjugate_planes_must_be_hermitian(self, dim, plane):
        # k = 0 and k = points/2 of the last axis hold their own twins; the
        # inverse transform would silently drop an anti-Hermitian part.
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        rng = np.random.default_rng(dim)
        sf = to_spectral(Field(grid, rng.standard_normal(grid.shape)))
        to_real(sf)  # a real field's own half spectrum passes
        scale = float(np.max(np.abs(sf.modes)))
        # the plane's own zero mode, and (dims 2-3) an entry off it whose
        # twin at index -3 is left unchanged
        indices = [(0,) * (dim - 1)] + [(3,) + (0,) * (dim - 2)] * (dim > 1)
        for index in indices:
            modes = sf.modes.copy()
            modes[index + (plane,)] += 1e-6j * scale
            with pytest.raises(PreconditionError):
                to_real(SpectralField(grid, modes))

    def test_mode_shape_enforced(self):
        with pytest.raises(PreconditionError):
            SpectralField(GRID, np.zeros(128, dtype=complex))

    @pytest.mark.parametrize("points", [256, 2048])
    def test_to_modes_rejects_samples_of_another_length(self, points):
        # rfftn(..., s=shape) would zero-pad 256 samples (a zero mode of
        # 25.0 for ones on a half-width-50 grid) or drop half of 2048.
        grid = GridSpec(1, 1024, 50.0)
        with pytest.raises(PreconditionError, match="trailing shape"):
            grid.to_modes(np.ones(points))
        with pytest.raises(PreconditionError, match="trailing shape"):
            grid.to_modes(np.ones((2, points)))

    def test_to_modes_checks_every_transformed_axis(self):
        grid = GridSpec(2, 64, 5.0)
        for shape in ((64,), (64, 32), (32, 64), (3, 64, 128)):
            with pytest.raises(PreconditionError, match="trailing shape"):
                grid.to_modes(np.ones(shape))
        assert grid.to_modes(np.ones((3, 64, 64))).shape == (3, grid.nmodes)

    def test_complex_values_rejected(self):
        # A float cast would keep 1.0 of 1 + 1j and only warn.
        grid = GridSpec(1, 64, 5.0)
        with pytest.raises(PreconditionError, match="field values must be real"):
            Field(grid, np.ones(64) * (1 + 1j))


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_full_spectrum(self, dim):
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        f = Field(grid, np.random.default_rng(20 + dim).standard_normal(grid.shape))
        for s in (0.3, 1.0):
            want = np.fft.ifftn(np.fft.fftn(f.values) * full_xi_squared(grid) ** s).real
            got = fractional_laplacian(f, s).values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
        assert spectral.tail_fractions(GRID, GRID.to_modes(f.values)).item() <= 1e-10

    def test_zero_field(self):
        assert spectral.tail_fractions(GRID, GRID.to_modes(np.zeros(128))).item() == 0.0

    def test_rough_field_flagged(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(128)
        assert spectral.tail_fractions(GRID, GRID.to_modes(values)).item() > 0.1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cached_mask_matches_direct_construction(self, dim):
        # Hermitian weights on the top octave of the full mask's half.
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        herm = np.full(grid.mode_shape, 2.0)
        herm[..., 0] = herm[..., -1] = 1.0
        mask = full_top_octave(grid)[..., : grid.points // 2 + 1]
        cached = grid.tail_weights
        assert grid.tail_weights is cached
        assert np.array_equal(cached, [(herm * mask).ravel(), herm.ravel()])
        assert not cached.flags.writeable

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_half_spectrum_fraction_matches_full(self, dim):
        # Hermitian weights on the half spectrum reproduce the full-spectrum
        # top-octave fraction of a real field.
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        rng = np.random.default_rng(10 + dim)
        for _ in range(2):  # the second call reads the cached weights
            values = rng.standard_normal(grid.shape)
            energy = np.abs(np.fft.fftn(values)) ** 2
            want = float(np.sum(energy[full_top_octave(grid)]) / np.sum(energy))
            tail = spectral.tail_fractions(grid, grid.to_modes(values)).item()
            assert tail == pytest.approx(want, rel=1e-13)
        zero = grid.to_modes(np.zeros(grid.shape))
        assert spectral.tail_fractions(grid, zero).item() == 0.0


class TestStacks:
    """Transforms, norms and tail fractions over a stack of fields."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_equal_their_own_fields(self, dim):
        grid = GridSpec(dim=dim, points=64, half_width=5.0)
        stack = np.random.default_rng(dim).standard_normal((3,) + grid.shape)
        modes = grid.to_modes(stack)
        values = grid.to_values(modes)
        tails = spectral.tail_fractions(grid, modes)
        qs = (1.0, 2.0, 4.0, 4.5, np.inf)
        norms = {q: spectral.lq_norms(grid, stack, q) for q in qs}
        weights = grid.tail_weights
        for i, v in enumerate(stack):
            assert np.array_equal(modes[i],
                                  (np.fft.rfftn(v) * grid.cell_volume).ravel())
            assert np.array_equal(values[i], grid.to_values(modes[i]))
            # Each row reduces exactly as the whole single field does.
            for q in qs:
                want = (np.max(np.abs(v)) if q == np.inf else
                        (np.sum(np.abs(v) ** q) * grid.cell_volume) ** (1.0 / q))
                assert norms[q][i] == want
            tail, total = weights @ (np.abs(modes[i]).ravel() ** 2)
            assert tails[i] == tail / total

    def test_zero_rows_have_no_tail(self):
        modes = np.zeros((2, GRID.points // 2 + 1), dtype=complex)
        modes[1, -1] = 1.0
        assert spectral.tail_fractions(GRID, modes).tolist() == [0.0, 1.0]


class TestAbsPow:
    """|x|^e by multiplication for e = 2, 3, 4, and the L^inf norm."""

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_within_two_ulp_of_the_exact_power(self, e):
        rng = np.random.default_rng(e)
        x = 10.0 ** rng.uniform(-323.5, 100.0, 1500)
        x = np.concatenate([x, [5e-324, 2.2250738585072014e-308, 1e-100, 1.0,
                                1e77, 1.1e77, 1e100]])
        x *= rng.choice([-1.0, 1.0], x.size)
        with np.errstate(over="ignore"):
            got = spectral.abs_pow(x, e)
        top = Fraction(np.finfo(float).max)
        for xi, gi in zip(x.tolist(), got.tolist()):
            exact = Fraction(abs(xi)) ** e
            if exact > top:
                assert gi == math.inf, xi
                continue
            ulp = Fraction(float(np.spacing(float(exact))))
            assert abs(Fraction(gi) - exact) <= 2 * ulp, xi

    @pytest.mark.parametrize("e", [2, 3, 4, 2.0, 3.0, np.float64(4.0)])
    def test_special_values(self, e):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, -2.0])
        with np.errstate(over="ignore"):
            got = spectral.abs_pow(x, e)
        assert got[:2].tolist() == [0.0, 0.0] and not np.signbit(got[:2]).any()
        assert got[2:4].tolist() == [math.inf, math.inf]
        assert math.isnan(got[4])
        assert got[5:7].tolist() == [math.inf, math.inf]  # overflow
        assert got[7] == 2.0**e

    @pytest.mark.parametrize("e", [2, 3, 4, 1.0, 1.5, 7.0 / 3.0, 4.5])
    def test_in_place(self, e):
        x = np.random.default_rng(3).standard_normal((3, 64)) * 10.0
        want = spectral.abs_pow(x, e)
        out = x.copy()
        assert spectral.abs_pow(out, e, out=out) is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("e", [1.0, 1.5, 7.0 / 3.0, 4.5, 5.0])
    def test_other_powers_are_numpy_powers(self, e):
        x = np.random.default_rng(4).standard_normal(4096) * 10.0
        assert np.array_equal(spectral.abs_pow(x, e), np.abs(x) ** e)

    def test_max_norm_equals_the_max_of_the_magnitudes(self):
        grid = GridSpec(dim=1, points=64, half_width=1.0)
        planted = [[], [-0.0], [-0.0] * 64, [0.0, -0.0], [-0.0, 0.0],
                   [np.nan, 1.0, -2.0], [-3.0, np.nan], [np.inf, -1.0],
                   [-np.inf, 2.0], [np.nan, np.inf], [-0.0, -5e-324],
                   [-3.0, 2.0], [1e308, -1.5e308]]
        rows = np.zeros((len(planted), 64))
        for row, values in zip(rows, planted):
            row[: len(values)] = values
        norms = spectral.lq_norms(grid, rows, np.inf)
        for got, row in zip(norms, rows):
            want = np.max(np.abs(row))
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert np.float64(got).view(np.uint64) == want.view(np.uint64), row[:2]


def power_sites(sources: dict[str, str]) -> list[str]:
    """`file:line` of every `np.abs(...) ** e` and every `**=` in `sources`
    ({file name: source}), outside the function `abs_pow` of spectral.py."""
    sites = []
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        home = set()
        if name == "spectral.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "abs_pow":
                    home.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if id(node) in home:
                continue
            pow_assign = isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow)
            abs_power = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                         and isinstance(node.left, ast.Call)
                         and ast.unparse(node.left.func) in ("np.abs", "np.absolute"))
            if pow_assign or abs_power:
                sites.append(f"{name}:{node.lineno}")
    return sites


def test_abs_pow_is_the_one_home_of_powers_of_magnitudes():
    paths = sorted(Path(fracsim.__file__).parent.glob("*.py"))
    assert len(paths) >= 10  # the scan found the package
    assert power_sites({path.name: path.read_text() for path in paths}) == []


def test_power_guard_flags_a_planted_copy():
    home = ("def abs_pow(values, e):\n"
            "    mag = np.abs(values)\n"
            "    mag **= e\n"
            "    return np.abs(values) ** e\n")
    assert power_sites({"spectral.py": home}) == []
    assert power_sites({"solver.py": home}) == ["solver.py:3", "solver.py:4"]
    copies = ("def store(rows, p):\n"
              "    for row in rows:\n"
              "        row **= p\n"
              "    return (np.abs(rows) ** p).sum()\n")
    assert power_sites({"spectral.py": copies}) == ["spectral.py:3", "spectral.py:4"]
    assert power_sites({"a.py": "y = abs(x) ** 2 + np.square(x)\n"}) == []


class TestDataAndIO:
    def test_indicator(self):
        f = indicator_field(GRID, 2.0, 1.0)
        assert set(np.unique(f.values)) <= {0.0, 2.0}
        assert np.all(f.values[GRID.radius_squared() > 1.0] == 0.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_indicator_radius_must_be_positive(self, radius):
        # NaN fails every comparison: `radius <= 0` alone passes it, and the
        # ball test then makes a field of zeros.
        with pytest.raises(DomainError, match="radius must be positive"):
            indicator_field(GRID, 1.0, radius)

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
    def test_gaussian_width_must_be_positive(self, width):
        # NaN fails every comparison: `width <= 0` alone passes it, and Field
        # then rejects the values instead of naming the width.
        with pytest.raises(DomainError, match="width must be positive"):
            gaussian_field(GRID, 1.0, width)
