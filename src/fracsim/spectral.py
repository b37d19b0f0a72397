"""Periodic pseudo-spectral representation of real fields on [-L, L]^d.

Every operator multiplies the modes of a real field by a real symbol of |xi|,
so modes are the half spectrum `GridSpec.to_modes` = cell_volume *
rfftn(values) (shape `mode_shape`: the last axis keeps k = 0 .. points/2), in
the continuum normalization: the zero mode of a constant c is c * (2L)^d. A
mode off the last-axis planes k = 0 and k = points/2 stands for itself and its
conjugate twin. Wavenumbers along each axis are xi_k = pi k / L.

`to_modes` and `to_values` transform the trailing `dim` axes, so a stack of
fields transforms in one call; `lq_norms` and `tail_fractions` are the
row-wise cores of `lq_norm` and `spectral_tail_fraction`.  Each row is
reduced exactly as its own field would be, so a stacked row's norm equals
the single field's bit for bit.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError

__all__ = [
    "GridSpec",
    "Field",
    "SpectralField",
    "to_spectral",
    "to_real",
    "fractional_laplacian",
    "lq_norm",
    "lq_norms",
    "restricted_lq_norm",
    "spectral_tail_fraction",
    "tail_fractions",
    "gaussian_field",
    "indicator_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L]^dim."""

    dim: int
    points: int
    half_width: float

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or self.dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        p = self.points
        if not isinstance(p, numbers.Integral) or p < 64 or (p & (p - 1)) != 0:
            raise DomainError(f"points must be a power of two >= 64, got {p!r}")
        if not (self.half_width > 0.0 and np.isfinite(self.half_width)):
            raise DomainError(f"half_width must be positive, got {self.half_width!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def mode_shape(self) -> tuple[int, ...]:
        """Shape of the half spectrum: the last axis keeps k = 0 .. points/2."""
        return (self.points,) * (self.dim - 1) + (self.points // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def _axes(self) -> tuple[int, ...]:
        """The trailing `dim` axes, which the transforms act on."""
        return tuple(range(-self.dim, 0))

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum modes cell_volume * rfftn(values) of real samples,
        over the trailing `dim` axes."""
        return np.fft.rfftn(values, s=self.shape, axes=self._axes) * self.cell_volume

    def to_values(self, modes: np.ndarray) -> np.ndarray:
        """Real samples of half-spectrum modes, over the trailing `dim`
        axes; inverse of `to_modes`."""
        return np.fft.irfftn(modes / self.cell_volume, s=self.shape,
                             axes=self._axes)

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis: x_i = -L + i*spacing."""
        return -self.half_width + self.spacing * np.arange(self.points)

    def xi_squared(self) -> np.ndarray:
        """|xi|^2 = (pi/L)^2 |k|^2 on the half-spectrum mode grid
        (`mode_shape`), xi_k = pi k / L.  |k|^2 is summed in integers, so
        modes with equal |k|^2 get the same |xi|^2."""
        k = np.arange(self.points)
        k = np.minimum(k, self.points - k)  # |k| in FFT order
        return (np.pi / self.half_width) ** 2 * self._on_modes(k * k)

    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the sample grid."""
        return sum(np.meshgrid(*[self.axis() ** 2] * self.dim, indexing="ij"))

    def _on_modes(self, per_axis: np.ndarray) -> np.ndarray:
        """Sum over the axes of an FFT-ordered, k-even `per_axis` on the half grid."""
        axes = [per_axis] * (self.dim - 1) + [per_axis[: self.points // 2 + 1]]
        return sum(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class Field:
    """Real-space samples of a real field."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != self.grid.shape:
            raise PreconditionError(
                f"values shape {v.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise PreconditionError("field values must be finite")


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum modes of a real field, shaped `grid.mode_shape`."""

    grid: GridSpec
    modes: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.modes, dtype=complex)
        object.__setattr__(self, "modes", m)
        if m.shape != self.grid.mode_shape:
            raise PreconditionError(
                f"modes shape {m.shape} does not match grid {self.grid.mode_shape}"
            )
        if not np.all(np.isfinite(m.view(float))):
            raise PreconditionError("modes must be finite")


# Largest anti-Hermitian part of the self-conjugate planes that `to_real`
# accepts, relative to the largest mode: rounding only.
_SYMMETRY_TOL = 1e-10


def to_spectral(f: Field) -> SpectralField:
    return SpectralField(f.grid, f.grid.to_modes(f.values))


def to_real(sf: SpectralField) -> Field:
    """The real field of a half spectrum.

    The planes k = 0 and k = points/2 hold their own twins: irfftn would
    silently drop their anti-Hermitian part, so beyond rounding it raises.
    """
    grid = sf.grid
    planes = sf.modes[..., [0, -1]]
    flip = -np.arange(grid.points) % grid.points  # index of -k along an axis
    twins = planes[np.ix_(*[flip] * (grid.dim - 1))].conj()
    anti_hermitian = np.max(np.abs(planes - twins))
    if anti_hermitian > _SYMMETRY_TOL * np.max(np.abs(sf.modes)):
        raise PreconditionError(
            "modes are not conjugate-symmetric: inverse transform is not real"
        )
    return Field(grid, grid.to_values(sf.modes))


def fractional_laplacian(f: Field, s: float) -> Field:
    """Spectral (-Laplace)^s via the multiplier |xi|^(2s); zero mode maps to 0."""
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    modes = to_spectral(f).modes * f.grid.xi_squared() ** s
    return to_real(SpectralField(f.grid, modes))


def _lq_rows(rows: np.ndarray, cell_volume: float, q: float) -> np.ndarray:
    """L^q norm of each row of the 2-D array `rows`; q = inf gives the max."""
    if not (q == np.inf or (q >= 1.0 and np.isfinite(q))):
        raise DomainError(f"q must satisfy q >= 1 or be inf, got {q!r}")
    if rows.shape[1] == 0:
        return np.zeros(rows.shape[0])
    if q == np.inf:
        return np.abs(rows).max(axis=1)
    sums = (np.abs(rows) ** q).sum(axis=1) * cell_volume
    # The root per element, as a scalar: an array power may take another
    # path (sqrt at q = 2) and round differently.
    return np.array([s ** (1.0 / q) for s in sums])


def lq_norms(grid: GridSpec, values: np.ndarray, q: float) -> np.ndarray:
    """L^q norm of each field in a stack of samples, shape (..., *grid.shape)."""
    return _lq_rows(values.reshape(-1, grid.points**grid.dim), grid.cell_volume, q)


def lq_norm(f: Field, q: float) -> float:
    """L^q norm on the box; q = inf gives the max norm."""
    return float(lq_norms(f.grid, f.values, q)[0])


def restricted_lq_norm(f: Field, q: float, r_min: float) -> float:
    """L^q norm of a field restricted to the exterior region |x| > r_min."""
    if not r_min >= 0.0:
        raise DomainError(f"r_min must be >= 0, got {r_min!r}")
    outside = f.values[f.grid.radius_squared() > r_min**2]
    return float(_lq_rows(outside[None], f.grid.cell_volume, q)[0])


@functools.lru_cache(maxsize=16)
def _tail_weights(grid: GridSpec) -> np.ndarray:
    """Read-only rows (top octave, all) of Hermitian energy weights per mode.

    The top octave is the modes with some |index| >= points/4; a mode off
    the self-conjugate planes k = 0 and k = points/2 weighs 2 for its twin.
    """
    k = np.arange(grid.points)
    top = grid._on_modes(np.minimum(k, grid.points - k) >= grid.points // 4) > 0
    herm = np.full(grid.mode_shape, 2.0)
    herm[..., 0] = herm[..., -1] = 1.0
    rows = np.stack([herm * top, herm]).reshape(2, -1)
    rows.flags.writeable = False
    return rows


def tail_fractions(grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Top-octave fraction of the spectral energy of each field in a stack
    of half spectra, shape (..., *grid.mode_shape) or (..., modes)."""
    weights = _tail_weights(grid)
    energy = np.abs(modes).reshape(-1, weights.shape[1]) ** 2
    # One matrix-vector product per row: a matrix product sums in another
    # order.
    sums = np.array([weights @ row for row in energy]).reshape(-1, 2)
    tail, total = sums[:, 0], sums[:, 1]
    return np.divide(tail, total, out=np.zeros_like(tail), where=total != 0.0)


def spectral_tail_fraction(sf: SpectralField) -> float:
    """Fraction of spectral energy carried by the top octave of wavenumbers."""
    return float(tail_fractions(sf.grid, sf.modes)[0])


def gaussian_field(grid: GridSpec, amplitude: float, width: float) -> Field:
    """amplitude * exp(-|x|^2 / width^2), centered at the origin."""
    if width <= 0.0:
        raise DomainError("width must be positive")
    return Field(grid, amplitude * np.exp(-grid.radius_squared() / width**2))


def indicator_field(grid: GridSpec, amplitude: float, radius: float) -> Field:
    """amplitude on the ball |x| <= radius, zero outside."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    return Field(grid, amplitude * (grid.radius_squared() <= radius**2))
