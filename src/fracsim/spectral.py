"""Periodic pseudo-spectral representation of real fields on [-L, L]^d.

Every operator multiplies the modes of a real field by a real symbol of |xi|,
so modes are the half spectrum cell_volume * rfftn(values), last axis cut to
k = 0 .. points/2, in the continuum normalization: the zero mode of a constant
c is c * (2L)^d. A mode off the last-axis planes k = 0 and k = points/2 stands
for itself and its conjugate twin. Wavenumbers along each axis are xi_k = pi k / L.

`GridSpec` owns the one mode layout, the flat half spectrum (..., nmodes). The
march reads modes only through its `shape`, `nmodes`, `to_modes`, `to_values`,
`xi_squared()` and `tail_weights`. `SpectralField` is the shaped view
(`mode_shape`): only `to_spectral` and `to_real` reshape.

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

from .errors import DomainError, PreconditionError, check_dim, check_order, check_q

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
        check_dim(self.dim)
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
        """`SpectralField`'s shape: the last axis keeps k = 0 .. points/2."""
        return (self.points,) * (self.dim - 1) + (self.points // 2 + 1,)

    @property
    def nmodes(self) -> int:
        """Length of the flat half spectrum: the last axis of `to_modes`."""
        return self.points ** (self.dim - 1) * (self.points // 2 + 1)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def _axes(self) -> tuple[int, ...]:
        """The trailing `dim` axes, which the transforms act on."""
        return tuple(range(-self.dim, 0))

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Flat half-spectrum modes cell_volume * rfftn(values), shape
        (..., nmodes), of real samples over the trailing `dim` axes.

        Those axes must be the grid's `shape`: rfftn would zero-pad or
        truncate samples of another length without a word."""
        trailing = np.shape(values)[-self.dim :]
        if trailing != self.shape:
            raise PreconditionError(
                f"values' trailing shape {trailing} does not match grid {self.shape}")
        modes = np.fft.rfftn(values, s=self.shape, axes=self._axes) * self.cell_volume
        return modes.reshape(modes.shape[: modes.ndim - self.dim] + (self.nmodes,))

    def to_values(self, modes: np.ndarray) -> np.ndarray:
        """Real samples of flat half-spectrum modes, shape (..., nmodes);
        inverse of `to_modes`."""
        modes = modes.reshape(modes.shape[:-1] + self.mode_shape)
        return np.fft.irfftn(modes / self.cell_volume, s=self.shape,
                             axes=self._axes)

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis: x_i = -L + i*spacing."""
        return -self.half_width + self.spacing * np.arange(self.points)

    def xi_squared(self) -> np.ndarray:
        """|xi|^2 = (pi/L)^2 |k|^2 on the flat half spectrum, shape
        (nmodes,), xi_k = pi k / L.  |k|^2 is summed in integers, so modes
        with equal |k|^2 get the same |xi|^2."""
        k = np.arange(self.points)
        k = np.minimum(k, self.points - k)  # |k| in FFT order
        return (np.pi / self.half_width) ** 2 * self._on_modes(k * k)

    @functools.cached_property
    def tail_weights(self) -> np.ndarray:
        """Read-only (2, nmodes) rows (top octave, all) of Hermitian energy
        weights: the top octave is the modes with some |index| >= points/4,
        and a mode off the planes k = 0 and k = points/2 weighs 2 for its twin."""
        k = np.arange(self.points)
        top = self._on_modes(np.minimum(k, self.points - k) >= self.points // 4) > 0
        herm = np.full(self.mode_shape, 2.0)
        herm[..., 0] = herm[..., -1] = 1.0
        rows = np.stack([herm.ravel() * top, herm.ravel()])
        rows.flags.writeable = False
        return rows

    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the sample grid."""
        return sum(np.meshgrid(*[self.axis() ** 2] * self.dim, indexing="ij"))

    def _on_modes(self, per_axis: np.ndarray) -> np.ndarray:
        """Flat half-spectrum sum over the axes of an FFT-ordered, k-even `per_axis`."""
        axes = [per_axis] * (self.dim - 1) + [per_axis[: self.points // 2 + 1]]
        return sum(np.meshgrid(*axes, indexing="ij")).ravel()


@dataclass(frozen=True)
class Field:
    """Real-space samples of a real field."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise PreconditionError("field values must be real")
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
    return SpectralField(f.grid, f.grid.to_modes(f.values).reshape(f.grid.mode_shape))


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
    return Field(grid, grid.to_values(sf.modes.ravel()))


def fractional_laplacian(f: Field, s: float) -> Field:
    """Spectral (-Laplace)^s via the multiplier |xi|^(2s); zero mode maps to 0."""
    check_order(s=s)
    grid = f.grid
    return Field(grid, grid.to_values(grid.to_modes(f.values) * grid.xi_squared() ** s))


def _lq_rows(rows: np.ndarray, cell_volume: float, q: float) -> np.ndarray:
    """L^q norm of each row of the 2-D array `rows`; q = inf gives the max."""
    check_q(q)
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


def tail_fractions(grid: GridSpec, modes: np.ndarray) -> np.ndarray:
    """Top-octave fraction of the spectral energy of each field in a stack
    of flat half spectra, shape (..., grid.nmodes)."""
    weights = grid.tail_weights
    energy = np.abs(modes).reshape(-1, grid.nmodes) ** 2
    # One matrix-vector product per row: a matrix product sums in another
    # order.
    sums = np.array([weights @ row for row in energy]).reshape(-1, 2)
    tail, total = sums[:, 0], sums[:, 1]
    return np.divide(tail, total, out=np.zeros_like(tail), where=total != 0.0)


def spectral_tail_fraction(sf: SpectralField) -> float:
    """Fraction of spectral energy carried by the top octave of wavenumbers."""
    return float(tail_fractions(sf.grid, sf.modes.ravel())[0])


def gaussian_field(grid: GridSpec, amplitude: float, width: float) -> Field:
    """amplitude * exp(-|x|^2 / width^2), centered at the origin."""
    if not width > 0.0:
        raise DomainError(f"width must be positive, got {width!r}")
    return Field(grid, amplitude * np.exp(-grid.radius_squared() / width**2))


def indicator_field(grid: GridSpec, amplitude: float, radius: float) -> Field:
    """amplitude on the ball |x| <= radius, zero outside."""
    if not radius > 0.0:
        raise DomainError(f"radius must be positive, got {radius!r}")
    return Field(grid, amplitude * (grid.radius_squared() <= radius**2))
