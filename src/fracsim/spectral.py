"""Periodic pseudo-spectral representation of fields on [-L, L]^d.

Transforms use the continuum normalization: `to_spectral` returns
cell_volume * FFT(values), i.e. a Riemann-sum approximation of the Fourier
integral on the box, so the zero mode of a constant field c equals
c * (2L)^d. Wavenumbers along each axis are xi_k = pi k / L.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

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
    "restricted_lq_norm",
    "spectral_tail_fraction",
    "gaussian_field",
    "indicator_field",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L]^dim."""

    dim: int
    points: int
    half_width: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        p = self.points
        if p < 64 or (p & (p - 1)) != 0:
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
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis: x_i = -L + i*spacing."""
        return -self.half_width + self.spacing * np.arange(self.points)

    def xi_axis(self) -> np.ndarray:
        """FFT-ordered wavenumbers along one axis, xi_k = pi k / L."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)

    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the full FFT-ordered mode grid."""
        ax = self.xi_axis() ** 2
        if self.dim == 1:
            return ax
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return sum(grids)

    def radius_squared(self) -> np.ndarray:
        """|x|^2 on the sample grid."""
        ax = self.axis() ** 2
        if self.dim == 1:
            return ax
        grids = np.meshgrid(*([ax] * self.dim), indexing="ij")
        return sum(grids)


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
    """FFT-ordered modes of a real field (conjugate-symmetric)."""

    grid: GridSpec
    modes: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.modes, dtype=complex)
        object.__setattr__(self, "modes", m)
        if m.shape != self.grid.shape:
            raise PreconditionError(
                f"modes shape {m.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(m.view(float))):
            raise PreconditionError("modes must be finite")


def to_spectral(f: Field) -> SpectralField:
    return SpectralField(f.grid, np.fft.fftn(f.values) * f.grid.cell_volume)


def to_real(sf: SpectralField, symmetry_tol: float = 1e-10) -> Field:
    raw = np.fft.ifftn(sf.modes) / sf.grid.cell_volume
    scale = float(np.max(np.abs(raw))) or 1.0
    if float(np.max(np.abs(raw.imag))) > symmetry_tol * scale:
        raise PreconditionError(
            "modes are not conjugate-symmetric: inverse transform is not real"
        )
    return Field(sf.grid, raw.real)


def fractional_laplacian(f: Field, s: float) -> Field:
    """Spectral (-Laplace)^s via the multiplier |xi|^(2s); zero mode maps to 0."""
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must lie in (0, 1], got {s!r}")
    sf = to_spectral(f)
    mult = f.grid.xi_squared() ** s
    return to_real(SpectralField(f.grid, sf.modes * mult))


def _lq(values: np.ndarray, cell_volume: float, q: float) -> float:
    if not (q == np.inf or (q >= 1.0 and np.isfinite(q))):
        raise DomainError(f"q must satisfy q >= 1 or be inf, got {q!r}")
    if q == np.inf:
        return float(np.max(np.abs(values))) if values.size else 0.0
    return float((np.sum(np.abs(values) ** q) * cell_volume) ** (1.0 / q))


def lq_norm(f: Field, q: float) -> float:
    """L^q norm on the box; q = inf gives the max norm."""
    return _lq(f.values, f.grid.cell_volume, q)


def restricted_lq_norm(f: Field, q: float, r_min: float) -> float:
    """L^q norm of a field restricted to the exterior region |x| > r_min."""
    return _lq(f.values[f.grid.radius_squared() > r_min**2], f.grid.cell_volume, q)


@functools.lru_cache(maxsize=16)
def _top_octave_mask(grid: GridSpec) -> np.ndarray:
    """Read-only mask of the modes with some |index| >= points/4, per grid."""
    k = np.fft.fftfreq(grid.points) * grid.points  # integer mode index
    hi = np.abs(k) >= grid.points // 4
    mask = np.logical_or.reduce(np.meshgrid(*([hi] * grid.dim), indexing="ij"))
    mask.flags.writeable = False
    return mask


def spectral_tail_fraction(sf: SpectralField) -> float:
    """Fraction of spectral energy carried by the top octave of wavenumbers."""
    energy = np.abs(sf.modes) ** 2
    total = float(np.sum(energy))
    if total == 0.0:
        return 0.0
    return float(np.sum(energy[_top_octave_mask(sf.grid)])) / total


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


def save_field(f: Field, path: str | Path) -> None:
    """Raw little-endian float64 row-major dump plus a JSON sidecar."""
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    sidecar = {
        "dim": f.grid.dim,
        "points": f.grid.points,
        "half_width": f.grid.half_width,
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))


def load_field(path: str | Path) -> Field:
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    grid = GridSpec(meta["dim"], meta["points"], meta["half_width"])
    values = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(grid.shape)
    return Field(grid, values.copy())
