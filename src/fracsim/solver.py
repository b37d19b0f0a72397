"""Full-memory mild-solution integrator for the forced semilinear problem.

The per-mode mild solution is advanced on a (possibly graded) mesh by
Duhamel quadrature with exact history weights: on every cell the relaxation
kernel is integrated in closed form through differences of
x^a E_{a,a+1}(-lam x^a), while the nonlinearity is sampled piecewise
constant at left endpoints. The t^sigma forcing factor is integrated with
its endpoint singularities handled per cell (exact first-cell moment with
the kernel frozen at the sigma-weighted centroid; Gauss-Jacobi on the
kernel-singular last cell in the "accurate" scheme).

`picard_solve` provides an independent fixed-point oracle: it iterates the
same Duhamel map but samples the nonlinearity by the cell-trapezoid rule,
which makes the map implicit and genuinely distinct from `integrate`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .errors import (
    DomainError,
    NonContractionError,
    PreconditionError,
    ResolutionWarning,
)
from .spectral import Field, GridSpec, to_real, to_spectral, SpectralField
from .special import ml_neg_fast

__all__ = [
    "ModelParams",
    "TimeMesh",
    "ClassifyThresholds",
    "SimResult",
    "PicardResult",
    "duhamel_weights",
    "integrate",
    "picard_solve",
    "classify",
    "estimate_decay_exponent",
]

GLOBAL = "Global"
BLOWUP = "BlowUp"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ModelParams:
    """Model exponents: time order, space order, forcing growth and power."""

    alpha: float
    s: float
    sigma: float
    p: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if not (0.0 < self.s <= 1.0):
            raise DomainError(f"s must lie in (0, 1], got {self.s!r}")
        if not (-1.0 < self.sigma <= 0.0):
            raise DomainError(f"sigma must lie in (-1, 0], got {self.sigma!r}")
        if not (self.p > 1.0):
            raise DomainError(f"p must exceed 1, got {self.p!r}")
        if self.dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {self.dim!r}")

    @property
    def outside_theorem_range(self) -> bool:
        """True when sigma <= -alpha (existence theory does not apply)."""
        return self.sigma <= -self.alpha


@dataclass(frozen=True)
class TimeMesh:
    """Graded mesh t_j = T (j/M)^g on [0, T]."""

    nodes: np.ndarray
    grading: float

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise PreconditionError("mesh needs at least three nodes")
        if nodes[0] != 0.0 or not np.all(np.diff(nodes) > 0.0):
            raise PreconditionError("mesh must increase strictly from 0")

    @classmethod
    def make(cls, t_end: float, steps: int, grading: float = 2.0) -> "TimeMesh":
        if not (t_end > 0.0) or steps < 2:
            raise DomainError("need t_end > 0 and steps >= 2")
        if grading < 1.0:
            raise DomainError("grading must be >= 1")
        j = np.arange(steps + 1, dtype=float)
        return cls(t_end * (j / steps) ** grading, grading)

    @property
    def steps(self) -> int:
        return self.nodes.size - 1

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])


@dataclass(frozen=True)
class ClassifyThresholds:
    """Blow-up triggers and the decay criterion used to label a run."""

    u_max: float = 1e8
    ratio_max: float = 10.0
    t_end: float = 50.0
    beta: float = 0.0
    monotone_slack: float = 0.01


@dataclass
class SimResult:
    params: ModelParams
    q_report: float
    t_nodes: np.ndarray
    lq_history: np.ndarray
    linf_history: np.ndarray
    classification: str
    blowup_time_est: float | None
    decay_exponent: float | None
    decay_r_squared: float | None
    tail_fraction_max: float
    final_field: Field | None
    notes: list[str] = field(default_factory=list)


@dataclass
class PicardResult:
    t_nodes: np.ndarray
    lq_history: np.ndarray
    linf_history: np.ndarray
    iterations: int
    contraction_factor: float
    final_field: Field


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------


def _cell_weights(params: ModelParams, t_hist: np.ndarray, t_now: float,
                  lam_u: np.ndarray) -> np.ndarray:
    """Exact kernel cell integrals W[j, lam] = int_{t_j}^{t_{j+1}} Y(t_now - tau) dtau.

    Uses x^a E_{a,a+1}(-lam x^a) evaluated at cell ends; the telescoped sum
    over all cells is exactly t^a E_{a,a+1}(-lam t^a).
    """
    a = params.alpha
    d = t_now - t_hist  # decreasing, last entry may be 0
    da = d**a
    e = da[:, None] * ml_neg_fast(a, a + 1.0, da[:, None] * lam_u[None, :])
    return e[:-1] - e[1:]


def duhamel_weights(params: ModelParams, mesh: TimeMesh, xi_sq) -> np.ndarray:
    """History weight table W[n, j, k] for nodes n = 1..M, cells j < n.

    Entries with j >= n are zero. `xi_sq` is an array of squared wavenumbers.
    """
    lam = np.atleast_1d(np.asarray(xi_sq, dtype=float)) ** params.s
    t = mesh.nodes
    m = mesh.steps
    out = np.zeros((m + 1, m, lam.size))
    for n in range(1, m + 1):
        out[n, :n, :] = _cell_weights(params, t[: n + 1], t[n], lam)
    return out


_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)


def _forcing_weights(params: ModelParams, t_hist: np.ndarray, t_now: float,
                     lam_u: np.ndarray, w_cells: np.ndarray,
                     scheme: str) -> np.ndarray:
    """S[lam] ~= int_0^{t_now} tau^sigma Y(t_now - tau; lam) dtau on the mesh cells."""
    a, sig = params.alpha, params.sigma
    n = t_hist.size - 1  # number of cells
    if sig == 0.0:
        return np.sum(w_cells, axis=0)
    t1 = t_hist[1]
    if n == 1:
        # Single cell with both endpoint singularities: Gauss-Jacobi with
        # weight (1-x)^(a-1) (1+x)^sigma after mapping tau = t1 (x+1)/2.
        x, wq = _sp.roots_jacobi(12, a - 1.0, sig)
        psi = (t1 * (1.0 - x) / 2.0) ** a
        vals = ml_neg_fast(a, a, np.outer(psi, lam_u))
        return (t1 / 2.0) ** (sig + a) * (wq @ vals)
    # First cell: exact integral of tau^sigma with the kernel frozen at the
    # sigma-weighted centroid (kills the linear term of the kernel expansion).
    tau_bar = t1 * (sig + 1.0) / (sig + 2.0)
    psi0 = t_now - tau_bar
    y_first = (
        psi0 ** (a - 1.0)
        * ml_neg_fast(a, a, lam_u * psi0**a)
        * t1 ** (sig + 1.0)
        / (sig + 1.0)
    )
    if scheme == "fast":
        mids = 0.5 * (t_hist[1:n] + t_hist[2 : n + 1])
        s = y_first + (mids**sig) @ w_cells[1:n]
        return s
    if scheme != "accurate":
        raise DomainError(f"unknown forcing scheme {scheme!r}")
    s = y_first
    if n >= 3:
        # Interior cells: 4-point Gauss-Legendre on the smooth integrand.
        lo = t_hist[1 : n - 1]
        hi = t_hist[2:n]
        h = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        tau = mid[:, None] + h[:, None] * _GL4_X[None, :]  # (cells, 4)
        psi = t_now - tau
        pref = (h[:, None] * _GL4_W[None, :]) * tau**sig * psi ** (a - 1.0)
        e = ml_neg_fast(a, a, (psi.ravel() ** a)[:, None] * lam_u[None, :])
        s = s + pref.ravel() @ e
    # Last cell: substitute psi = h v^(1/a), which absorbs the psi^(a-1)
    # weight exactly and leaves the kernel analytic in v (the kernel is a
    # function of psi^a = h^a v, so no fractional powers survive).
    h_last = t_now - t_hist[n - 1]
    v = 0.5 * (_GL8_X + 1.0)
    psi = h_last * v ** (1.0 / a)
    tau = t_now - psi
    vals = ml_neg_fast(a, a, np.outer(h_last**a * v, lam_u))
    s = s + (h_last**a / (2.0 * a)) * ((_GL8_W * tau**sig) @ vals)
    return s


# --------------------------------------------------------------------------
# integrator
# --------------------------------------------------------------------------


def _mode_setup(params: ModelParams, grid: GridSpec):
    lam = grid.xi_squared().ravel() ** params.s
    lam_u, inv = np.unique(lam, return_inverse=True)
    return lam_u, inv


def _tail_fraction_from_modes(grid: GridSpec, modes_flat: np.ndarray) -> float:
    energy = np.abs(modes_flat.reshape(grid.shape)) ** 2
    total = float(np.sum(energy))
    if total == 0.0:
        return 0.0
    k = np.fft.fftfreq(grid.points) * grid.points
    hi = np.abs(k) >= grid.points // 4
    if grid.dim == 1:
        mask = hi
    else:
        grids = np.meshgrid(*([hi] * grid.dim), indexing="ij")
        mask = np.logical_or.reduce(grids)
    return float(np.sum(energy[mask])) / total


def _lq_of_values(grid: GridSpec, values: np.ndarray, q: float) -> float:
    if q == np.inf:
        return float(np.max(np.abs(values)))
    return float((np.sum(np.abs(values) ** q) * grid.cell_volume) ** (1.0 / q))


def integrate(
    params: ModelParams,
    grid: GridSpec,
    u0: Field | None,
    w: Field | None,
    mesh: TimeMesh,
    q_report: float = np.inf,
    thresholds: ClassifyThresholds | None = None,
    nonlinearity: bool = True,
    forcing_scheme: str = "fast",
    tail_threshold: float = 1e-6,
) -> SimResult:
    """March the mild solution across the mesh; halt on blow-up triggers."""
    if grid.dim != params.dim:
        raise PreconditionError("grid dimension does not match model dimension")
    thr = thresholds or ClassifyThresholds(t_end=mesh.t_end)
    a, p = params.alpha, params.p
    t = mesh.nodes
    m = mesh.steps
    lam_u, inv = _mode_setup(params, grid)
    nmodes = inv.size

    u0_modes = to_spectral(u0).modes.ravel() if u0 is not None else None
    w_modes = to_spectral(w).modes.ravel() if w is not None else None
    shape = grid.shape

    nl_hist = np.zeros((m + 1, nmodes), dtype=complex) if nonlinearity else None
    if nonlinearity:
        # History-contraction buffers, sized for the last step and reused by
        # every step instead of allocating two growing temporaries per step.
        w_full = np.empty((m, nmodes))
        prod = np.empty((m, nmodes), dtype=complex)
    if u0 is not None:
        u_prev = u0.values
    else:
        u_prev = np.zeros(shape)
    if nonlinearity:
        nl_hist[0] = np.fft.fftn(np.abs(u_prev) ** p).ravel() * grid.cell_volume

    lq = [_lq_of_values(grid, u_prev, q_report)]
    linf = [float(np.max(np.abs(u_prev)))]
    tail_max = 0.0
    trigger_time: float | None = None
    notes: list[str] = []
    last_values = u_prev
    n_reached = 0

    for n in range(1, m + 1):
        t_n = t[n]
        w_cells = _cell_weights(params, t[: n + 1], t_n, lam_u)
        modes_n = np.zeros(nmodes, dtype=complex)
        if u0_modes is not None:
            z_u = ml_neg_fast(a, 1.0, lam_u * t_n**a)
            modes_n += z_u[inv] * u0_modes
        if nonlinearity:
            np.take(w_cells, inv, axis=1, out=w_full[:n])
            np.multiply(w_full[:n], nl_hist[:n], out=prod[:n])
            modes_n += prod[:n].sum(axis=0)
        if w_modes is not None:
            s_u = _forcing_weights(params, t[: n + 1], t_n, lam_u, w_cells,
                                   forcing_scheme)
            modes_n += s_u[inv] * w_modes

        values = np.fft.ifftn(modes_n.reshape(shape) / grid.cell_volume).real
        n_reached = n
        last_values = values

        if not np.all(np.isfinite(values)):
            trigger_time = t_n
            notes.append(f"non-finite values at t={t_n:.6g}")
            lq.append(np.inf)
            linf.append(np.inf)
            break
        cur_linf = float(np.max(np.abs(values)))
        lq.append(_lq_of_values(grid, values, q_report))
        linf.append(cur_linf)
        tail_max = max(tail_max, _tail_fraction_from_modes(grid, modes_n))
        if cur_linf > thr.u_max:
            trigger_time = t_n
            notes.append(f"amplitude threshold exceeded at t={t_n:.6g}")
            break
        prev_linf = linf[-2]
        if prev_linf > 1e-6 and cur_linf > thr.ratio_max * prev_linf:
            trigger_time = t_n
            notes.append(f"per-step growth ratio exceeded at t={t_n:.6g}")
            break
        if nonlinearity:
            nl_hist[n] = np.fft.fftn(np.abs(values) ** p).ravel() * grid.cell_volume

    if tail_max > tail_threshold:
        notes.append(
            f"top-octave spectral energy fraction reached {tail_max:.2e}"
        )
        warnings.warn(
            f"spectral tail monitor: top-octave fraction {tail_max:.2e}",
            ResolutionWarning,
            stacklevel=2,
        )

    t_hist = t[: n_reached + 1]
    lq_arr = np.asarray(lq)
    linf_arr = np.asarray(linf)
    classification, blowup_est = classify(
        t_hist, lq_arr, linf_arr, thr, triggered_at=trigger_time,
        reached_end=(trigger_time is None and n_reached == m),
    )
    decay_exp = decay_r2 = None
    if classification == GLOBAL:
        sel = t_hist >= 0.75 * t_hist[-1]
        if np.count_nonzero(sel & (lq_arr > 0.0)) >= 10:
            decay_exp, decay_r2 = estimate_decay_exponent(
                t_hist[sel], lq_arr[sel]
            )
    final = Field(grid, last_values) if np.all(np.isfinite(last_values)) else None
    return SimResult(
        params=params,
        q_report=q_report,
        t_nodes=t_hist,
        lq_history=lq_arr,
        linf_history=linf_arr,
        classification=classification,
        blowup_time_est=blowup_est,
        decay_exponent=decay_exp,
        decay_r_squared=decay_r2,
        tail_fraction_max=tail_max,
        final_field=final,
        notes=notes,
    )


def classify(
    t_nodes: np.ndarray,
    lq_history: np.ndarray,
    linf_history: np.ndarray,
    thresholds: ClassifyThresholds,
    triggered_at: float | None = None,
    reached_end: bool = False,
) -> tuple[str, float | None]:
    """Label a run Global / BlowUp / Undetermined.

    BlowUp requires a trigger (threshold, growth ratio or non-finite values);
    Global requires reaching t_end with t^beta * ||u||_q nonincreasing (within
    a small relative slack) over the last quarter of the run.
    """
    if triggered_at is not None:
        return BLOWUP, float(triggered_at)
    if not np.all(np.isfinite(linf_history)):
        return BLOWUP, float(t_nodes[-1])
    if float(np.max(linf_history)) > thresholds.u_max:
        return BLOWUP, float(t_nodes[np.argmax(linf_history > thresholds.u_max)])
    if not reached_end or t_nodes[-1] < thresholds.t_end * (1.0 - 1e-9):
        return UNDETERMINED, None
    sel = t_nodes >= 0.75 * t_nodes[-1]
    tb = t_nodes[sel] ** thresholds.beta * lq_history[sel]
    if tb.size >= 3:
        rising = tb[1:] > tb[:-1] * (1.0 + thresholds.monotone_slack)
        if np.any(rising):
            return UNDETERMINED, None
    return GLOBAL, None


def estimate_decay_exponent(
    t_nodes: np.ndarray, norms: np.ndarray
) -> tuple[float, float]:
    """Least-squares slope and R^2 of log ||u|| against log t."""
    t_nodes = np.asarray(t_nodes, dtype=float)
    norms = np.asarray(norms, dtype=float)
    good = (t_nodes > 0.0) & (norms > 0.0) & np.isfinite(norms)
    if np.count_nonzero(good) < 10:
        raise PreconditionError("need at least 10 positive samples for the fit")
    x = np.log(t_nodes[good])
    y = np.log(norms[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(r2)


# --------------------------------------------------------------------------
# fixed-point oracle
# --------------------------------------------------------------------------


def picard_solve(
    params: ModelParams,
    grid: GridSpec,
    u0: Field | None,
    w: Field | None,
    mesh: TimeMesh,
    q_report: float = np.inf,
    tol: float = 1e-10,
    max_iter: int = 200,
    forcing_scheme: str = "fast",
) -> PicardResult:
    """Fixed-point iteration of the Duhamel map with trapezoid nonlinearity.

    The nonlinear history term uses the cell-trapezoid sample
    (N_j + N_{j+1})/2 against exact kernel cell weights, which makes the map
    implicit; iteration proceeds from the zero-nonlinearity solution.
    Raises NonContractionError if the sup-norm update fails to contract.
    """
    if grid.dim != params.dim:
        raise PreconditionError("grid dimension does not match model dimension")
    a, p = params.alpha, params.p
    t = mesh.nodes
    m = mesh.steps
    lam_u, inv = _mode_setup(params, grid)
    shape = grid.shape

    w_tables = [None] + [
        _cell_weights(params, t[: n + 1], t[n], lam_u) for n in range(1, m + 1)
    ]
    lin_modes = np.zeros((m + 1, inv.size), dtype=complex)
    if u0 is not None:
        u0_modes = to_spectral(u0).modes.ravel()
        for n in range(1, m + 1):
            lin_modes[n] += ml_neg_fast(a, 1.0, lam_u * t[n] ** a)[inv] * u0_modes
        lin_modes[0] += u0_modes
    if w is not None:
        w_modes = to_spectral(w).modes.ravel()
        for n in range(1, m + 1):
            s_u = _forcing_weights(params, t[: n + 1], t[n], lam_u,
                                   w_tables[n], forcing_scheme)
            lin_modes[n] += s_u[inv] * w_modes

    def to_values(modes_flat: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(modes_flat.reshape(shape) / grid.cell_volume).real

    hist = np.array([to_values(lin_modes[n]) for n in range(m + 1)])
    prev_diff = None
    factors: list[float] = []
    growth_streak = 0
    for it in range(1, max_iter + 1):
        nl = np.stack(
            [np.fft.fftn(np.abs(hist[j]) ** p).ravel() * grid.cell_volume
             for j in range(m + 1)]
        )
        new_hist = hist.copy()
        for n in range(1, m + 1):
            wf = w_tables[n][:, inv]
            contrib = np.sum(wf * 0.5 * (nl[:n] + nl[1 : n + 1]), axis=0)
            new_hist[n] = to_values(lin_modes[n] + contrib)
        diff = float(np.max(np.abs(new_hist - hist)))
        hist = new_hist
        if not math.isfinite(diff):
            raise NonContractionError("Picard iterate diverged to non-finite values")
        if prev_diff is not None and prev_diff > 0.0:
            ratio = diff / prev_diff
            factors.append(ratio)
            growth_streak = growth_streak + 1 if ratio >= 1.0 else 0
            if growth_streak >= 5:
                raise NonContractionError(
                    f"no contraction: update ratio {ratio:.3g} after {it} iterations"
                )
        if diff <= tol:
            break
        prev_diff = diff
    else:
        raise NonContractionError(f"no convergence within {max_iter} iterations")

    lq_hist = np.array([_lq_of_values(grid, hist[n], q_report) for n in range(m + 1)])
    linf_hist = np.array([float(np.max(np.abs(hist[n]))) for n in range(m + 1)])
    contraction = float(np.median(factors)) if factors else 0.0
    return PicardResult(
        t_nodes=t.copy(),
        lq_history=lq_hist,
        linf_history=linf_hist,
        iterations=it,
        contraction_factor=contraction,
        final_field=Field(grid, hist[-1]),
    )
