"""Full-memory mild-solution integrator for the forced semilinear problem.

The per-mode mild solution is advanced on a (possibly graded) mesh by
Duhamel quadrature with exact history weights: on every cell the relaxation
kernel is integrated in closed form through differences of
x^a E_{a,a+1}(-lam x^a), while the nonlinearity is sampled piecewise
constant at left endpoints. The forcing-only term S_w(t) of the t^sigma
forcing has the closed form Gamma(sigma+1) t^(sigma+a) E_{a,a+sigma+1}(-lam t^a)
per mode, which the "accurate" scheme evaluates exactly; the default "fast"
scheme integrates it on the mesh cells (exact first-cell moment with the
kernel frozen at the sigma-weighted centroid, midpoint samples of t^sigma
against the cell weights elsewhere).

`LinearPlan` owns this p-independent linear part (the eigenvalue map, the
cell weights, the forcing rules and Z(t)u0); `integrate`, `picard_solve` and
the smallness check each build one. Its modes are the flattened real-FFT
half spectrum of `spectral`, the package's one mode convention.

The nonlinear history N_j is stored as real and imaginary planes, shape
(M+1, 2, modes) float64, and `LinearPlan.history_modes` contracts it with
node n's weight row, gathered to the modes, in one real einsum. That one
contraction serves `integrate` (left-endpoint history) and `picard_solve`
(its trapezoid history). A march holds the history, (M+1)*modes*16 B, and
the gather buffer, M*modes*8 B; no product buffer.

`picard_solve` provides an independent fixed-point oracle: it iterates the
same Duhamel map but samples the nonlinearity by the cell-trapezoid rule,
which makes the map implicit and genuinely distinct from `integrate`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    NonContractionError,
    PreconditionError,
    ResolutionWarning,
)
from .spectral import (Field, GridSpec, SpectralField, lq_norm,
                       spectral_tail_fraction)
from .special import ml_neg_fast

__all__ = [
    "ModelParams",
    "TimeMesh",
    "ClassifyThresholds",
    "SimResult",
    "PicardResult",
    "LinearPlan",
    "FORCING_SCHEMES",
    "integrate",
    "picard_solve",
    "classify",
    "estimate_decay_exponent",
]

GLOBAL = "Global"
BLOWUP = "BlowUp"
UNDETERMINED = "Undetermined"

# A run whose top-octave spectral energy fraction exceeds this gets a note
# and a ResolutionWarning: the grid no longer resolves the solution.
TAIL_THRESHOLD = 1e-6


def _gauss_jacobi(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1-x)^a (1+x)^b on [-1, 1], a, b > -1.

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal matrix of the Jacobi polynomials' three-term recurrence, and
    each weight is mu_0 = int (1-x)^a (1+x)^b dx times the squared first
    component of its unit eigenvector.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)  # (b + a) cancelled: finite at a + b = 0
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    # The factor (k + a + b) / (s - 1) is 1 at k = 1, also where a + b = -1.
    ratio = np.ones(n - 1)
    ratio[1:] = (k[1:] + a + b) / (s[1:] - 1.0)
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * ratio / (s * s * (s + 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
           / math.gamma(a + b + 2.0))
    return nodes, mu0 * vecs[0] ** 2


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
        if not (0.0 < t_end < np.inf) or steps < 2:
            raise DomainError("need finite t_end > 0 and steps >= 2")
        if not grading >= 1.0:
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

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("u_max", 0.0 < self.u_max < np.inf, "be finite and > 0"),
            ("ratio_max", 1.0 < self.ratio_max < np.inf, "be finite and > 1"),
            ("t_end", self.t_end > 0.0, "be > 0"),
            ("beta", np.isfinite(self.beta), "be finite"),
            ("monotone_slack", self.monotone_slack >= 0.0, "be >= 0"),
        ):
            if not ok:
                raise DomainError(f"{name} must {rule}, got {getattr(self, name)!r}")

    def check_reachable(self, t_end: float) -> None:
        """DomainError unless a run that ends at t_end reaches self.t_end;
        classify could never call a shorter run Global."""
        if self.t_end > t_end:
            raise DomainError(
                f"classify.t_end {self.t_end!r} exceeds time.t_end {t_end!r}"
            )


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
# linear plan
# --------------------------------------------------------------------------


FORCING_SCHEMES = ("fast", "accurate")


class LinearPlan:
    """The p-independent linear part of the march on one grid and mesh.

    Modes are the flattened half spectrum of `GridSpec.to_modes` (shape
    `grid.mode_shape`), so a kept mode off the last-axis planes k = 0 and
    k = points/2 stands for itself and its conjugate twin. Every per-mode
    factor is evaluated once per unique eigenvalue lam = |xi|^(2s) (`lam_u`)
    and spread to the modes by `inv`. A plan without a mesh serves the mode
    map, `propagator` and `exact_forcing` only.
    """

    def __init__(self, params: ModelParams, grid: GridSpec,
                 mesh: TimeMesh | None = None,
                 forcing_scheme: str = "fast") -> None:
        if grid.dim != params.dim:
            raise PreconditionError("grid dimension does not match model dimension")
        if forcing_scheme not in FORCING_SCHEMES:
            raise DomainError(
                f"unknown forcing scheme {forcing_scheme!r}; "
                f"expected one of {FORCING_SCHEMES}"
            )
        self.params, self.grid, self.mesh = params, grid, mesh
        self.forcing_scheme = forcing_scheme
        self.lam_u, self.inv = np.unique(grid.xi_squared().ravel() ** params.s,
                                         return_inverse=True)

    @property
    def nmodes(self) -> int:
        return self.inv.size

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Flat half-spectrum modes of real-space samples."""
        return self.grid.to_modes(values).ravel()

    def to_values(self, modes: np.ndarray) -> np.ndarray:
        """Real-space samples of flat half-spectrum modes."""
        return self.grid.to_values(modes.reshape(self.grid.mode_shape))

    def cell_weights(self, n: int) -> np.ndarray:
        """W[j, lam] = int_{t_j}^{t_{j+1}} Y(t_n - tau) dtau for the cells j < n.

        Differences of e(d) = d^a E_{a,a+1}(-lam d^a) at the left ends
        d = t_n - t_j, j < n; e(0) = 0 closes the last cell, so the d = 0
        point is never evaluated. The telescoped sum over all cells is
        exactly t_n^a E_{a,a+1}(-lam t_n^a).
        """
        a = self.params.alpha
        da = (self.mesh.nodes[n] - self.mesh.nodes[:n]) ** a
        e = ml_neg_fast(a, a + 1.0, da[:, None] * self.lam_u[None, :])
        e *= da[:, None]
        e[:-1] -= e[1:]
        return e

    def history_modes(self, cells: np.ndarray, hist: np.ndarray,
                      gathered: np.ndarray) -> np.ndarray:
        """Modes of sum_{j<n} W[j, lam] N_j for node n's cell-weight row.

        `hist` holds N_j as real and imaginary planes, shape
        (>= n, 2, nmodes); `gathered` is an (>= n, nmodes) buffer that
        receives the row spread to the modes. One real einsum contracts
        both planes, with no (n, nmodes) complex product.
        """
        n = cells.shape[0]
        # mode="clip" skips the bounds-checked buffered copy that the
        # default mode makes with `out`; `inv` is always in range.
        np.take(cells, self.inv, axis=1, out=gathered[:n], mode="clip")
        out = np.empty(self.nmodes, dtype=complex)
        out.real, out.imag = np.einsum("jk,jck->ck", gathered[:n], hist[:n])
        return out

    def to_planes(self, values: np.ndarray, out: np.ndarray) -> None:
        """Write the modes of real-space samples into `out` (2, nmodes)
        as real and imaginary planes."""
        modes = self.to_modes(values)
        out[0], out[1] = modes.real, modes.imag

    def exact_forcing(self, t: float) -> np.ndarray:
        """S[lam] = int_0^t tau^sigma Y(t - tau; lam) dtau in closed form.

        The Mittag-Leffler convolution identity gives
        Gamma(sigma+1) t^(sigma+a) E_{a,a+sigma+1}(-lam t^a) for t > 0.
        """
        a, sig = self.params.alpha, self.params.sigma
        scale = math.gamma(sig + 1.0) * t ** (sig + a)
        return scale * ml_neg_fast(a, a + sig + 1.0, self.lam_u * t**a)

    def propagator(self, t: float) -> np.ndarray:
        """Z[lam] = E_{a,1}(-lam t^a), the free propagator Z(t) per eigenvalue."""
        a = self.params.alpha
        return ml_neg_fast(a, 1.0, self.lam_u * t**a)

    def forcing_weights(self, n: int, cells: np.ndarray | None = None) -> np.ndarray:
        """S[lam] = int_0^{t_n} tau^sigma Y(t_n - tau; lam) dtau under the scheme.

        "accurate" is `exact_forcing(t_n)`; "fast" integrates on the mesh
        cells.  At sigma = 0 both rules are the closed form `exact_forcing`,
        which the telescoped cell row sums to.  `cells` is node n's
        cell-weight row if the caller already holds it; the row is computed
        here only when the rule reads it.
        """
        a, sig = self.params.alpha, self.params.sigma
        if self.forcing_scheme == "accurate" or sig == 0.0:
            return self.exact_forcing(self.mesh.nodes[n])
        lam_u, t_hist = self.lam_u, self.mesh.nodes[: n + 1]
        t_now, t1 = t_hist[n], t_hist[1]
        if n == 1:
            # Single cell with both endpoint singularities: Gauss-Jacobi with
            # weight (1-x)^(a-1) (1+x)^sigma after mapping tau = t1 (x+1)/2.
            x, wq = _gauss_jacobi(12, a - 1.0, sig)
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
        if cells is None:
            cells = self.cell_weights(n)
        mids = 0.5 * (t_hist[1:n] + t_hist[2 : n + 1])
        return y_first + (mids**sig) @ cells[1:n]

    def linear_modes(self, n: int, u0_modes: np.ndarray | None,
                     w_modes: np.ndarray | None,
                     cells: np.ndarray | None = None) -> np.ndarray:
        """Modes of Z(t_n) u0 + S_w(t_n) at node n; None drops a term."""
        out = np.zeros(self.nmodes, dtype=complex)
        if u0_modes is not None:
            out += self.propagator(self.mesh.nodes[n])[self.inv] * u0_modes
        if w_modes is not None:
            out += self.forcing_weights(n, cells)[self.inv] * w_modes
        return out


# --------------------------------------------------------------------------
# integrator
# --------------------------------------------------------------------------


def integrate(
    params: ModelParams,
    grid: GridSpec,
    u0: Field | None,
    w: Field | None,
    mesh: TimeMesh,
    q_report: float = np.inf,
    thresholds: ClassifyThresholds | None = None,
    forcing_scheme: str = "fast",
) -> SimResult:
    """March the mild solution across the mesh; halt on blow-up triggers.

    Classify at `thresholds.t_end` (default: the mesh end), which must not
    lie past the mesh end."""
    plan = LinearPlan(params, grid, mesh, forcing_scheme)
    thr = thresholds or ClassifyThresholds(t_end=mesh.t_end)
    thr.check_reachable(mesh.t_end)
    p = params.p
    t = mesh.nodes
    m = mesh.steps
    nmodes = plan.nmodes

    u0_modes = plan.to_modes(u0.values) if u0 is not None else None
    w_modes = plan.to_modes(w.values) if w is not None else None

    u_prev = u0.values if u0 is not None else np.zeros(grid.shape)
    nl_hist = np.empty((m + 1, 2, nmodes))
    plan.to_planes(np.abs(u_prev) ** p, nl_hist[0])
    # Weight-gather buffer, sized for the last step and reused by every
    # step instead of allocating a growing temporary per step.
    gathered = np.empty((m, nmodes))

    lq = [lq_norm(Field(grid, u_prev), q_report)]
    linf = [float(np.max(np.abs(u_prev)))]
    tail_max = 0.0
    trigger_time: float | None = None
    notes: list[str] = []
    last_values = u_prev
    n_reached = 0

    for n in range(1, m + 1):
        t_n = t[n]
        cells = plan.cell_weights(n)
        modes_n = plan.linear_modes(n, u0_modes, w_modes, cells)
        modes_n += plan.history_modes(cells, nl_hist, gathered)

        values = plan.to_values(modes_n)
        n_reached = n
        last_values = values

        if not np.all(np.isfinite(values)):
            trigger_time = t_n
            notes.append(f"non-finite values at t={t_n:.6g}")
            lq.append(np.inf)
            linf.append(np.inf)
            break
        cur_linf = float(np.max(np.abs(values)))
        lq.append(lq_norm(Field(grid, values), q_report))
        linf.append(cur_linf)
        tail = spectral_tail_fraction(
            SpectralField(grid, modes_n.reshape(grid.mode_shape)))
        tail_max = max(tail_max, tail)
        if cur_linf > thr.u_max:
            trigger_time = t_n
            notes.append(f"amplitude threshold exceeded at t={t_n:.6g}")
            break
        prev_linf = linf[-2]
        if prev_linf > 1e-6 and cur_linf > thr.ratio_max * prev_linf:
            trigger_time = t_n
            notes.append(f"per-step growth ratio exceeded at t={t_n:.6g}")
            break
        plan.to_planes(np.abs(values) ** p, nl_hist[n])

    if tail_max > TAIL_THRESHOLD:
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
    plan = LinearPlan(params, grid, mesh, forcing_scheme)
    p = params.p
    m = mesh.steps
    u0_modes = plan.to_modes(u0.values) if u0 is not None else None
    w_modes = plan.to_modes(w.values) if w is not None else None

    w_tables = [None] + [plan.cell_weights(n) for n in range(1, m + 1)]
    lin_modes = np.zeros((m + 1, plan.nmodes), dtype=complex)
    if u0_modes is not None:
        lin_modes[0] = u0_modes
    for n in range(1, m + 1):
        lin_modes[n] = plan.linear_modes(n, u0_modes, w_modes, w_tables[n])

    hist = np.array([plan.to_values(lin_modes[n]) for n in range(m + 1)])
    nl = np.empty((m + 1, 2, plan.nmodes))
    gathered = np.empty((m, plan.nmodes))
    prev_diff = None
    factors: list[float] = []
    growth_streak = 0
    for it in range(1, max_iter + 1):
        for j in range(m + 1):
            plan.to_planes(np.abs(hist[j]) ** p, nl[j])
        trap = 0.5 * (nl[:-1] + nl[1:])
        new_hist = hist.copy()
        for n in range(1, m + 1):
            contrib = plan.history_modes(w_tables[n], trap, gathered)
            new_hist[n] = plan.to_values(lin_modes[n] + contrib)
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

    lq_hist = np.array([lq_norm(Field(grid, hist[n]), q_report) for n in range(m + 1)])
    linf_hist = np.array([float(np.max(np.abs(hist[n]))) for n in range(m + 1)])
    contraction = float(np.median(factors)) if factors else 0.0
    return PicardResult(
        t_nodes=mesh.nodes.copy(),
        lq_history=lq_hist,
        linf_history=linf_hist,
        iterations=it,
        contraction_factor=contraction,
        final_field=Field(grid, hist[-1]),
    )
