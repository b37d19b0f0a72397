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
cell weights, the forcing rules and Z(t)u0) on one grid, with no mesh: the
march passes each step's node times t_0..t_n. `integrate_many`,
`picard_solve` and the smallness check each build one. Its modes are the
grid's own layout, the flat half spectrum of `GridSpec.to_modes`, and the
march transforms with the grid; u0 and w must lie on the march's grid.

`integrate_many` marches several powers p in lockstep on one plan: each
step computes one cell-weight row of L unique-eigenvalue columns (from the
table at K Chebyshev nodes in ln lam, K ~ 35-70 << L, and one matrix
product; `LinearPlan.cell_interpolant`) and one linear-mode vector, and
each live member contracts its own nonlinear
history with the row (`LinearPlan.contract`) into its row of one
(live, modes) stack. The rest of the step runs once over the stack: one
inverse transform, the L^inf and L^q norms and tail fractions of every row
(`spectral.lq_norms`, `spectral.tail_fractions`), the triggers, and one
forward transform of |u|^p with each row's own p, taken into each history
in slot order. A row is non-finite exactly when its L^inf norm is: max|u|
is NaN or inf iff some sample is. Node 0's norms come from the same
helper. `integrate` is its march of one member. The history N_j is
stored as real and imaginary planes, shape (M+1, 2, modes) float64, with
the modes in slot order: slot r holds the r-th mode of every eigenvalue
with more than r modes, so its weights are a suffix of the row's columns,
which are ordered by (multiplicity, lam). One real einsum per run of slots
of one width contracts both planes against that suffix, and one take puts
the sums back in natural order; no weight row is spread to the modes. In
1D every mode has its own eigenvalue, so there is one slot and the order
is natural. The same contraction serves `picard_solve` on its trapezoid
history. A march holds one history, (M+1)*modes*16 B, per live member, and
one cell-weight scratch, (M*L + M*K)*8 B: the row plane and the (M, K)
plane of the table's arguments at the K interpolation nodes, which the
table overwrites in place with its values. It is sized for the last step
and allocated once per march: arrays allocated per step, one row larger
each step, come back from the allocator as fresh pages, and a one-shot
march would take minor page faults in proportion to M^2 * L. The plan adds
K*(L-1)*8 B for the interpolation matrix and modes*56 B for the slot
layout: `perm`, the two flat gathers and the contraction's sums.

`picard_solve` provides an independent fixed-point oracle: it iterates the
same Duhamel map but samples the nonlinearity by the cell-trapezoid rule,
which makes the map implicit and genuinely distinct from `integrate`.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FORCING_SCHEMES,
    DomainError,
    NonContractionError,
    PreconditionError,
    ResolutionWarning,
    check_forcing_scheme,
    check_grid_dim,
    check_model,
    check_node_times,
    check_power,
)
from .spectral import Field, GridSpec, lq_norms, tail_fractions
from .special import ml_neg_fast, power_law_fit

__all__ = [
    "ModelParams",
    "TimeMesh",
    "ClassifyThresholds",
    "SimResult",
    "Trigger",
    "PicardResult",
    "LinearPlan",
    "FORCING_SCHEMES",
    "history_shape",
    "integrate",
    "integrate_many",
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

# A Global run's decay exponent is fitted on the last quarter of its nodes
# (`_last_quarter`) when that window holds at least this many positive norms.
DECAY_FIT_SAMPLES = 10


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
        check_model(self.alpha, self.s, self.sigma, self.dim)
        check_power(self.p)

    @property
    def outside_theorem_range(self) -> bool:
        """True when sigma <= -alpha (existence theory does not apply)."""
        return self.sigma <= -self.alpha


@dataclass(frozen=True)
class TimeMesh:
    """Time nodes increasing strictly from 0; `make` builds the graded mesh
    t_j = T (j/M)^g on [0, T]."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", check_node_times(self.nodes, 3))

    @classmethod
    def make(cls, t_end: float, steps: int, grading: float = 2.0) -> "TimeMesh":
        if not (0.0 < t_end < np.inf):
            raise DomainError(f"need finite t_end > 0, got {t_end!r}")
        if not (steps >= 2 and float(steps).is_integer()):
            raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
        if not (1.0 <= grading < np.inf):
            raise DomainError(f"grading must be >= 1 and finite, got {grading!r}")
        j = np.arange(int(steps) + 1, dtype=float)
        return cls(t_end * (j / steps) ** grading)

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


_TRIGGER_NOTES = {
    "non_finite": "non-finite values at t={:.6g}",
    "amplitude": "amplitude threshold exceeded at t={:.6g}",
    "growth_ratio": "per-step growth ratio exceeded at t={:.6g}",
}


@dataclass(frozen=True)
class Trigger:
    """Why a march stopped early: `kind` at node time `t`, with `value`.

    `value` is the L^inf norm that crossed `u_max` ("amplitude"), the ratio
    of successive L^inf norms that crossed `ratio_max` ("growth_ratio"), or
    the recorded L^inf norm inf ("non_finite").
    """

    kind: str
    t: float
    value: float

    @property
    def note(self) -> str:
        """The run note that reports this trigger."""
        return _TRIGGER_NOTES[self.kind].format(self.t)


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
    trigger: Trigger | None = None


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


class LinearPlan:
    """The p-independent linear part of the march on one grid.

    Modes are the grid's flat half spectrum (`GridSpec.to_modes`). Every per-mode
    factor is evaluated once per unique eigenvalue lam = |xi|^(2s) (`lam_u`)
    and spread to the modes by `inv` (`spread`). The columns of `lam_u` are
    ordered by (multiplicity, lam), so lam_u[0] = 0 is the zero mode's and,
    in 1D, where every multiplicity is 1, lam_u ascends with k. The march's
    history keeps the modes in slot order (`perm`, `slots`, `to_slots`):
    slot r holds the r-th mode of every column with more than r modes, and
    its weights are the last columns of the cell row, so `contract` reads
    the compact row directly. The cell row's lam > 0 columns come from the
    table at K nodes and one barycentric matrix (`cell_interpolant`), built
    on first use; `propagator` and `exact_forcing` take the table at every
    eigenvalue. The node-indexed methods take the node times t_0..t_n
    (n >= 1) of the step they serve. `contract` sums into the plan's own
    scratch, so one plan serves one thread at a time.
    """

    def __init__(self, params: ModelParams, grid: GridSpec, *,
                 forcing_scheme: str = "fast") -> None:
        check_grid_dim(grid.dim, params.dim)
        check_forcing_scheme(forcing_scheme)
        self.params, self.grid = params, grid
        self.forcing_scheme = forcing_scheme
        lam, inv = np.unique(grid.xi_squared() ** params.s,
                             return_inverse=True)
        # Columns by (multiplicity, lam): a stable sort of the ascending lam.
        order = np.argsort(np.bincount(inv), kind="stable")
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        self.lam_u, self.inv = lam[order], column[inv]

    @functools.cached_property
    def _slot_layout(self) -> tuple:
        """The history's slot order of the modes, built on first use: a
        plan without a march (the smallness check) never needs it.

        Slot r holds the r-th mode (in natural order) of every column with
        more than r modes. Those columns are the last cnt_r, so slot r's
        weights are the row's last cnt_r columns, in order. Returns `perm`,
        `slots`, the flat gathers between complex natural-order modes and
        the (2, nmodes) real slot planes (row 0 takes the modes into the
        planes, row 1 takes the planes back) and `contract`'s sums scratch.
        """
        n_cols, n_modes = self.lam_u.size, self.inv.size
        mult = np.bincount(self.inv, minlength=n_cols)  # ascending
        first = np.cumsum(mult) - mult
        # On 16-bit keys NumPy's stable sort is a radix sort.
        by_column = np.argsort(self.inv.astype(np.min_scalar_type(n_cols)),
                               kind="stable")
        rank = np.empty_like(self.inv)
        rank[by_column] = np.arange(n_modes) - np.repeat(first, mult)
        cnt = n_cols - np.searchsorted(mult, np.arange(mult[-1]), side="right")
        stop = np.cumsum(cnt)
        start = stop - cnt
        pos = start[rank] + self.inv - (n_cols - cnt[rank])
        perm = np.empty_like(pos)
        perm[pos] = np.arange(n_modes)
        runs = np.flatnonzero(np.diff(cnt, prepend=0))
        ends = np.append(runs[1:], cnt.size) - 1
        slots = tuple(zip(start[runs].tolist(), stop[ends].tolist(),
                          cnt[runs].tolist()))
        gathers = np.empty((2, 2 * n_modes), dtype=np.intp)
        # plane c of slot position i <- float c of natural mode perm[i]
        gathers[0] = (2 * perm + np.arange(2)[:, None]).ravel()
        # float c of natural mode k <- plane c of slot position pos[k]
        gathers[1] = (pos[:, None] + n_modes * np.arange(2)).ravel()
        return perm, slots, gathers, np.empty((2, n_modes))

    @property
    def perm(self) -> np.ndarray:
        """perm[i] is the natural mode at slot position i of the history."""
        return self._slot_layout[0]

    @property
    def slots(self) -> tuple[tuple[int, int, int], ...]:
        """(start, stop, width) of each run of consecutive slots of one
        width, in slot positions; `contract` merges each run."""
        return self._slot_layout[1]

    def spread(self, per_lam: np.ndarray) -> np.ndarray:
        """A per-eigenvalue array (last axis lam_u) on the modes, in natural
        order: a new array."""
        return np.take(per_lam, self.inv, axis=-1)

    @functools.cached_property
    def cell_interpolant(self) -> tuple[np.ndarray, np.ndarray]:
        """The K eigenvalue nodes of the cell row and the (K, L-1)
        barycentric matrix P that takes values at them to the columns
        1..L-1 of lam_u, built on first use.

        For a fixed left end d, d^a E_{a,a+1}(-lam d^a) is analytic in
        ln lam on the strip |Im ln lam| < pi (1 - a/2), so its Chebyshev
        interpolant in ln lam on [ln lam_min, ln lam_max] converges like
        rho^-K for the Bernstein ellipse rho = b/h + sqrt(1 + (b/h)^2),
        h = ln(lam_max / lam_min) / 2, with b = 0.9 pi (1 - a/2) inside
        the strip; K = ceil(16 / log10 rho). The nodes are the K Chebyshev
        points of the second kind in ln lam, and P holds the barycentric
        basis ell_k (Berrut & Trefethen 2004) at every ln lam, an exact
        node hit taking the unit column. What P interpolates is
        lam e(d) = 1 - E_a(-lam d^a), which lies in [0, 1] for every lam:
        P[k, l] = lam_k ell_k(ln lam_l) / lam_l. Interpolating e(d) itself
        carried the rounding of its large values at small lam into the
        large-lam columns: on a 65536-point line at a = 0.9 that error
        reached 2.2e-13 of a column's largest weight, 1.8e-14 scaled. Where
        K >= (L-1)/2 the nodes are lam_u[1:] themselves and P is the
        identity, so the row is the table's values at every eigenvalue.
        """
        lam = self.lam_u[1:]
        count = lam.size
        if count > 2:
            half = 0.5 * math.log(lam.max() / lam.min())
            b = 0.9 * math.pi * (1.0 - 0.5 * self.params.alpha) / half
            count = max(2, math.ceil(16.0 / math.log10(b + math.hypot(1.0, b))))
        if 2 * count >= lam.size:
            return lam, np.eye(lam.size)
        lo, hi = math.log(lam.min()), math.log(lam.max())
        x = np.cos(np.pi * np.arange(count) / (count - 1))
        log_nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        log_nodes[0], log_nodes[-1] = hi, lo
        weights = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        weights[[0, -1]] *= 0.5
        # One (K, L-1) array, built in place: w_k / (x_k - ln lam_l), each
        # column divided by its sum, then scaled by lam_k / lam_l.
        basis = np.subtract.outer(log_nodes, np.log(lam))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(weights[:, None], basis, out=basis)
            sums = basis.sum(axis=0)
            basis /= sums
        hits = np.flatnonzero(~np.isfinite(sums))
        basis[:, hits] = np.isnan(basis[:, hits])
        lam_nodes = np.exp(log_nodes)
        basis *= lam_nodes[:, None]
        basis /= lam
        return lam_nodes, basis

    def cell_weights(self, nodes: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
        """W[j, lam] = int_{t_j}^{t_{j+1}} Y(t_n - tau) dtau for the cells j < n.

        Differences of e(d) = d^a E_{a,a+1}(-lam d^a) at the left ends
        d = t_n - t_j, j < n, of `nodes` = t_0..t_n; e(0) = 0 closes the
        last cell, so the d = 0 point is never evaluated. The telescoped
        sum over all cells is t_n^a E_{a,a+1}(-lam t_n^a). On the zero mode
        lam_u[0] = 0, e(d) = d^a / Gamma(a+1) exactly. The columns lam > 0
        come from the table at the K nodes of `cell_interpolant` only: an
        (n, K) array of differences times its matrix P.

        The returned row is the first n * len(lam_u) values of the flat
        scratch `out` (from `cell_buffer`), and the table's (n, K)
        arguments, which it overwrites in place with its values, are the
        last n * K; the product takes no temporary. Without `out` a scratch
        is allocated for this call, and the row keeps it alive.
        """
        a, n = self.params.alpha, nodes.size - 1
        lam_k, interp = self.cell_interpolant
        da = (nodes[n] - nodes[:n]) ** a
        if out is None:
            out = self.cell_buffer(n)
        cells = out[: n * self.lam_u.size].reshape(n, -1)
        e = out[out.size - n * lam_k.size:].reshape(n, -1)
        np.multiply(da[:, None], lam_k, out=e)
        ml_neg_fast(a, a + 1.0, e, out=e)
        e *= da[:, None]
        np.subtract(e[:-1], e[1:], out=e[:-1])  # reads ahead: no copy
        np.matmul(e, interp, out=cells[:, 1:])
        e_zero = (1.0 / math.gamma(a + 1.0)) * da
        cells[:-1, 0] = e_zero[:-1] - e_zero[1:]
        cells[-1, 0] = e_zero[-1]
        return cells

    def cell_buffer(self, steps: int) -> np.ndarray:
        """The flat scratch of `cell_weights(nodes, out=...)` for every step
        n <= `steps`: the row's steps * L values, then the table's
        steps * K arguments and values (L = len(lam_u), K nodes of
        `cell_interpolant`)."""
        return np.empty(steps * (self.lam_u.size + self.cell_interpolant[0].size))

    def to_slots(self, modes: np.ndarray, out: np.ndarray) -> None:
        """Write complex natural-order modes, shape (..., nmodes), into the
        C-contiguous real and imaginary slot-order planes `out`, shape
        (..., 2, nmodes), with one take."""
        if not out.flags.c_contiguous:
            raise PreconditionError("slot planes must be C-contiguous")
        np.take(modes.view(np.float64), self._slot_layout[2][0], axis=-1,
                out=out.reshape(out.shape[:-2] + (-1,)), mode="clip")

    def contract(self, row: np.ndarray, hist: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Modes of sum_{j<n} W[j, lam] N_j for the (n, len(lam_u)) cell
        row, written in natural order into the contiguous complex (nmodes,)
        `out` (new when None).

        `hist` holds N_j as slot-order real and imaginary planes
        (`to_slots`), shape (>= n, 2, nmodes). Each run of slots of one
        width w is contracted against the row's last w columns in one real
        einsum, with no (n, nmodes) weight or complex product array; one
        take puts the sums back in natural order.
        """
        n, n_cols = row.shape
        _, slots, gathers, sums = self._slot_layout
        hist = hist[:n]
        for start, stop, width in slots:
            np.einsum("jl,jcsl->csl", row[:, n_cols - width:],
                      hist[:, :, start:stop].reshape(n, 2, -1, width),
                      out=sums[:, start:stop].reshape(2, -1, width))
        if out is None:
            out = np.empty(self.grid.nmodes, dtype=complex)
        np.take(sums.reshape(-1), gathers[1], out=out.view(np.float64),
                mode="clip")
        return out

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

    def forcing_weights(self, nodes: np.ndarray,
                        cells: np.ndarray | None = None) -> np.ndarray:
        """S[lam] = int_0^{t_n} tau^sigma Y(t_n - tau; lam) dtau under the scheme.

        "accurate" is `exact_forcing(t_n)`; "fast" integrates on the cells
        of `nodes` = t_0..t_n.  At sigma = 0 both rules are the closed form
        `exact_forcing`, which the telescoped cell row sums to.  `cells` is
        `cell_weights(nodes)` if the caller already holds it; the row is
        computed here only when the rule reads it.
        """
        a, sig = self.params.alpha, self.params.sigma
        if self.forcing_scheme == "accurate" or sig == 0.0:
            return self.exact_forcing(nodes[-1])
        lam_u, n = self.lam_u, nodes.size - 1
        t_now, t1 = nodes[n], nodes[1]
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
            cells = self.cell_weights(nodes)
        mids = 0.5 * (nodes[1:n] + nodes[2 : n + 1])
        return y_first + (mids**sig) @ cells[1:n]

    def linear_modes(self, nodes: np.ndarray, u0_modes: np.ndarray | None,
                     w_modes: np.ndarray | None,
                     cells: np.ndarray | None = None) -> np.ndarray:
        """Modes of Z(t_n) u0 + S_w(t_n), t_n = nodes[-1]; None drops a term."""
        out = np.zeros(self.grid.nmodes, dtype=complex)
        if u0_modes is not None:
            out += self.spread(self.propagator(nodes[-1])) * u0_modes
        if w_modes is not None:
            out += self.spread(self.forcing_weights(nodes, cells)) * w_modes
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
    lie past the mesh end. The march of `integrate_many` with one member."""
    return integrate_many([params], grid, u0, w, mesh, q_report, thresholds,
                          forcing_scheme)[0]


def history_shape(steps: int, nmodes: int) -> tuple[int, int, int]:
    """Shape of one march's float64 nonlinear history: N_0..N_steps as
    slot-order real and imaginary planes of `nmodes` modes."""
    return (steps + 1, 2, nmodes)


class _Member:
    """One power p of a lockstep march: its history, norms and trigger."""

    def __init__(self, params: ModelParams, plan: LinearPlan, steps: int,
                 lq0: float, linf0: float, u_prev: np.ndarray) -> None:
        self.params = params
        self.hist: np.ndarray | None = np.empty(history_shape(steps, plan.grid.nmodes))
        self.lq = [lq0]
        self.linf = [linf0]
        self.tail_max = 0.0
        self.trigger: Trigger | None = None
        self.last_values = u_prev

    def stop(self, kind: str, t_n: float, value: float) -> None:
        """Record the trigger and drop the history."""
        self.trigger = Trigger(kind, float(t_n), float(value))
        self.hist = None

    def result(self, plan: LinearPlan, nodes: np.ndarray,
               thr: ClassifyThresholds, q_report: float) -> SimResult:
        """The classified run on the march's node times `nodes`."""
        notes = [self.trigger.note] if self.trigger is not None else []
        if self.tail_max > TAIL_THRESHOLD:
            notes.append(
                f"top-octave spectral energy fraction reached {self.tail_max:.2e}"
            )
        n_reached = len(self.lq) - 1
        t_hist = nodes[: n_reached + 1]
        lq_arr, linf_arr = np.asarray(self.lq), np.asarray(self.linf)
        classification, blowup_est = classify(
            t_hist, lq_arr, linf_arr, thr,
            triggered_at=None if self.trigger is None else self.trigger.t,
            reached_end=self.trigger is None and n_reached == nodes.size - 1,
        )
        decay_exp = decay_r2 = None
        if classification == GLOBAL:
            sel = _last_quarter(t_hist)
            if np.count_nonzero(sel & (lq_arr > 0.0)) >= DECAY_FIT_SAMPLES:
                decay_exp, decay_r2 = estimate_decay_exponent(
                    t_hist[sel], lq_arr[sel]
                )
        non_finite = self.trigger is not None and self.trigger.kind == "non_finite"
        final = None if non_finite else Field(plan.grid, self.last_values)
        return SimResult(
            params=self.params,
            q_report=q_report,
            t_nodes=t_hist,
            lq_history=lq_arr,
            linf_history=linf_arr,
            classification=classification,
            blowup_time_est=blowup_est,
            decay_exponent=decay_exp,
            decay_r_squared=decay_r2,
            tail_fraction_max=self.tail_max,
            final_field=final,
            notes=notes,
            trigger=self.trigger,
        )


def _store(plan: LinearPlan, members: list[_Member], n: int,
           values: np.ndarray) -> None:
    """Write |u|^p at node n into each member's history, from the stack
    `values` (one row per member), one forward transform and one take per
    member into slot order."""
    powered = np.abs(values)
    for row, m in zip(powered, members):
        row **= m.params.p
    for modes, m in zip(plan.grid.to_modes(powered), members):
        plan.to_slots(modes, m.hist[n])


def _advance(plan: LinearPlan, thr: ClassifyThresholds, q_report: float,
             live: list[_Member], nodes: np.ndarray, row: np.ndarray,
             linear: np.ndarray, modes: np.ndarray) -> list[_Member]:
    """Advance the live members to the last node n of `nodes` = t_0..t_n in
    one batched step; returns the members that go on.

    Each member contracts its own history with node n's cell-weight row
    into its row of the (live, nmodes) buffer `modes`. One inverse transform,
    norm and tail pass and forward transform of |u|^p then serve the whole
    stack. A member whose L^inf norm is not finite stops "non_finite" with
    both norms recorded as inf.
    """
    grid, n, t_n = plan.grid, nodes.size - 1, nodes[-1]
    for m, out in zip(live, modes):
        plan.contract(row, m.hist, out)
    modes += linear
    values = grid.to_values(modes)
    stats = zip(live, lq_norms(grid, values, np.inf).tolist(),
                lq_norms(grid, values, q_report).tolist(),
                tail_fractions(grid, modes).tolist())
    going, kept = [], []
    for i, (m, cur_linf, cur_lq, tail) in enumerate(stats):
        m.last_values = values[i]
        if not math.isfinite(cur_linf):
            m.lq.append(np.inf)
            m.linf.append(np.inf)
            m.stop("non_finite", t_n, np.inf)
            continue
        m.lq.append(cur_lq)
        m.linf.append(cur_linf)
        m.tail_max = max(m.tail_max, tail)
        prev_linf = m.linf[-2]
        if cur_linf > thr.u_max:
            m.stop("amplitude", t_n, cur_linf)
        elif prev_linf > 1e-6 and cur_linf > thr.ratio_max * prev_linf:
            m.stop("growth_ratio", t_n, cur_linf / prev_linf)
        else:
            going.append(m)
            kept.append(i)
    if going:
        _store(plan, going, n, values if len(kept) == len(live) else values[kept])
    return going


def _data_modes(grid: GridSpec, name: str, f: Field | None) -> np.ndarray | None:
    """Modes of the march data `f`, which must lie on the march's grid."""
    if f is not None and f.grid != grid:
        raise PreconditionError(f"{name} lies on {f.grid}, not the march's {grid}")
    return None if f is None else grid.to_modes(f.values)


def integrate_many(
    params_seq: Sequence[ModelParams],
    grid: GridSpec,
    u0: Field | None,
    w: Field | None,
    mesh: TimeMesh,
    q_report: float = np.inf,
    thresholds: ClassifyThresholds | None = None,
    forcing_scheme: str = "fast",
) -> list[SimResult]:
    """March several powers p in lockstep on one LinearPlan.

    The members share alpha, s, sigma and dim and differ only in p, so each
    step computes one cell-weight row and one linear-mode vector; each live
    member then contracts its own history with the row, and the rest of the
    step is one batched pass over the live members (`_advance`). A member
    that triggers stops and drops its history. Every result equals the
    member's own `integrate` bit for bit.
    """
    params_seq = list(params_seq)
    if not params_seq:
        raise PreconditionError("a march needs at least one member")
    if len({(p.alpha, p.s, p.sigma, p.dim) for p in params_seq}) > 1:
        raise PreconditionError(
            "the members of one march must share alpha, s, sigma and dim")
    plan = LinearPlan(params_seq[0], grid, forcing_scheme=forcing_scheme)
    thr = thresholds or ClassifyThresholds(t_end=mesh.t_end)
    thr.check_reachable(mesh.t_end)

    # Overflow to inf or nan is what the march reports as its "non_finite"
    # trigger; NumPy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        u0_modes, w_modes = _data_modes(grid, "u0", u0), _data_modes(grid, "w", w)
        u_prev = u0.values if u0 is not None else np.zeros(grid.shape)
        lq0, linf0 = (lq_norms(grid, u_prev, q).item() for q in (q_report, np.inf))
        members = [_Member(params, plan, mesh.steps, lq0, linf0, u_prev)
                   for params in params_seq]
        _store(plan, members, 0,
               np.broadcast_to(u_prev, (len(members),) + grid.shape))
        # Sized for the last step and reused by every step instead of
        # growing temporaries per step, each of which would come back from
        # the allocator as fresh pages.
        cell_buf = plan.cell_buffer(mesh.steps)
        modes = np.empty((len(members), grid.nmodes), dtype=complex)

        live = members
        for n in range(1, mesh.steps + 1):
            if not live:
                break
            nodes = mesh.nodes[: n + 1]
            cells = plan.cell_weights(nodes, cell_buf)
            linear = plan.linear_modes(nodes, u0_modes, w_modes, cells)
            live = _advance(plan, thr, q_report, live, nodes, cells, linear,
                            modes[: len(live)])

        results = [m.result(plan, mesh.nodes, thr, q_report) for m in members]
    for res in results:
        if res.tail_fraction_max > TAIL_THRESHOLD:
            warnings.warn(
                f"spectral tail monitor: top-octave fraction "
                f"{res.tail_fraction_max:.2e}",
                ResolutionWarning,
                stacklevel=2,
            )
    return results


def _last_quarter(t_nodes: np.ndarray) -> np.ndarray:
    """Mask of the node times in the last quarter of the run: the window
    of `classify`'s monotone test and of the decay fit."""
    return t_nodes >= 0.75 * t_nodes[-1]


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
    sel = _last_quarter(t_nodes)
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
    if np.count_nonzero(good) < DECAY_FIT_SAMPLES:
        raise PreconditionError(f"a decay fit needs {DECAY_FIT_SAMPLES} positive samples")
    slope, _, r2 = power_law_fit(t_nodes[good], norms[good])
    return slope, r2


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
    plan = LinearPlan(params, grid, forcing_scheme=forcing_scheme)
    p, m, nodes = params.p, mesh.steps, mesh.nodes
    u0_modes, w_modes = _data_modes(grid, "u0", u0), _data_modes(grid, "w", w)

    cell_buf = plan.cell_buffer(m)
    w_tables = [None] + [plan.cell_weights(nodes[: n + 1], cell_buf).copy()
                         for n in range(1, m + 1)]
    del cell_buf  # the kept rows are copies: the iteration holds no scratch
    lin_modes = np.zeros((m + 1, grid.nmodes), dtype=complex)
    if u0_modes is not None:
        lin_modes[0] = u0_modes
    for n in range(1, m + 1):
        lin_modes[n] = plan.linear_modes(nodes[: n + 1], u0_modes, w_modes, w_tables[n])

    hist = grid.to_values(lin_modes)
    nl = np.empty(history_shape(m, grid.nmodes))
    prev_diff = None
    factors: list[float] = []
    growth_streak = 0
    # Divergence is reported as NonContractionError; NumPy's warnings would
    # only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            plan.to_slots(grid.to_modes(np.abs(hist) ** p), nl)
            trap = 0.5 * (nl[:-1] + nl[1:])
            new_hist = hist.copy()
            for n in range(1, m + 1):
                contrib = plan.contract(w_tables[n], trap)
                new_hist[n] = grid.to_values(lin_modes[n] + contrib)
            diff = float(np.max(np.abs(new_hist - hist)))
            hist = new_hist
            if not math.isfinite(diff):
                raise NonContractionError(
                    "Picard iterate diverged to non-finite values")
            if prev_diff is not None and prev_diff > 0.0:
                ratio = diff / prev_diff
                factors.append(ratio)
                growth_streak = growth_streak + 1 if ratio >= 1.0 else 0
                if growth_streak >= 5:
                    raise NonContractionError(f"no contraction: update ratio "
                                              f"{ratio:.3g} after {it} iterations")
            if diff <= tol:
                break
            prev_diff = diff
        else:
            raise NonContractionError(f"no convergence within {max_iter} iterations")

    lq_hist = lq_norms(grid, hist, q_report)
    linf_hist = lq_norms(grid, hist, np.inf)
    contraction = float(np.median(factors)) if factors else 0.0
    return PicardResult(
        t_nodes=nodes.copy(),
        lq_history=lq_hist,
        linf_history=linf_hist,
        iterations=it,
        contraction_factor=contraction,
        final_field=Field(grid, hist[-1]),
    )
