"""Critical exponents and hypothesis checks for the forced fractional problem.

Closed-form exponent algebra:

    p_c      = N(p-1)/(2s)                   scale-critical Lebesgue exponent
    p_fujita = 1 + 2s/N                      Fujita exponent (unforced problem)
    p*       = (Na - 2s sigma)/(Na - 2s(a+sigma))
                                             forced blow-up/global threshold,
                                             the paper's p_F (field p_star)
    q_c      = N/(N - 2s)                    kernel integrability threshold
    gamma    = N - 2sp/(p-1) - 2s sigma/a    blow-up certificate exponent
    beta(q)  = a/(p-1) - Na/(2sq)            decay exponent of t^beta ||u||_q
    r_c: from beta + a - (Na/2s)(1/r_c - 1/q) + sigma = 0 (q-independent)

with a = alpha, N = dim.  The module also evaluates, on concrete gridded
data, the smallness condition that guarantees the a-priori decay bound, and
the local-average (ball-integral) hypotheses of the large-data global
existence criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, UnsupportedRangeError
from .kernels import KernelProfile, profile, profile_lq_norm, q_critical
from .solver import LinearPlan, ModelParams
from .special import beta_fn, gamma as gamma_fn
from .spectral import Field, lq_norm, lq_norms, restricted_lq_norm

__all__ = [
    "ExponentReport",
    "BetaCheck",
    "QWindow",
    "HypothesisReport",
    "critical_exponents",
    "p_star_exponent",
    "beta_exponent",
    "admissible_q_window",
    "smallness_condition",
    "local_average_hypotheses",
]


# --------------------------------------------------------------------------
# exponent algebra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaCheck:
    """beta = a/(p-1) - Na/(2sq) with its two admissibility conditions."""

    value: float
    q: float
    in_unit_range: bool  # 0 <= beta < 1/p
    above_forcing_floor: bool  # -(sigma + alpha) < beta


@dataclass(frozen=True)
class QWindow:
    """Admissible Lebesgue-exponent window (q_lo, q_hi), open at both ends."""

    q_lo: float
    q_hi: float
    valid: bool
    flags: tuple[str, ...] = ()

    def contains(self, q: float) -> bool:
        return self.valid and self.q_lo < q < self.q_hi


@dataclass(frozen=True)
class ExponentReport:
    p_c: float
    p_fujita: float
    q_c: float
    gamma: float
    p_star: float | None
    r_c: float | None
    beta: BetaCheck | None
    q_window: QWindow
    aux_r: float | None
    aux_m: float | None
    aux_rho: float | None
    regime_flags: tuple[str, ...]


def p_star_exponent(alpha: float, s: float, sigma: float, dim: int) -> float | None:
    """Forced critical exponent; None when its denominator is nonpositive."""
    den = dim * alpha - 2.0 * s * (alpha + sigma)
    if den <= 0.0:
        return None
    return (dim * alpha - 2.0 * s * sigma) / den


def beta_exponent(params: ModelParams, q: float) -> BetaCheck:
    """Decay exponent beta for the norm weight t^beta ||u(t)||_q."""
    if not q >= 1.0:
        raise DomainError(f"q must be >= 1, got {q}")
    a, s, N, p = params.alpha, params.s, params.dim, params.p
    value = a / (p - 1.0) - N * a / (2.0 * s * q)
    return BetaCheck(
        value=value,
        q=q,
        in_unit_range=bool(0.0 <= value < 1.0 / p),
        above_forcing_floor=bool(-(params.sigma + a) < value),
    )


def admissible_q_window(params: ModelParams) -> QWindow:
    """The open q-interval on which the decay machinery applies.

    In terms of 1/q the window is

        max(2s/(Np(p-1)), (2sa + 2s sigma (p-1))/(Na(p-1)))
          < 1/q <
        min(2s/(N(p-1)), (Na - 2s(a+sigma))/(Na - 2s sigma)),

    intersected with q >= p.  An empty interval is reported with
    valid=False; p exactly at the forced critical exponent is flagged as
    boundary-degenerate.
    """
    a, s, N, p, sig = params.alpha, params.s, params.dim, params.p, params.sigma
    inv_lo = max(
        2.0 * s / (N * p * (p - 1.0)),
        (2.0 * s * a + 2.0 * s * sig * (p - 1.0)) / (N * a * (p - 1.0)),
    )
    inv_hi = min(
        2.0 * s / (N * (p - 1.0)),
        (N * a - 2.0 * s * (a + sig)) / (N * a - 2.0 * s * sig),
    )
    flags: list[str] = []
    ps = p_star_exponent(a, s, sig, N)
    if ps is not None and p == ps:
        flags.append("boundary-degenerate")
    if inv_lo >= inv_hi:
        return QWindow(q_lo=np.inf, q_hi=np.inf, valid=False,
                       flags=tuple(flags + ["empty-window"]))
    q_lo = max(1.0 / inv_hi, p)
    q_hi = 1.0 / inv_lo if inv_lo > 0.0 else np.inf
    if q_lo >= q_hi:
        return QWindow(q_lo=q_lo, q_hi=q_hi, valid=False,
                       flags=tuple(flags + ["empty-window"]))
    return QWindow(q_lo=q_lo, q_hi=q_hi, valid=True, flags=tuple(flags))


def critical_exponents(params: ModelParams, q: float | None = None) -> ExponentReport:
    """All closed-form exponents, with regime flags for theorem applicability."""
    a, s, N, p, sig = params.alpha, params.s, params.dim, params.p, params.sigma
    flags: list[str] = []
    if N <= 2.0 * s:
        flags.append("dim-not-above-2s")
    if params.outside_theorem_range:
        flags.append("outside-theorem-range")

    p_c = N * (p - 1.0) / (2.0 * s)
    p_fujita = 1.0 + 2.0 * s / N
    q_c = q_critical(N, s)
    gamma = N - 2.0 * s * p / (p - 1.0) - 2.0 * s * sig / a

    p_star = p_star_exponent(a, s, sig, N)
    if p_star is None:
        flags.append("supercritical-denominator")

    # 1/r_c = (2s/N)(1/(p-1) + 1 + sigma/alpha); positive denominators only.
    rc_den = 2.0 * s * (a * p + sig * (p - 1.0))
    r_c = N * a * (p - 1.0) / rc_den if rc_den > 0.0 else None
    if r_c is None:
        flags.append("r_c-denominator-nonpositive")

    beta = beta_exponent(params, q) if q is not None else None
    window = admissible_q_window(params)

    aux_r = aux_m = aux_rho = None
    if q is not None:
        # Hoelder companions: 1 - 1/r = 1/p_c - 1/q; 1/m = 1 - (p-1)/q;
        # 1/rho = 1 + 1/q - 1/r_c.
        inv_r = 1.0 - (1.0 / p_c - 1.0 / q)
        aux_r = 1.0 / inv_r if inv_r > 0.0 else None
        inv_m = 1.0 - (p - 1.0) / q
        aux_m = 1.0 / inv_m if inv_m > 0.0 else None
        if r_c is not None:
            inv_rho = 1.0 + 1.0 / q - 1.0 / r_c
            aux_rho = 1.0 / inv_rho if inv_rho > 0.0 else None

    return ExponentReport(
        p_c=p_c,
        p_fujita=p_fujita,
        q_c=q_c,
        gamma=gamma,
        p_star=p_star,
        r_c=r_c,
        beta=beta,
        q_window=window,
        aux_r=aux_r,
        aux_m=aux_m,
        aux_rho=aux_rho,
        regime_flags=tuple(flags),
    )


# --------------------------------------------------------------------------
# smallness condition on concrete data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallnessReport:
    """sup over the sampled times of t^beta (||Z(t)u0||_q + ||S_w(t)||_q)."""

    sup_value: float
    beta: float
    t_samples: np.ndarray
    sample_values: np.ndarray


def smallness_condition(params: ModelParams, u0: Field, w: Field, q: float,
                        t_samples) -> SmallnessReport:
    """Left side of the a-priori decay criterion on concrete data.

    For each sampled t this computes t^beta (||Z(t)u0||_q + ||S_w(t)||_q)
    on one `LinearPlan` and one transform each of u0 and w shared by all
    sample times: Z(t)u0 is `LinearPlan.propagator`, E_{a,1}(-lam t^a) per
    mode, and the forcing-only solution S_w(t) is evaluated exactly per mode
    by `LinearPlan.exact_forcing`. The comparison constant is left to the
    caller (the theory does not fix it).
    """
    window = admissible_q_window(params)
    if not window.contains(q):
        raise UnsupportedRangeError(
            f"q={q} is outside the admissible window "
            f"({window.q_lo:.6g}, {window.q_hi:.6g})"
        )
    if u0.grid != w.grid:
        raise PreconditionError("u0 and w must share a grid")
    t_samples = np.asarray(t_samples, dtype=float)
    if (t_samples.ndim != 1 or t_samples.size == 0
            or not np.all((0.0 < t_samples) & (t_samples < np.inf))):
        raise DomainError(
            "t_samples must be a nonempty array of finite positive times")
    beta = beta_exponent(params, q).value
    plan = LinearPlan(params, w.grid)
    u0_modes = plan.to_modes(u0.values) if np.any(u0.values) else None
    w_modes = plan.to_modes(w.values) if np.any(w.values) else None
    vals = np.empty_like(t_samples)
    for i, t in enumerate(t_samples):
        term = 0.0
        if u0_modes is not None:
            z_u0 = plan.to_values(plan.spread(plan.propagator(t)) * u0_modes)
            term += lq_norms(w.grid, z_u0, q)[0]
        if w_modes is not None:
            s_w = plan.to_values(plan.spread(plan.exact_forcing(t)) * w_modes)
            term += lq_norms(w.grid, s_w, q)[0]
        vals[i] = t**beta * term
    return SmallnessReport(
        sup_value=float(np.max(vals)),
        beta=beta,
        t_samples=t_samples,
        sample_values=vals,
    )


# --------------------------------------------------------------------------
# local-average hypotheses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Left and right sides of the local-average global-existence criterion."""

    R_0: float
    M: float
    delta: float
    M_script: float
    tail_u0: float
    tail_w: float
    local_F_norm: float
    avg_u0: float
    avg_w: float
    tail_rhs: float
    local_F_rhs: float
    avg_rhs: float
    holds_tail_u0: bool
    holds_tail_w: bool
    holds_local_F: bool
    holds_avg_u0: bool
    holds_avg_w: bool
    flags: tuple[str, ...] = ()


def _ball_average_sup(field: Field, R_grid: np.ndarray, radius_exp: float,
                      weight_exp: float) -> tuple[float, bool]:
    """sup over R in R_grid of R^weight_exp * integral_{|y| < R^radius_exp}."""
    grid = field.grid
    r_sq = grid.radius_squared().ravel()
    order = np.argsort(r_sq, kind="stable")
    # cum[k] sums the k samples nearest the origin; a ball of squared radius
    # b holds the samples with r_sq < b, the first searchsorted(..., "left").
    cum = np.concatenate(([0.0], np.cumsum(field.values.ravel()[order])))
    inside = np.searchsorted(r_sq[order], R_grid ** (2.0 * radius_exp), side="left")
    vals = R_grid**weight_exp * (cum[inside] * grid.cell_volume)
    idx = int(np.argmax(vals))
    return float(vals[idx]), idx == vals.size - 1


def local_average_hypotheses(
    params: ModelParams,
    u0: Field,
    w: Field,
    q: float,
    M: float,
    delta: float,
    M_script: float,
    F_profile: KernelProfile | None = None,
    tail_norm_exponent: str = "q",
) -> HypothesisReport:
    """Evaluate the ball-average global-existence hypotheses on gridded data.

    R_0 is the smaller of (M_script / 2||u0||_q)^(1/beta) and
    (M_script / 2C||w||_q)^(1/(beta+alpha+sigma)) with
    C = B(sigma+1, alpha)/Gamma(alpha) (the forcing-history constant).  The
    suprema over R > M R_0 are sampled on a 64-point geometric grid up to
    1e4 * M * R_0; a supremum attained at the grid boundary is flagged.
    tail_norm_exponent selects the Lebesgue exponent of the profile norm in
    the average conditions' right-hand side: "q" as stated in the criterion,
    or "r" for the Hoelder-companion variant.
    """
    a, s, N, p, sig = params.alpha, params.s, params.dim, params.p, params.sigma
    if np.any(u0.values < 0.0) or np.any(w.values < 0.0):
        raise PreconditionError("u0 and w must be nonnegative")
    if u0.grid != w.grid:
        raise PreconditionError("u0 and w must share a grid")
    if not (0.0 <= M < np.inf and 0.0 < delta < np.inf and 0.0 < M_script < np.inf):
        raise DomainError("need finite M >= 0, delta > 0, M_script > 0")
    if tail_norm_exponent not in ("q", "r"):
        raise DomainError("tail_norm_exponent must be 'q' or 'r'")
    if N <= 2.0 * s:
        raise UnsupportedRangeError("criterion requires dim > 2s")
    report = critical_exponents(params, q)
    beta = report.beta.value
    if not (report.beta.in_unit_range and report.beta.above_forcing_floor):
        raise UnsupportedRangeError(
            f"beta={beta:.6g} violates the scaling condition for q={q}"
        )
    flags: list[str] = []

    p_c, r_exp = report.p_c, report.aux_r
    if r_exp is None:
        raise UnsupportedRangeError("companion exponent r is not defined here")

    # R_0 from its defining minimum; zero data push a branch to infinity.
    C_forcing = beta_fn(sig + 1.0, a) / gamma_fn(a)
    norm_u0_q = lq_norm(u0, q)
    norm_w_q = lq_norm(w, q)
    branches = []
    if norm_u0_q > 0.0 and beta > 0.0:
        branches.append((M_script / (2.0 * norm_u0_q)) ** (1.0 / beta))
    if norm_w_q > 0.0:
        branches.append(
            (M_script / (2.0 * C_forcing * norm_w_q)) ** (1.0 / (beta + a + sig))
        )
    R_0 = min(branches) if branches else np.inf
    if not branches:
        flags.append("zero-data")
        R_0 = 1.0

    if F_profile is None:
        radii = np.geomspace(1e-3, 1e3, 220)
        F_profile = profile("F", a, s, N, radii)
    elif F_profile.kind != "F" or F_profile.dim != N:
        raise PreconditionError("F_profile must be an F profile of matching dim")

    norm_F_r = profile_lq_norm(F_profile, r_exp)
    tail_radius = M * R_0 ** (a / (2.0 * s))
    tail_u0 = restricted_lq_norm(u0, p_c, tail_radius)
    tail_w = restricted_lq_norm(w, p_c, tail_radius)
    tail_rhs = M_script / (4.0 * norm_F_r)

    local_F = profile_lq_norm(F_profile, r_exp, r_max=delta)
    norm_u0_pc = lq_norm(u0, p_c)
    norm_w_pc = lq_norm(w, p_c)
    denom = max(norm_u0_pc, norm_w_pc)
    local_F_rhs = M_script / denom if denom > 0.0 else np.inf

    R_lo = M * R_0 if M > 0.0 else 1e-3 * R_0
    if M == 0.0:
        flags.append("M-zero-grid-floor")
    R_grid = np.geomspace(R_lo * (1.0 + 1e-12), 1e4 * max(M, 1.0) * R_0, 64)
    w_exp_u0 = a / (p - 1.0) - N * a / (2.0 * s)
    avg_u0, at_edge_u0 = _ball_average_sup(u0, R_grid, a / (2.0 * s), w_exp_u0)
    avg_w, at_edge_w = _ball_average_sup(
        w, R_grid, a / (2.0 * s), w_exp_u0 + sig + a
    )
    if at_edge_u0 or at_edge_w:
        flags.append("sup-at-grid-boundary")

    exterior_exp = q if tail_norm_exponent == "q" else r_exp
    norm_F_exterior = profile_lq_norm(F_profile, exterior_exp, r_min=delta)
    m_factor = M ** (2.0 * s / (p - 1.0) - N) if M > 0.0 else np.inf
    avg_rhs = M_script * m_factor / (8.0 * norm_F_exterior)

    return HypothesisReport(
        R_0=float(R_0),
        M=M,
        delta=delta,
        M_script=M_script,
        tail_u0=tail_u0,
        tail_w=tail_w,
        local_F_norm=local_F,
        avg_u0=avg_u0,
        avg_w=avg_w,
        tail_rhs=tail_rhs,
        local_F_rhs=local_F_rhs,
        avg_rhs=avg_rhs,
        holds_tail_u0=bool(tail_u0 <= tail_rhs),
        holds_tail_w=bool(tail_w <= tail_rhs),
        holds_local_F=bool(local_F <= local_F_rhs),
        holds_avg_u0=bool(avg_u0 < avg_rhs),
        holds_avg_w=bool(avg_w < avg_rhs),
        flags=tuple(flags),
    )
