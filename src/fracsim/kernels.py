"""Fundamental kernels of the linear problem.

`Z` propagates initial data and `Y` is the Duhamel (forcing) kernel.  Both
are diagonal in Fourier space:

    Z_hat(t, xi) = E_{alpha,1}    (-|xi|^{2s} t^alpha)
    Y_hat(t, xi) = t^{alpha-1} E_{alpha,alpha}(-|xi|^{2s} t^alpha)

Their real-space forms are self-similar,

    Z(t, x) = t^{-d*alpha/(2s)}           F(x t^{-alpha/(2s)}),
    Y(t, x) = t^{-(1-alpha) - d*alpha/(2s)} G(x t^{-alpha/(2s)}),

so the radial profiles F and G are computed once (at t = 1) by inverting the
symbol with oscillatory quadrature, and every other time follows from the
scaling identity.  The symbols decay only algebraically (|xi|^{-2s} for F),
which rules out naive truncated quadrature; the inversion integrates between
consecutive zeros of the oscillatory factor and sums the alternating segment
series with repeated averaging (an Euler-transform style acceleration that
also handles the slowly decaying segments correctly).  Every break of that
rule scales with 1/r, so it is built once per dimension in x = xi r, and
the Bessel function J0 of the 2D rule is evaluated only there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedRangeError
from .special import gamma, ml_neg_fast
from .spectral import Field, SpectralField, to_real, to_spectral

__all__ = [
    "KernelProfile",
    "symbol_Z",
    "symbol_Y",
    "profile",
    "apply_propagator",
    "profile_lq_norm",
    "symbol_decay",
    "q_critical",
    "lq_norm_is_finite",
]


# --------------------------------------------------------------------------
# Fourier symbols
# --------------------------------------------------------------------------


def symbol_decay(kind: str, alpha: float, s: float) -> float:
    """Power d of the large-|xi| decay |xi|^{-d} of a kernel's symbol.

    F and Z (E_{alpha,1}) decay like |xi|^{-2s}, G and Y (E_{alpha,alpha})
    like |xi|^{-4s} when alpha < 1; at alpha = 1 both decay exponentially
    and d is inf.  In R^dim the kernel is therefore bounded at the origin
    when dim < d, and lies in L^q for q < dim/(dim - d) (`q_critical`).
    """
    if kind not in ("F", "G", "Z", "Y"):
        raise DomainError(f"kind must be 'F', 'G', 'Z' or 'Y', got {kind!r}")
    if alpha == 1.0:
        return np.inf
    return 2.0 * s if kind in ("F", "Z") else 4.0 * s


def _check_alpha_s(alpha: float, s: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if not (0.0 < s <= 1.0):
        raise DomainError(f"s must be in (0, 1], got {s}")


def _symbol_argument(t: float, xi_sq, alpha: float, s: float) -> np.ndarray:
    """The Mittag-Leffler argument |xi|^(2s) t^alpha of both symbols, checked."""
    _check_alpha_s(alpha, s)
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    xi_sq = np.asarray(xi_sq, dtype=float)
    if np.any(xi_sq < 0.0):
        raise DomainError("xi_sq must be nonnegative")
    return xi_sq**s * t**alpha


def symbol_Z(t: float, xi_sq, alpha: float, s: float):
    """Fourier symbol of the data propagator; equals 1 at xi = 0."""
    return ml_neg_fast(alpha, 1.0, _symbol_argument(t, xi_sq, alpha, s))


def symbol_Y(t: float, xi_sq, alpha: float, s: float):
    """Fourier symbol of the memory kernel; equals t^(alpha-1)/Gamma(alpha) at xi = 0."""
    return t ** (alpha - 1.0) * ml_neg_fast(
        alpha, alpha, _symbol_argument(t, xi_sq, alpha, s))


# --------------------------------------------------------------------------
# propagator application on a grid
# --------------------------------------------------------------------------


def apply_propagator(kind: str, t: float, f: Field, alpha: float, s: float) -> Field:
    """Multiply the half-spectrum modes of f by the kernel symbol and transform back.

    For kind="Z" the zero mode is multiplied by exactly 1, so the spatial
    mean of f is preserved to machine precision.
    """
    if kind not in ("Z", "Y"):
        raise DomainError(f"kind must be 'Z' or 'Y', got {kind!r}")
    symbol = symbol_Z if kind == "Z" else symbol_Y
    modes = to_spectral(f).modes * symbol(t, f.grid.xi_squared(), alpha, s)
    return to_real(SpectralField(f.grid, modes))


# --------------------------------------------------------------------------
# radial profiles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelProfile:
    """Radial profile of a kernel at t = 1 (F for Z, G for Y)."""

    kind: str  # "F" or "G"
    alpha: float
    s: float
    dim: int
    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("F", "G"):
            raise DomainError(f"kind must be 'F' or 'G', got {self.kind!r}")
        _check_alpha_s(self.alpha, self.s)
        if self.dim not in (1, 2, 3):
            raise DomainError(f"dim must be 1, 2 or 3, got {self.dim}")
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or v.shape != r.shape:
            raise DomainError("radii and values must be 1-d arrays of equal length")
        if r.size < 2 or np.any(np.diff(r) <= 0.0) or r[0] < 0.0:
            raise DomainError("radii must be increasing and nonnegative")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise DomainError("radii and values must be finite")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)


_GLQ_X, _GLQ_W = np.polynomial.legendre.leggauss(12)
_N_SEGMENTS = 72
_N_DIRECT = 12  # segments summed directly before acceleration kicks in


def _averaging_weights(n: int) -> np.ndarray:
    """Weights d with sum(d * terms) the repeated-averaging sum of n terms.

    Averaging adjacent partial sums S_0..S_{n-1} until one value is left
    gives sum_j C(n-1, j) S_j / 2^(n-1).  For alternating terms with a
    smooth envelope this is the Euler transform, and it converges even when
    the envelope decays slowly or grows sub-linearly (the Abel-summable case
    that arises for symbols with |xi|^{-2s} tails, s < 1/2, in dims 2 and 3).
    Term k enters every S_j with j >= k, so its weight is the binomial tail
    sum_{j >= k} C(n-1, j) / 2^(n-1).
    """
    pmf = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    return np.cumsum(pmf[::-1])[::-1] / 2.0 ** (n - 1)


_MILLER_START = 60  # backward-recurrence start order, ample for x < 20
_HANKEL_TERMS = 12  # terms of each of P and Q in 1/x^2, for x >= 20


def _hankel_coefficients() -> np.ndarray:
    """|a_k| = (1^2 3^2 ... (2k-1)^2) / (k! 8^k), k < 2 * _HANKEL_TERMS."""
    a = [1.0]
    for k in range(1, 2 * _HANKEL_TERMS):
        a.append(a[-1] * (2 * k - 1) ** 2 / (8.0 * k))
    return np.array(a)


_HANKEL_A = _hankel_coefficients()


def _j0(x: np.ndarray) -> np.ndarray:
    """Bessel J0 elementwise for x >= 0, within ~5e-16 absolute of mpmath.

    Power series for x <= 1; Miller's backward recurrence from order 60 for
    1 < x < 20, normalised by J0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev.
    1967); the Hankel expansion, 12 terms each in 1/x^2, for x >= 20, with
    cos(x - pi/4) and sin(x - pi/4) formed from cos x and sin x so that the
    argument is never rounded.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 1.0
    large = x >= 20.0
    mid = ~(small | large)

    q = -0.25 * x[small] ** 2
    term = np.ones_like(q)
    total = np.ones_like(q)
    for k in range(1, 12):  # the last term is below 1e-21 at x = 1
        term *= q / (k * k)
        total += term
    out[small] = total

    xm = x[mid]
    two_over_x = 2.0 / xm
    nxt = np.zeros_like(xm)  # J_{k+1}, unnormalised
    cur = np.full_like(xm, 1e-30)  # J_k
    even = np.zeros_like(xm)  # sum of J_2k for k >= 1
    for k in range(_MILLER_START, 0, -1):
        nxt, cur = cur, k * two_over_x * cur - nxt
        if k % 2 == 1 and k > 1:  # cur is now J_{k-1}, of even order >= 2
            even += cur
    out[mid] = cur / (cur + 2.0 * even)

    xl = x[large]
    z = 1.0 / (xl * xl)
    p = np.zeros_like(xl)
    q = np.zeros_like(xl)
    for k in range(_HANKEL_TERMS - 1, -1, -1):
        sign = -1.0 if k % 2 else 1.0
        p = p * z + sign * _HANKEL_A[2 * k]
        q = q * z + sign * _HANKEL_A[2 * k + 1]
    # J0 = sqrt(2/(pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)), Q = -q/x.
    c, s = np.cos(xl), np.sin(xl)
    out[large] = np.sqrt(1.0 / (np.pi * xl)) * (p * (c + s) + q / xl * (s - c))
    return out


@functools.lru_cache(maxsize=1)
def _j0_zeros() -> np.ndarray:
    """First _N_SEGMENTS + 1 zeros of J0, computed once.

    McMahon's expansion at beta = (k - 1/4) pi starts secant steps on `_j0`,
    which stop when no step moves a zero.
    """
    b = (np.arange(1, _N_SEGMENTS + 2) - 0.25) * np.pi
    e = 1.0 / (8.0 * b)
    x = b + e - (124.0 / 3.0) * e**3 + (120928.0 / 15.0) * e**5
    x_old, f_old = x + 1e-3, _j0(x + 1e-3)
    f = _j0(x)
    for _ in range(20):
        df = f - f_old
        moving = df != 0.0
        step = np.zeros_like(x)
        step[moving] = f[moving] * (x - x_old)[moving] / df[moving]
        if not step.any():
            break
        x_old, f_old = x, f
        x = x - step
        f = _j0(x)
    x.flags.writeable = False
    return x


def _split_panels(breaks: np.ndarray, width: float) -> np.ndarray:
    """Cut each interval of `breaks` into equal panels no wider than `width`.

    Interval i gets m_i panels with inner points lo + k * step, k = 1..m_i,
    and its last point set to hi: the points np.linspace(lo, hi, m_i + 1)
    gives, for all intervals at once.
    """
    lo, hi = breaks[:-1], breaks[1:]
    m = np.ceil((hi - lo) / width).astype(np.intp)
    step = (hi - lo) / m
    ends = np.cumsum(m)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - m, m)
    pts = k * np.repeat(step, m) + np.repeat(lo, m)
    pts[ends - 1] = hi
    return np.concatenate((breaks[:1], pts))


def _gauss_panels(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """12-point Gauss-Legendre nodes and weights, one row per panel."""
    half = 0.5 * np.diff(breaks)[:, None]
    mid = 0.5 * (breaks[:-1] + breaks[1:])[:, None]
    return mid + half * _GLQ_X, half * _GLQ_W


@functools.lru_cache(maxsize=3)
def _unit_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the radial inverse transform in x = xi r.

    The profile at radius r is r^-dim * sum_i w_i sym(x_i / r): every break
    below is a fixed multiple of 1/r, so the rule is built once per dim.
    In x the oscillatory factor is cos x (dim 1), J0(x) x (dim 2) or
    sin(x) x (dim 3), with its angular constant.  The head [0, x_c], x_c the
    _N_DIRECT-th zero of that factor, is cut into geometric panels
    (resolving the symbol's variation near xi = 0), at the zeros below x_c,
    and further until no panel exceeds pi, a half-period; each gets fixed
    12-point Gauss-Legendre.  The _N_SEGMENTS - _N_DIRECT + 1 half-period
    segments between the next zeros get one 12-point rule each, and their
    values are summed by repeated averaging (`_averaging_weights`), folded
    into w.
    """
    if dim == 1:
        # (1/pi) int sym(xi) cos(xi r) dxi; cos zeros at (k + 1/2) pi
        zeros = (np.arange(_N_SEGMENTS + 1) + 0.5) * np.pi
        factor = lambda x: np.cos(x) / np.pi
    elif dim == 2:
        # (1/2pi) int sym(xi) J0(xi r) xi dxi; segments between J0 zeros
        zeros = _j0_zeros()
        factor = lambda x: _j0(x) * x / (2.0 * np.pi)
    else:
        # (1/(2 pi^2 r)) int sym(xi) xi sin(xi r) dxi; sin zeros at k pi
        zeros = np.arange(1, _N_SEGMENTS + 2) * np.pi
        factor = lambda x: np.sin(x) * x / (2.0 * np.pi**2)

    cut = zeros[_N_DIRECT - 1]
    breaks = np.concatenate(([0.0], np.geomspace(cut * 1e-8, cut, 48)))
    # Sort and drop repeats; np.unique would import numpy.ma.
    breaks = np.sort(np.concatenate((breaks, zeros[: _N_DIRECT - 1])))
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    x_head, w_head = _gauss_panels(_split_panels(breaks, np.pi))
    x_tail, w_tail = _gauss_panels(zeros[_N_DIRECT - 1 :])
    w_tail *= _averaging_weights(x_tail.shape[0])[:, None]
    x = np.concatenate((x_head.ravel(), x_tail.ravel()))
    w = np.concatenate((w_head.ravel(), w_tail.ravel())) * factor(x)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _value_at_origin(alpha: float, beta: float, s: float, kind: str, dim: int) -> float:
    """Profile value at r = 0, where the transform is non-oscillatory.

    The origin value is finite only when the symbol's decay (`symbol_decay`)
    beats the xi^{dim-1} volume factor; otherwise the profile diverges at
    the origin.  With
    y = xi^{2s} and mu = dim/(2s) the value is c_dim/(2s) times the Mellin
    transform int_0^inf y^{mu-1} E_{a,b}(-y) dy = Gamma(mu) Gamma(1-mu) /
    Gamma(b - a mu); its limits are Gamma(mu) at a = 1 and a at mu = 1 (G).
    """
    if dim >= symbol_decay(kind, alpha, s):
        raise UnsupportedRangeError(
            f"profile {kind} is unbounded at r=0 for dim={dim}, s={s}, "
            f"alpha={alpha}; request strictly positive radii"
        )
    angular = {1: 1.0 / np.pi, 2: 1.0 / (2.0 * np.pi), 3: 1.0 / (2.0 * np.pi**2)}[dim]
    mu = dim / (2.0 * s)
    if alpha == 1.0:
        mellin = gamma(mu)  # inf where Gamma overflows
    elif mu == 1.0:  # only G (b = a) reaches it: Gamma(1-mu) / Gamma(a(1-mu)) -> a
        mellin = alpha
    else:
        # beta - a mu lies in (-1, 1) minus {0}, never at a pole of Gamma.
        mellin = math.gamma(mu) * math.gamma(1.0 - mu) / math.gamma(beta - alpha * mu)
    return float(angular * mellin / (2.0 * s))


def profile(kind: str, alpha: float, s: float, dim: int, radii) -> KernelProfile:
    """Radial real-space profile at t = 1 obtained by symbol inversion.

    Raises NumericalError if the quadrature produces values that violate
    positivity or radial monotonicity beyond rounding slack.
    """
    if kind not in ("F", "G"):
        raise DomainError(f"kind must be 'F' or 'G', got {kind!r}")
    _check_alpha_s(alpha, s)
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2 or 3, got {dim}")
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or r.size < 2 or np.any(np.diff(r) <= 0.0) or r[0] < 0.0:
        raise DomainError("radii must be a 1-d increasing nonnegative array")

    beta = 1.0 if kind == "F" else alpha
    values = np.empty_like(r)
    start = 0
    if r[0] == 0.0:
        values[0] = _value_at_origin(alpha, beta, s, kind, dim)
        start = 1
    x, w = _unit_rule(dim)
    for i in range(start, r.size):
        symbol = ml_neg_fast(alpha, beta, (x / r[i]) ** (2.0 * s))
        values[i] = float(w @ symbol) / r[i] ** dim

    # Quadrature sanity: the profile must be positive and radially
    # nonincreasing; fail loudly (with the offending radius) otherwise.
    scale = float(np.max(np.abs(values)))
    bad = np.nonzero(values <= -1e-9 * scale)[0]
    if bad.size:
        raise NumericalError(
            f"profile inversion produced non-positive value "
            f"{values[bad[0]]:.3e} at r={r[bad[0]]:.6g}"
        )
    values = np.maximum(values, 0.0)
    rises = np.nonzero(np.diff(values) > 1e-9 * scale)[0]
    if rises.size:
        i = rises[0]
        raise NumericalError(
            f"profile inversion lost monotonicity between r={r[i]:.6g} "
            f"and r={r[i + 1]:.6g}"
        )
    return KernelProfile(kind=kind, alpha=alpha, s=s, dim=dim, radii=r, values=values)


# --------------------------------------------------------------------------
# L^q norms from profiles
# --------------------------------------------------------------------------


def q_critical(dim: int, s: float, *, kind: str = "F", alpha: float = 0.5) -> float:
    """Upper Lebesgue exponent below which the kernel `kind` lies in L^q(R^dim).

    With d = `symbol_decay(kind, alpha, s)` it is dim/(dim - d), and inf
    when dim <= d.  The defaults give the paper's q_c = dim/(dim - 2s) of F
    and Z, the same for every alpha < 1.
    """
    decay = symbol_decay(kind, alpha, s)
    if dim <= decay:
        return np.inf
    return dim / (dim - decay)


def lq_norm_is_finite(q: float, dim: int, s: float, *, kind: str = "F",
                      alpha: float = 0.5) -> bool:
    """True when the kernel `kind` lies in L^q(R^dim): always when it is
    bounded (dim < `symbol_decay`), else for q < `q_critical`.

    A q within 1e-12 (relative) of the bound counts as the bound: decimal
    inputs such as dim = 1, s = 0.4, q = 5 sit exactly on q_c, and rounding
    in q_c could put them on either side.
    """
    return (dim < symbol_decay(kind, alpha, s)
            or q < q_critical(dim, s, kind=kind, alpha=alpha) * (1.0 - 1e-12))


_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _fit_power_law(r: np.ndarray, v: np.ndarray):
    """Least-squares slope/intercept/R^2 of log v against log r."""
    x = np.log(r)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def profile_lq_norm(
    prof: KernelProfile, q: float, *, r_min: float = 0.0, r_max: float = np.inf
) -> float:
    """||profile||_{L^q} over {r_min < |x| < r_max} in R^dim.

    The bulk is a trapezoid rule on the radial grid.  With r_min = 0 the
    piece below the first grid radius uses a power law fitted on the first
    decade (capturing either a bounded profile or an origin singularity
    r^{2s-dim}); with r_max = inf the piece beyond the last radius uses a
    power law fitted on the last decade (the profiles decay like
    r^{-dim-2s}).  The tail fit must explain the data (R^2 > 0.99) and the
    extrapolated integrals must converge, otherwise a numerical error is
    raised.  Full-space norms with q at or above the profile's
    `q_critical` (dim/(dim - 2s) for F, dim/(dim - 4s) for G when alpha < 1,
    none at alpha = 1) are rejected: the origin singularity makes them
    infinite.
    """
    if not 1.0 <= q < np.inf:
        raise DomainError(f"q must be finite and >= 1, got {q}")
    if not (0.0 <= r_min < r_max):
        raise DomainError(f"need 0 <= r_min < r_max, got {r_min}, {r_max}")
    full_space = r_min == 0.0 and np.isinf(r_max)
    if full_space:
        bound = dict(kind=prof.kind, alpha=prof.alpha)
        if not lq_norm_is_finite(q, prof.dim, prof.s, **bound):
            raise UnsupportedRangeError(
                f"L^{q} norm of {prof.kind} is infinite for dim={prof.dim}, "
                f"s={prof.s}, alpha={prof.alpha} (requires q < "
                f"{q_critical(prof.dim, prof.s, **bound):.6g})"
            )
    r = prof.radii
    v = prof.values
    if r[0] == 0.0:
        r = r[1:]
        v = v[1:]
    pos = v > 0.0
    if not np.all(pos):
        last = int(np.nonzero(pos)[0][-1]) + 1
        r, v = r[:last], v[:last]

    # Power-law models of the first and last decades, reused for the
    # sub-grid head, the extrapolated tail, and interpolation at the cuts.
    head_mask = r <= r[0] * 10.0
    if np.count_nonzero(head_mask) < 4:
        head_mask = np.zeros_like(r, dtype=bool)
        head_mask[: min(4, r.size)] = True
    h_slope, h_inter, _ = _fit_power_law(r[head_mask], v[head_mask])
    tail_mask = r >= r[-1] / 10.0
    if np.count_nonzero(tail_mask) < 4:
        raise NumericalError("too few radii in the last decade for tail fitting")
    t_slope, t_inter, t_r2 = _fit_power_law(r[tail_mask], v[tail_mask])

    def model_value(rr: float) -> float:
        logs = np.log(r)
        return float(np.exp(np.interp(np.log(rr), logs, np.log(v))))

    lo = max(r_min, r[0])
    hi = min(r_max, r[-1])
    total = 0.0
    if hi > lo:
        inside = (r >= lo) & (r <= hi)
        rr = r[inside]
        vv = v[inside]
        if rr.size == 0 or rr[0] > lo:
            rr = np.concatenate(([lo], rr))
            vv = np.concatenate(([model_value(lo)], vv))
        if rr[-1] < hi:
            rr = np.concatenate((rr, [hi]))
            vv = np.concatenate((vv, [model_value(hi)]))
        total += float(np.trapezoid(vv**q * rr ** (prof.dim - 1), rr))

    if r_min < r[0]:
        # Head [r_min, r_0] from the first-decade power law.
        head_pow = q * h_slope + prof.dim
        if head_pow <= 0.0 and r_min == 0.0:
            raise NumericalError(
                f"head extrapolation diverges (fitted local exponent {h_slope:.3f})"
            )
        top = min(r[0], r_max)
        total += np.exp(q * h_inter) * (top**head_pow - r_min**head_pow) / head_pow
    if r_max > r[-1]:
        # Tail [r_end, r_max] from the last-decade power law.
        if t_r2 < 0.99:
            raise NumericalError(
                f"tail power-law fit is poor (R^2 = {t_r2:.4f}); extend the radii"
            )
        tail_pow = q * t_slope + prof.dim
        bottom = max(r[-1], r_min)
        if np.isinf(r_max):
            if tail_pow >= 0.0:
                raise NumericalError(
                    f"tail extrapolation diverges (fitted decay exponent {t_slope:.3f})"
                )
            total += -np.exp(q * t_inter) * bottom**tail_pow / tail_pow
        else:
            total += (
                np.exp(q * t_inter) * (r_max**tail_pow - bottom**tail_pow) / tail_pow
            )

    return float((_SPHERE_AREA[prof.dim] * total) ** (1.0 / q))
