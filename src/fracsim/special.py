"""Gamma, Beta, Mittag-Leffler and Wright functions on the ranges the lab uses.

The two-parameter Mittag-Leffler function E_{a,b} is only ever needed on the
closed negative real axis, where it is completely monotone for a in (0,1].
Evaluation uses three regimes, writing x = -z >= 0:

* power series for x <= x_lo, the same terms n = 0 .. N for every
  argument: N is the first n after which x_lo^n / Gamma(a n + b) stays
  below 1e-18, and x_lo is half the largest argument whose floating-point
  cancellation stays below ~1e4 ulps of the max term (N = 27 to 68 and
  x_lo = 0.8 to 2.5 for the orders used here),
* the branch-cut (Laplace-type) integral representation of Gorenflo,
  Loutchko & Luchko (2002) for x_lo < x < 150 and b <= 1, summed for all
  arguments of a call at once by one fixed composite Gauss-Legendre rule in
  log r whose nodes depend only on (a, b); b > 1 steps down to b <= 1 with
  the exact recursion.  At a = 1 that integrand has a pole on the real
  axis, and Kummer's transformation of E_{1,b}(-x) = 1F1(1; b; -x)/Gamma(b)
  takes its place for every b (`_kummer_neg`),
* the algebraic asymptotic expansion (8 terms) for x >= 150.

Every regime is elementwise: a value depends only on its own argument,
never on the other arguments of the call.  Against a 25-digit mpmath
quadrature the three regimes are within 1e-14 absolute on both sides of
both edges (worst 9.7e-15, at a = b = 0.7 just below x_lo) for a in
{0.3, 0.5, 0.7, 0.9, 0.95} and b in {a, 1}; at a = 1 they are within 1e-14
absolute of 40-digit mpmath 1F1 for b in [0.01, 10] on [0, 1e6].  Only
b = 1 and b = 2 at a = 1 skip the regimes, for the closed forms exp(-x)
and (1 - exp(-x))/x.

`ml_e_neg` evaluates these regimes directly.  It builds the table below,
is the scalar API and is the oracle in tests.  Every bulk caller goes
through `ml_neg_fast` instead: the time stepper's `LinearPlan` (cell
weights, forcing weights, the Z(t)u0 propagator) and the kernels (the Z and
Y symbols, propagator application, profile inversion).  The largest bulk
callers, the march's cell weights (at the K ~ 35-70 interpolation nodes
of `LinearPlan.cell_interpolant` per left end, not at every eigenvalue)
and profile inversion, write their arguments into a scratch they keep and
hand the table that array as `out`, so it evaluates them in place and
allocates nothing of their size.
`ml_neg_fast` keeps one cached table per (a, b), fitted from the three
regimes with degree-15 interpolants on pieces of width 1/2 in log1p(y), 32
arguments per unit of log1p(y), and extended on demand whenever a call
reaches past the pieces built so far, by one `ml_e_neg` call per
extension on just the blocks it needs; since every regime is elementwise,
a table's bytes do not depend on how it was extended.  Each fitted piece
is stored economized, as 64 degree-4 sub-pieces of width 1/128: the
interpolant re-expanded in each sub-piece's Chebyshev basis and truncated
there.  The sub-pieces are stored coefficient-major (one row per monomial
power, one column per sub-piece) and evaluated by Horner on the 5
contiguous rows of one gather per chunk of 8192 points.  The table is
within 1e-14 of `ml_e_neg` on y in [0, 1e4] (worst 5.8e-15 over a in
{0.3, 0.5, 0.7, 0.9, 0.95}, b in {1, a, a + 1, a + 0.75, a + 0.5}).  At
a = 1 there is no table: `ml_neg_fast` hands off to `ml_e_neg`.

Gamma values come from the standard library's `math.gamma` and
`math.lgamma`; `_rgamma` is 1/Gamma with 0.0 at the poles and beyond the
overflow point.

The Wright function phi_a(t) = sum (-t)^n / (n! Gamma(1 - a (n + 1))) is that
float series for t <= 0.3, where its terms do not cancel, and beyond it
Kanter's positive integral for the one-sided stable density (Kanter 1975;
Mainardi, Mura & Pagnini 2010) on one fixed Gauss-Legendre rule per a.
Against an uncapped mpmath series it is within 3e-15 absolute for a in
[0.1, 0.95] (1.1e-14 at a = 0.99), and it is never negative.
"""
from __future__ import annotations

import functools
import math
import threading

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, PreconditionError, check_open_order

__all__ = [
    "gamma",
    "beta_fn",
    "ml_e_neg",
    "wright_phi",
    "wright_tail_cut",
]

_SERIES_STOP = 1e-18
_ASYMPTOTIC_EDGE = 150.0
_ASYMPTOTIC_TERMS = 8
_MAX_SERIES_TERMS = 600
_EVAL_BLOCK = 1 << 16  # (argument, term or node) pairs per evaluation block


def gamma(x: float) -> float:
    """Euler Gamma restricted to positive real arguments; inf past overflow."""
    if not np.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def beta_fn(a: float, b: float) -> float:
    """Euler Beta B(a, b) for positive real arguments."""
    if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta_fn requires a, b > 0, got {a!r}, {b!r}")
    if a + b < 170.0:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _rgamma(x: float) -> float:
    """1/Gamma(x) for real x > -170; 0.0 at the poles x = 0, -1, -2, ... and
    where Gamma(x) overflows (x > 171.62)."""
    x = float(x)
    if x <= 0.0 and x.is_integer():
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def _lgamma_row(z: np.ndarray) -> np.ndarray:
    """log|Gamma(z)| elementwise for z > 0, from `math.lgamma`."""
    return np.array([math.lgamma(v) for v in z.tolist()])


# --------------------------------------------------------------------------
# vectorized E_{a,b}(-y), y >= 0
# --------------------------------------------------------------------------


def _series_neg(alpha: float, beta: float, y: np.ndarray) -> np.ndarray:
    """Power series E_{a,b}(-y) = sum_{n <= N} (-y)^n / Gamma(a n + b) with
    compensated (Kahan) accumulation.

    Every argument sums the same N + 1 terms of `_series_rule`, in blocks of
    at most _EVAL_BLOCK (argument, term) pairs: the powers by one running
    product and the running sums by one running addition along the term
    axis, in term order, and each addition's exact rounding error (Knuth's
    TwoSum, equal to the Fast2Sum of the larger operand) summed once and
    added to the last running sum.  The values are those of the
    term-by-term loop, and each depends only on its own argument.
    """
    coeffs = _series_rule(alpha, beta)[1]
    out = np.empty_like(y)
    m = max(1, _EVAL_BLOCK // coeffs.size)
    for lo in range(0, y.size, m):
        yb = y[lo : lo + m]
        terms = np.empty((coeffs.size, yb.size))
        terms[0] = 1.0
        terms[1:] = -yb
        np.multiply.accumulate(terms, axis=0, out=terms)
        terms *= coeffs[:, None]
        sums = np.add.accumulate(terms, axis=0)
        before, after = sums[:-1], sums[1:]
        term_part = after - before
        loss = (before - (after - term_part)) + (terms[1:] - term_part)
        out[lo : lo + m] = sums[-1] + loss.sum(axis=0)
    return out


def _asymptotic_neg(alpha: float, beta: float, y: np.ndarray) -> np.ndarray:
    """Algebraic large-argument expansion of E_{a,b}(-y)."""
    out = np.zeros_like(y)
    inv = 1.0 / y
    power = np.ones_like(y)
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        power = power * inv
        coeff = _rgamma(beta - alpha * k)
        if coeff != 0.0:
            out += (-1.0) ** (k + 1) * coeff * power
    return out


@functools.lru_cache(maxsize=256)
def _series_rule(alpha: float, beta: float) -> tuple[float, np.ndarray]:
    """Upper end x_lo of the series regime and its coefficients
    1 / Gamma(a n + b), n = 0 .. N.

    x_lo is half the largest argument whose alternating-sum cancellation
    stays ~<= 1e4: at the full argument the series is up to ~1e-11 off, at
    half of it ~1e-15, and the branch-cut rule is as accurate on both
    sides.  N is the first n after which x_lo^n / Gamma(a n + b) stays below
    _SERIES_STOP, so no argument of the regime has a larger dropped term.
    """
    n = np.arange(1, _MAX_SERIES_TERMS)
    lg = _lgamma_row(alpha * n + beta)
    x_lo = next((0.5 * x for x in (5.0, 4.0, 3.0, 2.5, 2.0, 1.6, 1.3, 1.0, 0.8,
                                   0.6, 0.5, 0.4, 0.3)
                 if np.max(n * math.log(x) - lg) <= math.log(1e4)), 0.125)
    # N is one past the last n whose term at x_lo reaches the stop.
    big = n[n * math.log(x_lo) - lg >= math.log(_SERIES_STOP)]
    last = int(big[-1]) + 1 if big.size else 1
    coeffs = np.array([_rgamma(alpha * i + beta) for i in range(last + 1)])
    coeffs.setflags(write=False)
    return x_lo, coeffs


@functools.lru_cache(maxsize=4)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of `order`-point Gauss-Legendre on [-1, 1]."""
    x, w = leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (panels, order) of composite `order`-point
    Gauss-Legendre on `edges`."""
    x, w = _gauss_legendre(order)
    half = 0.5 * np.diff(edges)[:, None]
    return (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x, half * w


def power_law_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope, intercept and R^2 of log y against log x.

    Closed form from the centred sums: slope = sum dx dy / sum dx^2 and
    intercept = mean(log y) - slope mean(log x), with R^2 = 1 for a
    constant log y.  Fewer than two distinct log x raise PreconditionError.
    """
    log_x, log_y = np.log(x), np.log(y)
    mean_x, mean_y = float(np.mean(log_x)), float(np.mean(log_y))
    dx, dy = log_x - mean_x, log_y - mean_y
    sxx = float(dx @ dx)
    if not sxx > 0.0:
        raise PreconditionError("a power-law fit needs two distinct x values")
    slope = float(dx @ dy) / sxx
    ss_tot = float(dy @ dy)
    dy -= slope * dx
    r2 = 1.0 - float(dy @ dy) / ss_tot if ss_tot > 0.0 else 1.0
    return slope, mean_y - slope * mean_x, r2


@functools.lru_cache(maxsize=64)
def _branch_cut_rule(alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """Nodes r^a and weights of the fixed branch-cut rule for (a, b).

    Composite 20-point Gauss-Legendre in u = log r, from u_lo, where the
    integrand of `_branch_cut` has fallen below 1e-18, up to r = 45, where
    e^-r < 3e-20.  In u the integrand is analytic except where its
    denominator vanishes, at Re u = log(x)/a, Im u = +-pi (1-a)/a.  Above
    u_mid = min(log(x_lo)/a - 2, 0) panels of width min(0.5, 2 pi (1-a)/a)
    resolve those poles and the bend of e^-r; below it the integrand is a
    smooth power of r times a factor that flattens as r falls, so the panels
    there double in width leftwards from 4 (4, 8, 16, ... below u_mid).  The
    nodes depend on (a, b) only, never on the arguments.
    """
    x_lo = _series_rule(alpha, beta)[0]
    u_hi = math.log(45.0)
    u_mid = min(math.log(x_lo) / alpha - 2.0, 0.0)
    u_lo = math.log(1e-18 * x_lo) / (alpha - beta + 1.0)
    h = min(0.5, 2.0 * math.pi * (1.0 - alpha) / alpha)
    n_fine = math.ceil((u_hi - u_mid) / h)
    # Widths 4 * 2^k, k < n_coarse, cover u_mid - u_lo <= 4 (2^n_coarse - 1).
    n_coarse = math.ceil(math.log2(max(u_mid - u_lo, 0.0) / 4.0 + 1.0))
    edges = np.concatenate([
        u_mid - 4.0 * (2.0 ** np.arange(n_coarse, 0, -1) - 1.0),
        np.linspace(u_mid, u_hi, n_fine + 1),
    ])
    u, w = gauss_panels(edges, 20)
    w = w * np.exp(-np.exp(u) + (alpha - beta + 1.0) * u) / math.pi
    rho = np.exp(alpha * u)
    rule = (
        rho.ravel(),
        (w * rho * math.sin(math.pi * beta)).ravel(),
        (w * math.sin(math.pi * (alpha - beta))).ravel(),
    )
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _branch_cut(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """E_{a,b}(-x) for 0 < a < 1, 0 < b <= 1 and x in (x_lo, 150).

    The collapsed Hankel contour (no origin contribution for b <= 1) gives

        E_{a,b}(-x) = 1/pi int_0^inf e^-r r^(a-b)
                      (r^a sin(pi b) - x sin(pi (a-b)))
                      / (r^2a + 2 x r^a cos(pi a) + x^2) dr,

    summed with `_branch_cut_rule` for all x at once, in blocks of at most
    _EVAL_BLOCK (argument, node) pairs.  Each value is a row sum of
    elementwise terms, so it does not depend on the other arguments.
    """
    rho, w_a, w_b = _branch_cut_rule(alpha, beta)
    c = math.cos(math.pi * alpha)
    s2 = math.sin(math.pi * alpha) ** 2
    out = np.empty_like(x)
    m = max(1, _EVAL_BLOCK // rho.size)
    for lo in range(0, x.size, m):
        xb = x[lo : lo + m, None]
        # r^2a + 2 x r^a cos(pi a) + x^2 = (r^a + x cos(pi a))^2 + (x sin(pi a))^2
        den = rho + c * xb
        den *= den
        den += s2 * xb * xb
        num = w_a - xb * w_b
        num /= den
        out[lo : lo + m] = num.sum(axis=1)
    return out


# Kummer sum terms k = 0 .. 150 + 12 sqrt(150) + 40 and their log k!; past
# them the Poisson weights e^-x x^k / k! of every mid-range x are below e^-80
# of their sum.
_KUMMER_K = np.arange(
    math.ceil(_ASYMPTOTIC_EDGE + 12.0 * math.sqrt(_ASYMPTOTIC_EDGE) + 40.0) + 1.0)
_KUMMER_LOG_FACT = _lgamma_row(_KUMMER_K + 1.0)


def _kummer_neg(beta: float, x: np.ndarray) -> np.ndarray:
    """E_{1,b}(-x) for b > 0, b != 1 and x in (x_lo, 150).

    Kummer's transformation M(a, b, z) = e^z M(b - a, b, -z) (DLMF 13.2.39)
    takes E_{1,b}(-x) = M(1, b, -x) / Gamma(b) to

        E_{1,b}(-x) = 1/Gamma(b-1) sum_k e^-x x^k / (k! (k + b - 1)),

    Poisson weights over k + b - 1: past k = 0 every term has one sign, so
    the sum does not cancel.  Every x sums the same terms, _KUMMER_K, in
    blocks of at most _EVAL_BLOCK (argument, term) pairs, so each
    value does not depend on the other arguments.
    """
    k = _KUMMER_K
    inv = 1.0 / (k + (beta - 1.0))
    out = np.empty_like(x)
    m = max(1, _EVAL_BLOCK // k.size)
    for lo in range(0, x.size, m):
        xb = x[lo : lo + m, None]
        t = np.log(xb) * k
        t -= xb
        t -= _KUMMER_LOG_FACT
        # Far-tail weights round to 0 against the sum either way; clamped,
        # exp stays off its slow subnormal and underflow paths.
        np.maximum(t, -700.0, out=t)
        np.exp(t, out=t)
        t *= inv
        out[lo : lo + m] = t.sum(axis=1)
    return out * _rgamma(beta - 1.0)


def ml_e_neg(alpha: float, beta: float, y):
    """E_{alpha,beta}(-y) for y >= 0, elementwise over arrays.

    alpha in (0, 1], beta > 0 finite.  Each value depends only on its own
    argument: every argument of a regime sums the same terms, N(alpha,
    beta) + 1 of the series below x_lo, the fixed branch-cut rule (Kummer's
    sum at alpha = 1) on x_lo < y < 150, and 8 of the asymptotic expansion
    from y = 150 on.  Against mpmath the absolute error is below 1e-14 for
    alpha in {0.3, 0.5, 0.7, 0.9, 0.95} and beta in {alpha, 1}, and at
    alpha = 1 for beta from 0.01 to 10, on both sides of the series edge
    x_lo and of the asymptotic edge y = 150 as well.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(~np.isfinite(y_arr)) or np.any(y_arr < 0.0):
        raise DomainError("ml_e_neg requires finite y >= 0")
    if not (0.0 < alpha <= 1.0 and 0.0 < beta < math.inf):
        raise DomainError(f"bad Mittag-Leffler orders alpha={alpha!r} beta={beta!r}")

    out = np.empty_like(y_arr)
    if alpha == 1.0 and beta in (1.0, 2.0):
        # Closed forms: e^-y, and the (1 - e^-y)/y of every cell weight of an
        # alpha = 1 march.  Other beta take the three regimes below.
        if beta == 1.0:
            out[:] = np.exp(-y_arr)
        else:
            small = y_arr < 1e-8
            out[small] = 1.0 - y_arr[small] / 2.0
            ys = y_arr[~small]
            out[~small] = -np.expm1(-ys) / ys
        return float(out[0]) if scalar else out

    x_lo = _series_rule(alpha, beta)[0]
    m_series = y_arr <= x_lo
    m_asym = y_arr >= _ASYMPTOTIC_EDGE
    m_mid = ~(m_series | m_asym)

    if np.any(m_series):
        out[m_series] = _series_neg(alpha, beta, y_arr[m_series])
    if np.any(m_asym):
        out[m_asym] = _asymptotic_neg(alpha, beta, y_arr[m_asym])
    if np.any(m_mid):
        ym = y_arr[m_mid]
        if alpha == 1.0:
            out[m_mid] = _kummer_neg(beta, ym)
        elif beta <= 1.0:
            out[m_mid] = _branch_cut(alpha, beta, ym)
        else:
            # Step the second order parameter down with the exact recursion
            # E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z until b <= 1.
            c = _rgamma(beta - alpha)
            out[m_mid] = (c - ml_e_neg(alpha, beta - alpha, ym)) / ym
    return float(out[0]) if scalar else out


# --------------------------------------------------------------------------
# fast bulk evaluator for solver hot paths
# --------------------------------------------------------------------------


def _chebyshev_to_monomial(deg: int) -> np.ndarray:
    """Integer matrix M with T_j(x) = sum_k M[k, j] x^k for j, k <= deg."""
    m = np.zeros((deg + 1, deg + 1))
    m[0, 0] = m[1, 1] = 1.0
    for j in range(2, deg + 1):
        # T_j = 2 x T_{j-1} - T_{j-2}
        m[1:, j] = 2.0 * m[:-1, j - 1]
        m[:, j] -= m[:, j - 2]
    return m


@functools.cache
def _re_expansion(deg: int, sub: int, sub_deg: int) -> np.ndarray:
    """Read-only (deg + 1, sub * (sub_deg + 1)) map from the values of a
    degree-`deg` polynomial at the deg + 1 Chebyshev points cos(pi (l + 1/2)
    / (deg + 1)) to, on each of `sub` equal sub-intervals of [-1, 1], the
    monomial coefficients in s in [-1/2, 1/2) of its Chebyshev truncation to
    degree `sub_deg` there: column j * (sub_deg + 1) + r is coefficient r on
    sub-interval j.

    On sub-interval j, with center x_j and half-width h = 1/sub, x = x_j +
    h u with u = 2 s.  The values go to Chebyshev coefficients c_k by the
    discrete cosine projection, and each T_k(x_j + h u) to its Chebyshev
    coefficients S_k in u by the three-term recurrence T_{k+1} = 2 x T_k -
    T_{k-1}, with u T_0 = T_1 and u T_m = (T_{m+1} + T_{m-1}) / 2.  Each
    coefficient of S_k is then accurate relative to itself, while the
    small high-order ones would lose their digits if they were read off
    sampled values, and a detour through degree-`deg` monomials loses more
    (the map is tested against exact rational arithmetic).
    """
    n = deg + 1
    proj = (2.0 / n) * np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n)
    proj[0] *= 0.5
    h = 1.0 / sub
    x_j = (-1.0 + (2.0 * np.arange(sub) + 1.0) * h)[:, None]
    prev = np.zeros((sub, n))
    prev[:, 0] = 1.0
    cur = np.zeros((sub, n))
    cur[:, 0], cur[:, 1] = x_j[:, 0], h
    local = np.empty((n, sub, sub_deg + 1))  # S_k[m], m <= sub_deg
    local[0], local[1] = prev[:, : sub_deg + 1], cur[:, : sub_deg + 1]
    for k in range(2, n):
        hu = h * cur
        nxt = 2.0 * x_j * cur - prev
        nxt[:, 1:] += hu[:, :-1]
        nxt[:, 1] += hu[:, 0]
        nxt[:, :-1] += hu[:, 1:]
        prev, cur = cur, nxt
        local[k] = cur[:, : sub_deg + 1]
    # T_m(2 s) to monomials in s, then (values, sub-interval, coefficient).
    scale = _chebyshev_to_monomial(sub_deg) * 2.0 ** np.arange(sub_deg + 1)[:, None]
    lagrange = (proj.T @ local.reshape(n, -1)).reshape(n, sub, sub_deg + 1)
    out = (lagrange @ scale.T).reshape(n, -1)
    out.setflags(write=False)
    return out


class _FastMLNeg:
    """Piecewise polynomial fit of y -> E_{a,b}(-y) in v = log1p(y).

    Fitted piece i covers v in [i * FIT_PIECE, (i + 1) * FIT_PIECE]: the
    degree-FIT_DEG interpolant on that piece's own Chebyshev nodes.  It is
    stored economized (Trefethen, Approximation Theory and Approximation
    Practice, ch. 4) as SUB sub-pieces of width PIECE = FIT_PIECE / SUB:
    on each, the interpolant is re-expanded in that sub-piece's Chebyshev
    basis and truncated to degree DEG (`_re_expansion`).  Sub-piece k
    covers v in [k * PIECE, (k + 1) * PIECE] and is column k of the
    C-contiguous, coefficient-major `coeffs` (DEG+1, sub-pieces): monomial
    coefficients in the local variable t = v / PIECE - k - 1/2 in
    [-1/2, 1/2).  A chunk of points gathers its sub-pieces' columns into
    DEG+1 contiguous rows and runs Horner along them.

    Pieces are fitted in aligned blocks of BLOCK, one unit of v each.  An
    extension fits all the blocks it appends from one vectorised `ml_e_neg`
    call on their nodes, so every value comes from the series, branch-cut or
    asymptotic regime that owns it, and re-expands each block by one matrix
    product of fixed shape, so every sub-piece depends only on its block's
    values.  Every regime of `ml_e_neg` is elementwise, so those values do
    not depend on which other blocks the same call fits.  The table starts
    empty and appends the blocks a call needs whenever it reaches past the
    last one; existing pieces are never refitted, so a value does not
    depend on what was evaluated before and is never extrapolated.
    Appending is serialised by a lock, so threads sharing a table each see
    whole, correctly ordered pieces.  The table is within ~1e-14 of
    `ml_e_neg` on y in [0, 1e4], and each sub-piece within 1e-14 of its
    interpolant, relative to the largest value (validated in tests).
    """

    FIT_DEG = 15
    FIT_PIECE = 0.5  # fitted piece width in log1p(y)
    SUB = 64  # stored sub-pieces per fitted piece
    DEG = 4
    PIECE = FIT_PIECE / SUB  # stored sub-piece width in log1p(y)
    BLOCK = 2  # fitted pieces per fitting block: one unit of log1p(y)
    CHUNK = 8192  # points per evaluation chunk
    # Nodes of one block in units of FIT_PIECE, relative to its first piece.
    _BLOCK_NODES = np.arange(BLOCK)[:, None] + 0.5 + 0.5 * np.cos(
        np.pi * (np.arange(FIT_DEG + 1) + 0.5) / (FIT_DEG + 1.0))

    def __init__(self, alpha: float, beta: float) -> None:
        self.alpha, self.beta = alpha, beta
        self.coeffs = np.empty((self.DEG + 1, 0))
        self._lock = threading.Lock()

    def _fit_blocks(self, first: int, stop: int) -> np.ndarray:
        """Coefficient columns (DEG+1, (stop - first) * BLOCK * SUB) of the
        sub-pieces of aligned blocks first .. stop - 1."""
        starts = np.arange(first, stop)[:, None, None] * self.BLOCK
        v = (starts + self._BLOCK_NODES) * self.FIT_PIECE
        values = ml_e_neg(self.alpha, self.beta, np.expm1(v).ravel())
        expand = _re_expansion(self.FIT_DEG, self.SUB, self.DEG)
        # Sub-piece j of piece i in a block is its column i * SUB + j.
        return np.concatenate([
            (block @ expand).reshape(-1, self.DEG + 1).T
            for block in values.reshape(stop - first, self.BLOCK, -1)], axis=1)

    def _extend(self, n_pieces: int) -> np.ndarray:
        """Append fitted blocks until the table holds `n_pieces` sub-pieces;
        return it."""
        with self._lock:
            c = self.coeffs
            per_block = self.BLOCK * self.SUB
            have = c.shape[1] // per_block
            need = -(-n_pieces // per_block)
            if have < need:
                c = np.concatenate([c, self._fit_blocks(have, need)], axis=1)
                self.coeffs = c
        return c

    def __call__(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values at a 1-D array y >= 0, in chunks of at most CHUNK points,
        written into `out` (new when None; it may be y itself).

        Chunking caps the gathered coefficients at CHUNK points, so their
        memory does not grow with the size of the call, and the chunk
        buffers are made once per thread (`_chunk_buffers`).  Each chunk of
        y is read before the same chunk of `out` is written, so `out=y`
        evaluates in place.
        """
        if out is None:
            out = np.empty_like(y)
        m = min(y.size, self.CHUNK)
        t_buf, idx_buf, rows_buf = _chunk_buffers()
        for lo in range(0, y.size, m):
            n = min(m, y.size - lo)
            t = t_buf[:n]
            idx = idx_buf[:n]
            np.log1p(y[lo : lo + n], out=t)
            t *= 1.0 / self.PIECE
            idx[...] = t  # truncation is floor for t >= 0
            # One snapshot of the table per chunk, at least `top` sub-pieces
            # long, so "clip" below never clamps.
            top = int(idx.max()) + 1
            c = self.coeffs
            if top > c.shape[1]:
                c = self._extend(top)
            rows = rows_buf[: (self.DEG + 1) * n].reshape(self.DEG + 1, n)
            np.take(c, idx, axis=1, out=rows, mode="clip")
            # Local variable frac(v / PIECE) - 1/2 in [-1/2, 1/2).
            t -= idx
            t -= 0.5
            o = out[lo : lo + n]
            np.multiply(rows[self.DEG], t, out=o)
            for k in range(self.DEG - 1, 0, -1):
                o += rows[k]
                o *= t
            o += rows[0]
        return out


_CHUNK_BUFFERS = threading.local()


def _chunk_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's t, idx and gathered-rows buffers for one chunk of
    `_FastMLNeg.__call__`, made on its first call.

    Kept for the life of the thread, so an in-place table call allocates
    nothing: freeing ~0.46 MB on every call let glibc trim its heap, and
    the next call faulted the pages back in.
    """
    bufs = getattr(_CHUNK_BUFFERS, "bufs", None)
    if bufs is None:
        n = _FastMLNeg.CHUNK
        bufs = (np.empty(n), np.empty(n, dtype=np.intp),
                np.empty((_FastMLNeg.DEG + 1) * n))
        _CHUNK_BUFFERS.bufs = bufs
    return bufs


_FAST_CACHE: dict[tuple[float, float], _FastMLNeg] = {}


def ml_neg_fast(alpha: float, beta: float, y, *, out: np.ndarray | None = None):
    """E_{alpha,beta}(-y) for y >= 0 from the cached, self-extending table.

    Same orders, domain and return type as `ml_e_neg` (a float for scalar
    y), which builds the table for (alpha, beta) and extends it on demand.
    At alpha = 1 it hands off to `ml_e_neg`, and y == 0 gives exactly
    1/Gamma(beta).  With `out`, a C-contiguous float64
    array of y's shape, the values are written into it and it is returned;
    `out=y` evaluates in place, with the same values as a new array.
    """
    y_arr = np.asarray(y, dtype=float)
    if out is None:
        values = np.empty(y_arr.shape)
    elif (isinstance(out, np.ndarray) and out.dtype == np.float64
          and out.shape == y_arr.shape and out.flags.c_contiguous
          and out.flags.writeable):
        values = out
    else:
        raise DomainError(
            "out must be a writeable C-contiguous float64 array of y's shape")
    if y_arr.size == 0:
        return values
    lo, hi = y_arr.min(), y_arr.max()
    # NaN fails the first test and +inf the second.
    if not (lo >= 0.0 and hi < math.inf):
        raise DomainError("ml_neg_fast requires finite y >= 0")
    if alpha == 1.0:
        values[...] = ml_e_neg(alpha, beta, y_arr)
    else:
        key = (alpha, beta)
        ev = _FAST_CACHE.get(key)
        if ev is None:
            ev = _FastMLNeg(alpha, beta)
        flat, flat_values = y_arr.ravel(), values.reshape(-1)
        # Taken before the table runs: with out=y it overwrites the arguments.
        zeros = flat == 0.0 if lo == 0.0 else None
        ev(flat, flat_values)
        # Cached only once a first fit succeeded: ml_e_neg validates the orders.
        _FAST_CACHE.setdefault(key, ev)
        if zeros is not None:
            # The fit is only ~1e-15 off at y = 0; the zero mode must be exact.
            flat_values[zeros] = _rgamma(beta)
    return float(values) if out is None and y_arr.ndim == 0 else values


# --------------------------------------------------------------------------
# Wright function phi_alpha on the nonnegative axis
# --------------------------------------------------------------------------

_WRIGHT_SERIES_EDGE = 0.3  # theta <= this: the power series, 40 terms


def wright_tail_cut(alpha: float) -> float:
    """Argument beyond which phi_alpha is below ~1e-14 (stretched-exponential tail)."""
    check_open_order(alpha)
    b = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    return (34.0 / b) ** (1.0 - alpha)


@functools.lru_cache(maxsize=64)
def _wright_rule(alpha: float) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """Series coefficients, log A and log(w A / (pi (1 - alpha))) for alpha.

    Composite 20-point Gauss-Legendre on two panels of phi in [0, pi/2] and
    on panels of width min(1, 2 (1 - alpha)) in log g, g = pi - phi, from
    pi/2 down to g_min, where A theta^e >= 60 for every theta above the
    series edge (A ~ C g^-e near g = 0, C = sin(alpha pi)^(alpha e)
    sin((1 - alpha) pi)).  Each sine is taken of the smaller of k phi and
    pi - k phi, so none loses digits near pi.
    """
    coeffs = tuple(_rgamma(1.0 - alpha * (n + 1.0)) / math.factorial(n)
                   for n in range(40))
    e = 1.0 / (1.0 - alpha)
    # log g_min from C (edge / g_min)^e = 60
    u_lo = (math.log(_WRIGHT_SERIES_EDGE) + alpha * math.log(math.sin(alpha * math.pi))
            + (1.0 - alpha) * math.log(math.sin((1.0 - alpha) * math.pi) / 60.0))
    h = min(1.0, 2.0 * (1.0 - alpha))
    u_hi = math.log(0.5 * math.pi)
    n = math.ceil((u_hi - u_lo) / h)
    phi_p, w_p = gauss_panels(np.linspace(0.0, 0.5 * math.pi, 3), 20)
    u, w_u = gauss_panels(np.linspace(u_hi - n * h, u_hi, n + 1), 20)
    g_u = np.exp(u.ravel())
    phi = np.concatenate([phi_p.ravel(), math.pi - g_u])
    g = np.concatenate([math.pi - phi_p.ravel(), g_u])
    w = np.concatenate([w_p.ravel(), w_u.ravel() * g_u])

    def log_sin(k: float, rest: float) -> np.ndarray:  # log sin(k phi), rest = 1 - k
        return np.log(np.sin(np.minimum(k * phi, rest * math.pi + k * g)))

    log_a = (alpha * e * log_sin(alpha, 1.0 - alpha) + log_sin(1.0 - alpha, alpha)
             - e * log_sin(1.0, 0.0))
    log_wa = np.log(w / (math.pi * (1.0 - alpha))) + log_a
    for arr in (log_a, log_wa):
        arr.setflags(write=False)
    return coeffs, log_a, log_wa


def wright_phi(alpha: float, theta: float) -> float:
    """Wright function phi_alpha(theta) for alpha in (0,1), theta >= 0.

    The power series up to theta = 0.3 (exactly 1/Gamma(1 - alpha) at 0),
    beyond it Kanter's integral on the rule of `_wright_rule`, e = 1/(1 - alpha):

        phi_alpha(theta) = theta^(alpha e) / (pi (1 - alpha))
                           int_0^pi A(phi) exp(-A(phi) theta^e) dphi,
        A(phi) = sin(alpha phi)^(alpha e) sin((1 - alpha) phi) / sin(phi)^e.

    Each term is one exponential, so none overflows; the far tail is 0.
    """
    check_open_order(alpha)
    if not np.isfinite(theta) or theta < 0.0:
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    coeffs, log_a, log_wa = _wright_rule(alpha)
    if theta <= _WRIGHT_SERIES_EDGE:
        total, x = 0.0, -float(theta)
        for coeff in reversed(coeffs):
            total = total * x + coeff
        return total
    e = 1.0 / (1.0 - alpha)
    lt = math.log(theta)
    with np.errstate(over="ignore"):  # A theta^e = inf: a term of exactly 0
        a_t = np.exp(log_a + e * lt)
    return float(np.exp(log_wa + alpha * e * lt - a_t).sum())
