"""Gamma, Beta, Mittag-Leffler and Wright functions on the ranges the lab uses.

The two-parameter Mittag-Leffler function E_{a,b} is only ever needed on the
closed negative real axis, where it is completely monotone for a in (0,1].
Evaluation uses three regimes, writing x = -z >= 0:

* power series for x <= x_lo (stopped once terms fall below 1e-18 of the
  running sum); x_lo is half the largest argument whose floating-point
  cancellation stays below ~1e4 ulps of the max term, 0.8 to 2.5 for the
  orders used here,
* the branch-cut (Laplace-type) integral representation of Gorenflo,
  Loutchko & Luchko (2002) for x_lo < x < 150 and b <= 1, summed for all
  arguments of a call at once by one fixed composite Gauss-Legendre rule in
  log r whose nodes depend only on (a, b); b > 1 steps down to b <= 1 with
  the exact recursion,
* the algebraic asymptotic expansion (8 terms) for x >= 150.

Against a 25-digit mpmath quadrature the three regimes are within 1e-14
absolute on both sides of both edges (worst 9.7e-15, at a = b = 0.7 just
below x_lo) for a in {0.3, 0.5, 0.7, 0.9, 0.95} and b in {a, 1}.

`ml_e_neg` evaluates these regimes directly.  It builds the table below,
is the scalar API and is the oracle in tests.  Every bulk caller goes
through `ml_neg_fast` instead: the time stepper's `LinearPlan` (cell
weights, forcing weights, the Z(t)u0 propagator) and the kernels (the Z and
Y symbols, propagator application, profile inversion).  It keeps one cached
table per (a, b): degree-7 polynomial pieces of width 1/16 in log1p(y),
stored coefficient-major (one row per monomial power, one column per piece)
and evaluated by Horner on the contiguous rows of one gather per chunk,
fitted from the three regimes in aligned blocks of 16 pieces
and extended on demand whenever a call reaches past the pieces built so
far.  It is within 1e-14 of `ml_e_neg` on y in [0, 1e4] (worst 5.2e-15
over a in {0.3, 0.5, 0.7, 0.9, 0.95}, b in {1, a, a + 1, a + 0.75, a + 0.5}).
At a = 1 both use closed forms instead: exp(-y) for b = 1, (1 - exp(-y))/y
for b = 2, and 1F1(1; b; -y)/Gamma(b) otherwise, summed elementwise by mpmath.

Gamma values come from the standard library's `math.gamma` and
`math.lgamma`; `_rgamma` is 1/Gamma with 0.0 at the poles and beyond the
overflow point.

The Wright function phi_a(t) = sum (-t)^n / (n! Gamma(-a n + 1 - a)) is an
entire function whose truncated sum suffers severe cancellation for larger t,
so it is summed in adaptive-precision arithmetic with the working precision
chosen from a float-level scan of the term magnitudes; the t-independent
part of that scan is computed once per a and cached.  Beyond the tail cut
it is continued from its value at the cut; that anchor depends only on a and
is summed once per a and cached.
"""
from __future__ import annotations

import functools
import math
import threading

import mpmath
import numpy as np

from .errors import DomainError, NumericalError

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
    """Power series sum E_{a,b}(-y) with compensated (Kahan) accumulation."""
    total = np.full_like(y, _rgamma(beta))
    comp = np.zeros_like(y)
    power = np.ones_like(y)
    for n in range(1, _MAX_SERIES_TERMS):
        power = power * (-y)
        term = power * _rgamma(alpha * n + beta)
        t = total + term
        # Kahan compensation: recover the rounding loss of the addition.
        comp += np.where(
            np.abs(total) >= np.abs(term),
            (total - t) + term,
            (term - t) + total,
        )
        total = t
        if np.max(np.abs(term)) < _SERIES_STOP * max(1.0, np.max(np.abs(total))):
            break
    else:
        raise NumericalError("Mittag-Leffler series did not converge")
    return total + comp


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
def _series_edge(alpha: float, beta: float) -> float:
    """Upper end x_lo of the series regime.

    Half the largest argument whose alternating-sum cancellation stays
    ~<= 1e4: at the full argument the series is up to ~1e-11 off, at half of
    it ~1e-15, and the branch-cut rule is as accurate on both sides.
    """
    n = np.arange(1, _MAX_SERIES_TERMS)
    lg = _lgamma_row(alpha * n + beta)
    for x in (5.0, 4.0, 3.0, 2.5, 2.0, 1.6, 1.3, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3):
        if np.max(n * math.log(x) - lg) <= math.log(1e4):
            return 0.5 * x
    return 0.125


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_BRANCH_CUT_BLOCK = 1 << 16  # (argument, node) pairs per evaluation block


@functools.lru_cache(maxsize=64)
def _branch_cut_rule(alpha: float, beta: float) -> tuple[np.ndarray, ...]:
    """Nodes r^a and weights of the fixed branch-cut rule for (a, b).

    Composite 20-point Gauss-Legendre in u = log r, from u_lo, where the
    integrand of `_branch_cut` has fallen below 1e-18, up to r = 45, where
    e^-r < 3e-20.  In u the integrand is analytic except where its
    denominator vanishes, at Re u = log(x)/a, Im u = +-pi (1-a)/a.  Above
    u_mid = min(log(x_lo)/a - 2, 0) panels of width min(0.5, 2 pi (1-a)/a)
    resolve those poles and the bend of e^-r; below it the integrand is a
    smooth power of r and panels of width 4 suffice.  The nodes depend on
    (a, b) only, never on the arguments.
    """
    x_lo = _series_edge(alpha, beta)
    u_hi = math.log(45.0)
    u_mid = min(math.log(x_lo) / alpha - 2.0, 0.0)
    u_lo = math.log(1e-18 * x_lo) / (alpha - beta + 1.0)
    h = min(0.5, 2.0 * math.pi * (1.0 - alpha) / alpha)
    n_fine = math.ceil((u_hi - u_mid) / h)
    n_coarse = math.ceil((u_mid - u_lo) / 4.0)
    edges = np.concatenate([
        np.linspace(u_mid - 4.0 * n_coarse, u_mid, n_coarse + 1)[:-1],
        np.linspace(u_mid, u_hi, n_fine + 1),
    ])
    half = 0.5 * np.diff(edges)[:, None]
    u = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _GL_X
    w = half * _GL_W * np.exp(-np.exp(u) + (alpha - beta + 1.0) * u) / math.pi
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
    _BRANCH_CUT_BLOCK (argument, node) pairs.  Each value is a row sum of
    elementwise terms, so it does not depend on the other arguments.
    """
    rho, w_a, w_b = _branch_cut_rule(alpha, beta)
    c = math.cos(math.pi * alpha)
    s2 = math.sin(math.pi * alpha) ** 2
    out = np.empty_like(x)
    m = max(1, _BRANCH_CUT_BLOCK // rho.size)
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


def ml_e_neg(alpha: float, beta: float, y):
    """E_{alpha,beta}(-y) for y >= 0, elementwise over arrays.

    alpha in (0, 1], beta > 0.  On the mid range x_lo < y < 150 (the fixed
    branch-cut rule) each value depends only on its own argument.  Against
    an mpmath quadrature the absolute error is below 1e-14 for alpha in
    {0.3, 0.5, 0.7, 0.9, 0.95} and beta in {alpha, 1}, on both sides of the
    series edge x_lo and of the asymptotic edge y = 150 as well.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(~np.isfinite(y_arr)) or np.any(y_arr < 0.0):
        raise DomainError("ml_e_neg requires finite y >= 0")
    if not (0.0 < alpha <= 1.0) or beta <= 0.0:
        raise DomainError(f"bad Mittag-Leffler orders alpha={alpha!r} beta={beta!r}")

    out = np.empty_like(y_arr)
    if alpha == 1.0:
        if beta == 1.0:
            out[:] = np.exp(-y_arr)
        elif beta == 2.0:
            small = y_arr < 1e-8
            out[small] = 1.0 - y_arr[small] / 2.0
            ys = y_arr[~small]
            out[~small] = -np.expm1(-ys) / ys
        else:
            # E_{1,b}(-y) = 1F1(1; b; -y) / Gamma(b), summed by mpmath one
            # argument at a time (no march takes this path): accurate on y in
            # [0, 1e6].
            rg = mpmath.rgamma(beta)
            out[:] = [float(mpmath.hyp1f1(1, beta, -v) * rg) for v in y_arr.tolist()]
        return float(out[0]) if scalar else out

    x_lo = _series_edge(alpha, beta)
    m_series = y_arr <= x_lo
    m_asym = y_arr >= _ASYMPTOTIC_EDGE
    m_mid = ~(m_series | m_asym)

    if np.any(m_series):
        out[m_series] = _series_neg(alpha, beta, y_arr[m_series])
    if np.any(m_asym):
        out[m_asym] = _asymptotic_neg(alpha, beta, y_arr[m_asym])
    if np.any(m_mid):
        ym = y_arr[m_mid]
        if beta <= 1.0:
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


class _FastMLNeg:
    """Piecewise polynomial fit of y -> E_{a,b}(-y) in v = log1p(y).

    Piece i covers v in [i * PIECE, (i + 1) * PIECE].  Its degree-DEG
    interpolant on that piece's own Chebyshev nodes is stored as column i
    of the C-contiguous, coefficient-major `coeffs` (DEG+1, pieces):
    monomial coefficients in the local variable t = v / PIECE - i - 1/2 in
    [-1/2, 1/2).  A chunk of points gathers its pieces' columns into DEG+1
    contiguous rows and runs Horner along them.  Pieces are fitted in
    aligned blocks of BLOCK, each from one vectorised `ml_e_neg` call on the
    block's nodes, so every value comes from the series, branch-cut or
    asymptotic regime that owns it and every piece depends only on its
    block.  The table starts empty and appends blocks whenever a call
    reaches past the last one; existing pieces are never refitted, so a
    value does not depend on what was evaluated before and is never
    extrapolated.  Appending is serialised by a lock, so threads sharing a
    table each see whole, correctly ordered pieces.  The fit is within
    ~1e-14 of `ml_e_neg` on y in [0, 1e4] (validated in tests).
    """

    DEG = 7
    PIECE = 1.0 / 16.0  # piece width in log1p(y)
    BLOCK = 16  # pieces per fitting block
    CHUNK = 4096  # points per evaluation chunk
    _NODES = np.cos(np.pi * (np.arange(DEG + 1) + 0.5) / (DEG + 1.0))
    # First-kind Chebyshev coefficients by discrete cosine projection.
    _PROJ = (2.0 / (DEG + 1.0)) * np.cos(
        np.pi * np.outer(np.arange(DEG + 1), np.arange(DEG + 1) + 0.5) / (DEG + 1.0)
    )
    _PROJ[0] *= 0.5
    # Chebyshev coefficients in x = 2 t -> monomial coefficients in t.  Going
    # through the Chebyshev coefficients keeps the fit well conditioned.
    _MONO = _chebyshev_to_monomial(DEG) * 2.0 ** np.arange(DEG + 1)[:, None]
    # Nodes of one block in units of PIECE, relative to its first piece.
    _BLOCK_NODES = np.arange(BLOCK)[:, None] + 0.5 + 0.5 * _NODES

    def __init__(self, alpha: float, beta: float) -> None:
        self.alpha, self.beta = alpha, beta
        self.coeffs = np.empty((self.DEG + 1, 0))
        self._lock = threading.Lock()

    def _fit_block(self, block: int) -> np.ndarray:
        """Coefficient columns (DEG+1, BLOCK) of the pieces of one aligned
        block."""
        v = (block * self.BLOCK + self._BLOCK_NODES) * self.PIECE
        values = ml_e_neg(self.alpha, self.beta, np.expm1(v))
        return ((values @ self._PROJ.T) @ self._MONO.T).T

    def _extend(self, n_pieces: int) -> np.ndarray:
        """Append fitted blocks until the table holds `n_pieces`; return it."""
        with self._lock:
            c = self.coeffs
            have = c.shape[1] // self.BLOCK
            need = -(-n_pieces // self.BLOCK)
            if have < need:
                blocks = [self._fit_block(b) for b in range(have, need)]
                c = np.concatenate([c] + blocks, axis=1)
                self.coeffs = c
        return c

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Values at a 1-D array y >= 0, in chunks of at most CHUNK points.

        Chunking caps the gathered coefficients at CHUNK points, so their
        memory does not grow with the size of the call.
        """
        out = np.empty_like(y)
        m = min(y.size, self.CHUNK)
        t_buf = np.empty(m)
        idx_buf = np.empty(m, dtype=np.intp)
        rows_buf = np.empty((self.DEG + 1) * m)
        for lo in range(0, y.size, m):
            n = min(m, y.size - lo)
            t = t_buf[:n]
            idx = idx_buf[:n]
            np.log1p(y[lo : lo + n], out=t)
            t *= 1.0 / self.PIECE
            idx[...] = t  # truncation is floor for t >= 0
            # One snapshot of the table per chunk, at least `top` pieces long,
            # so "clip" below never clamps.
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


_FAST_CACHE: dict[tuple[float, float], _FastMLNeg] = {}


def ml_neg_fast(alpha: float, beta: float, y):
    """E_{alpha,beta}(-y) for y >= 0 from the cached, self-extending table.

    Same orders, domain and return type as `ml_e_neg` (a float for scalar
    y), which builds the table for (alpha, beta) and extends it on demand.
    At alpha = 1 the closed forms of `ml_e_neg` are used directly, and
    y == 0 gives exactly 1/Gamma(beta).
    """
    y_arr = np.asarray(y, dtype=float)
    if y_arr.size == 0:
        return np.empty_like(y_arr)
    lo, hi = y_arr.min(), y_arr.max()
    # NaN fails the first test and +inf the second.
    if not (lo >= 0.0 and hi < math.inf):
        raise DomainError("ml_neg_fast requires finite y >= 0")
    if alpha == 1.0:
        return ml_e_neg(alpha, beta, y_arr)
    key = (alpha, beta)
    ev = _FAST_CACHE.get(key)
    if ev is None:
        ev = _FastMLNeg(alpha, beta)
    # Cached only once a first fit succeeded: ml_e_neg validates the orders.
    flat = y_arr.ravel()
    out = ev(flat)
    _FAST_CACHE.setdefault(key, ev)
    if lo == 0.0:
        # The fit is only ~1e-15 off at y = 0; the zero mode must be exact.
        out[flat == 0.0] = _rgamma(beta)
    return float(out[0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)


# --------------------------------------------------------------------------
# Wright function phi_alpha on the nonnegative axis
# --------------------------------------------------------------------------


def wright_tail_cut(alpha: float) -> float:
    """Argument beyond which phi_alpha is below ~1e-14 (stretched-exponential tail)."""
    b = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    return (34.0 / b) ** (1.0 - alpha)


def _wright_log_rgamma_abs(z: np.ndarray) -> np.ndarray:
    """log |1/Gamma(z)| for real z, using reflection for z <= 0."""
    out = np.empty_like(z)
    pos = z > 0.0
    out[pos] = -_lgamma_row(z[pos])
    zn = z[~pos]
    # |Gamma(z)| = pi / (|sin(pi z)| Gamma(1 - z)) for non-integer z < 0.
    s = np.abs(np.sin(np.pi * zn))
    with np.errstate(divide="ignore"):
        out[~pos] = np.where(
            s == 0.0, -np.inf, np.log(s) + _lgamma_row(1.0 - zn) - math.log(math.pi)
        )
    return out


_WRIGHT_TERMS = 2000  # terms scanned by the float-level magnitude pass


@functools.lru_cache(maxsize=64)
def _wright_log_row(alpha: float) -> np.ndarray:
    """The theta-independent part of the Wright log-term row, once per alpha.

    Entry n is log(1/n!) + log|1/Gamma(1 - alpha (n + 1))| for n < 2000,
    -inf at the poles of 1/Gamma.
    """
    n = np.arange(_WRIGHT_TERMS, dtype=float)
    row = -_lgamma_row(n + 1.0) + _wright_log_rgamma_abs(1.0 - alpha * (n + 1.0))
    row.setflags(write=False)
    return row


def _wright_series_mp(alpha: float, theta: float) -> float:
    """Adaptive-precision Wright sum; term magnitudes scanned in floats first."""
    logterm = np.arange(_WRIGHT_TERMS) * math.log(max(theta, 1e-300))
    logterm += _wright_log_row(alpha)
    peak = float(np.max(logterm))
    # Truncate after the last term within ~1e-43 of the peak; isolated poles
    # of 1/Gamma give -inf entries that must not trigger early truncation.
    keep = np.where(logterm >= peak - 100.0)[0]
    n_stop = int(keep[-1]) + 1
    dps = max(30, int(peak / math.log(10.0)) + 30)
    with mpmath.workdps(dps):
        t = mpmath.mpf(theta)
        a = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        for k in range(n_stop):
            # The Gamma argument must be formed in working precision: rounding
            # it in doubles can snap onto a Gamma pole and silently zero a
            # term that the consistently-rounded sum relies on.
            term = (-t) ** k / mpmath.factorial(k) * mpmath.rgamma(1 - a * (k + 1))
            total += term
        return float(total)


def wright_phi(alpha: float, theta: float) -> float:
    """Wright function phi_alpha(theta) for alpha in (0,1), theta >= 0.

    Beyond the stretched-exponential cutoff (value < ~1e-14) the tail is
    continued by the leading exponential factor matched at the cutoff, which
    keeps the result positive and far below every tolerance used here.  The
    value at the cutoff is summed once per alpha and cached.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not np.isfinite(theta) or theta < 0.0:
        raise DomainError(f"theta must be >= 0, got {theta!r}")
    cut = wright_tail_cut(alpha)
    if theta <= cut:
        return _wright_series_mp(alpha, theta)
    b = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    e = 1.0 / (1.0 - alpha)
    return _wright_tail_anchor(alpha) * math.exp(b * cut**e - b * theta**e)


@functools.lru_cache(maxsize=64)
def _wright_tail_anchor(alpha: float) -> float:
    """phi_alpha at the tail cut: one adaptive-precision sum per alpha."""
    return _wright_series_mp(alpha, wright_tail_cut(alpha))
