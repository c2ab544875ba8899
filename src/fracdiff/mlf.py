"""Two-parameter Mittag-Leffler function on the real line.

E_{a,b}(z) = sum_k z^k / Gamma(a*k + b) is the scalar kernel of every
solution operator in this package: E_{a,1}(-lam*t^a) is the fractional
decay profile and t^(a-1)*E_{a,a}(-lam*t^a) the convolution kernel.

There is one evaluator per regime.  ml(params, z) dispatches: z > 0 goes
to the all-positive Taylor sum in log space (_taylor_pos), and z <= 0 to
ml_neg_vec, the only evaluator on the negative axis.  ml_neg_vec splits
x = -z >= 0 into three regimes and evaluates each in batched numpy:

* x <= 1: Horner sum of sum_{k<=K} (-x)^k/Gamma(a k + b), K the first
  k > 2 with x_max^k/Gamma(a k + b) <= _EPS at the largest x of the batch;
  needing more than _MAX_TERMS terms (a below about 1e-3) raises ValueError.
* x >= x0: Horner sum in y = 1/x of sum_{k=1}^n c_k y^k,
  c_k = (-1)^(k+1)/Gamma(b - a k).  Its remainder R_n, from the geometric
  expansion of 1/(s^a + x) in the Hankel integral, bounded on the unit
  circle (|s^a + x| >= x - 1) and on the banks of the cut (|s^a + x| >=
  x sigma, sigma = sin(pi max(a, 1/2))), obeys for every n and x > 1
      |R_n(x)| <= B_n(x) = x^-n (e/(x-1) + Gamma(max(1+a(n+1)-b, 1))/(pi sigma x)),
  and B_n(x) <= B_n(x0) (x0/x)^n.  The cut x0 is derived from this bound,
  per (a, b) on first use: the smallest x0 (to 1/16 octave) at which
  B_n(x0) <= _EPS max_{k<=n} |c_k| x0^-k for some n <= _TERM_BUDGET, and n
  is the first such n.  deep_cut(alpha) is the cut of b = 1.
* in between: Laplace inversion of s^(a-b)/(s^a + x) at t=1 by the
  trapezoid rule on 16 nodes of the parabola s = 4.7(1+iu)^2, u = 0.172 k,
  in real arithmetic: worst 2.7e-14 against the oracle for b <= 2.  No BLAS
  call is left, so the values do not depend on the thread count, and its
  blocks of _CONTOUR_BLOCK points are bitwise one evaluation.

Every beta > 0 is accepted, but the contour loses accuracy as beta grows.
Its worst error against the mpmath oracle, relative to max(1, |E|), at the
seams and mid-range for alpha from 0.01 to 0.99, is <= 1e-13 for
beta <= 2 (tested), 4.7e-13 at beta = 3 (tested to 1e-12), 2.6e-11 at
beta = 5 and 4.2e-10 at beta = 8.  The package itself uses beta <= 2.

Beyond its cut the Horner sum agrees with the mpmath oracle to 7.3e-16
relative (at the tested pairs, from the cut to 3 times it), closer than
the contour it replaces there.  On the negative axis alpha = beta = 1
reduces to exp(z).  Arguments whose value would exceed
double range raise OverflowError.

Every kernel moment int tau^(a-1) E_{a,a}(-lam tau^a) dtau in the package
comes from one formula, kernel_weights_from_e, applied to a table of
E_{a,1} values.
"""

import functools
import math

import numpy as np

__all__ = [
    "MLParams",
    "ml",
    "ml_neg_vec",
    "ml_e1_bound_check",
    "kernel_weights_from_e",
]

# seam between the Taylor and the contour regimes (in x = -z)
TAYLOR_CUT = 1.0

_EPS = 2.2e-16
_MAX_TERMS = 20000
# most terms of the asymptotic series: its regime starts where its remainder
# bound allows this many (the term-budget sweep of scripts/bench_mlf.py)
_TERM_BUDGET = 30

# points per block of _contour, whose (nodes, block) temporaries stay in cache
_CONTOUR_BLOCK = 1024


def _lgamma(x):
    """log|Gamma| of each entry of the 1-d array x > 0."""
    return np.array([math.lgamma(v) for v in x.tolist()])


def _rgamma(x):
    """1/Gamma of each entry of the 1-d array x > -170: 0 at the poles
    (0, -1, -2, ...) and where Gamma overflows."""
    out = np.zeros(x.size)
    for i, v in enumerate(x.tolist()):
        try:
            out[i] = 1.0 / math.gamma(v)
        except (ValueError, OverflowError):
            pass
    return out


def _horner(y, c):
    """sum_k c[k] y^k for the 1-d array y by Horner's rule, in place: the
    operations of numpy's polyval, without its temporaries."""
    out = np.full_like(y, c[-1])
    for ck in c[-2::-1].tolist():
        out *= y
        out += ck
    return out


def deep_cut(alpha):
    """Switch point (in x = -z) from the contour method to the asymptotic
    series of E_{alpha,1}(-x): the smallest x at which the series' remainder
    bound reaches _EPS within _TERM_BUDGET terms (_asymptotic_coefficients)."""
    return _asymptotic_coefficients(float(alpha), 1.0)[0]


class MLParams:
    """Order pair (alpha, beta) with 0 < alpha <= 1 and beta > 0; on the
    negative axis accurate to 1e-13 for beta <= 2, 4.7e-13 at beta = 3,
    2.6e-11 at beta = 5 and 4.2e-10 at beta = 8 (see the module docstring)."""

    def __init__(self, alpha, beta=1.0):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        if not (beta > 0.0):
            raise ValueError(f"beta must be positive, got {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def __repr__(self):
        return f"MLParams(alpha={self.alpha}, beta={self.beta})"


def _contour_nodes(mu, h, n):
    """Nodes s_k = mu(1 + i u_k)^2, u_k = k h (k < n), and weights w_k of
    E_{a,b}(-x) = sum_k Re w_k s_k^(a-b)/(s_k^a + x): trapezoid weights with
    e^s, ds = 2 i mu (1 + iu) du and 1/(2 pi i), doubled for u > 0."""
    u = h * np.arange(n)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.where(u > 0.0, 2.0, 1.0) * (h * mu / math.pi)
    return s, w * np.exp(s) * (1.0 + 1j * u)


# Weideman & Trefethen's parabola (Math. Comp. 76, 2007), (mu, h, n) from the
# sweep in scripts/bench_mlf.py: truncation exp(mu(1 - (n h)^2)) ~ 4e-14,
# discretization exp(-2 pi/h) ~ 1e-16, roundoff exp(mu) eps ~ 2.4e-14
_CONTOUR_S, _CONTOUR_W = _contour_nodes(mu=4.7, h=0.172, n=16)


def _contour(alpha, beta, x):
    """E_{alpha,beta}(-x) for a 1-d array x > 0 on the contour of
    _contour_nodes, _CONTOUR_BLOCK points at a time, with no BLAS call."""
    p = _CONTOUR_S ** alpha
    c = _CONTOUR_W * _CONTOUR_S ** (alpha - beta)
    # Re c/(p + x) = (Re c (Re p + x) + Im c Im p)/((Re p + x)^2 + (Im p)^2)
    pr, q = p.real[:, None], p.imag[:, None] ** 2
    cr, d = c.real[:, None], (c.imag * p.imag)[:, None]
    out = np.empty(x.size)
    for lo in range(0, x.size, _CONTOUR_BLOCK):
        t = pr + x[lo:lo + _CONTOUR_BLOCK]
        den = t * t
        den += q
        t *= cr
        t += d
        t /= den
        n = len(t)
        while n > 1:  # halving sums: a column's order is that of any block width
            n, h = n - n // 2, n // 2
            t[:h] += t[n:n + h]
        out[lo:lo + _CONTOUR_BLOCK] = t[0]
    return out


def _taylor_pos(alpha, beta, z):
    """E_{alpha,beta}(z) for z > 0: all-positive Taylor sum in log space,
    so the running power z^k cannot overflow before the terms decay."""
    k_star = z ** (1.0 / alpha) / alpha
    n = 1.5 * k_star + 100.0
    while True:
        k = np.arange(0.0, n)
        logterm = k * math.log(z) - _lgamma(alpha * k + beta)
        m = float(np.max(logterm))
        if logterm[-1] < m - 40.0:
            break
        n *= 2.0
    s = float(np.sum(np.exp(logterm - m)))
    if m + math.log(s) > 709.0:
        raise OverflowError(
            f"Mittag-Leffler series overflow for alpha={alpha}, beta={beta}, z={z}"
        )
    return math.exp(m) * s


def ml(params, z):
    """Evaluate E_{alpha,beta}(z) for real z, params = MLParams(alpha, beta):
    _taylor_pos for z > 0, ml_neg_vec for z <= 0."""
    if not isinstance(params, MLParams):
        raise TypeError(f"ml expects MLParams(alpha, beta), got {params!r}")
    alpha, b = params.alpha, params.beta
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if z > 0.0:
        if z ** (1.0 / alpha) > 700.0:
            raise OverflowError(
                f"E_({alpha},{b})({z}) exceeds double range (z^(1/alpha) > 700)"
            )
        return _taylor_pos(alpha, b, z)
    return float(ml_neg_vec(alpha, np.array([-z]), b)[0])


@functools.lru_cache(maxsize=256)
def _taylor_coefficients(alpha, beta):
    """Powers k and Taylor coefficients 1/Gamma(alpha k + beta) of
    E_{alpha,beta}, up to the first k with alpha k + beta >= 19, where
    1/Gamma(alpha k + beta) <= 1/Gamma(19) < _EPS (read-only, shared)."""
    k = np.arange(min(_MAX_TERMS, 4 + max(0, int((19.0 - beta) / alpha))))
    c = _rgamma(alpha * k + beta)
    k.flags.writeable = c.flags.writeable = False
    return k, c


@functools.lru_cache(maxsize=256)
def _asymptotic_coefficients(alpha, beta):
    """(x0, c): the cut x0 of the asymptotic regime of E_{alpha,beta}(-x) and
    its coefficients c_k = (-1)^(k+1)/Gamma(beta - alpha k), k = 1..n
    (read-only, shared).  x0 is the first point of a geometric search over
    (1, 2^10], by octaves and then by 1/16 octave, at which B_n(x0) <= _EPS
    max_{k<=n} |c_k| x0^-k for some n <= _TERM_BUDGET, and n the first such
    n; (inf, no terms) where no point qualifies."""
    k = np.arange(1.0, _TERM_BUDGET + 1.0)
    c = _rgamma(beta - alpha * k)
    c[1::2] = -c[1::2]
    # B_n(x) = x^-n (e/(x-1) + g_n/x), g_n = Gamma(max(1+a(n+1)-b, 1))/(pi sigma)
    g = np.array(list(map(math.gamma, np.maximum(1.0 + alpha * (k + 1.0) - beta, 1.0).tolist())))
    g /= math.pi * math.sin(math.pi * max(alpha, 0.5))
    eps_c = _EPS * np.abs(c)
    lo, step = 0.0, math.log(2.0)  # search in L = log x
    for points in (10, 16):
        L = lo + step * np.arange(1.0, points + 1.0)
        x = np.exp(L)
        p = np.exp(np.multiply.outer(-L, k))  # x^-k, rows x, columns n (or k)
        bound = (math.e / (x - 1.0))[:, None] + g / x[:, None]
        bound *= p
        p *= eps_c
        ok = bound <= np.maximum.accumulate(p, axis=1)
        hit = ok.any(axis=1)
        j = int(hit.argmax())
        if not hit[j]:  # no cut: the contour takes every x > 1
            return math.inf, c[:0]
        lo, step = L[j] - step, step / 16.0
    c = c[: int(ok[j].argmax()) + 1]
    c.flags.writeable = False
    return float(x[j]), c


def ml_neg_vec(alpha, x, beta=1.0):
    """Vectorized E_{alpha,beta}(-x) for an array of x >= 0, evaluated
    regime by regime in batched numpy arithmetic."""
    p = MLParams(alpha, beta)
    alpha, beta = p.alpha, p.beta
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return ml_neg_vec(alpha, x.reshape(1), beta)[0]
    if (x < 0).any():
        raise ValueError("ml_neg_vec expects x >= 0")
    out = np.empty_like(x)
    flat = x.ravel()
    res = out.ravel()

    if alpha == 1.0 and beta == 1.0:
        res[:] = np.exp(-flat)
        return out

    x0, c_asym = _asymptotic_coefficients(alpha, beta)
    asym = flat >= x0
    tay = (~asym) & (flat <= TAYLOR_CUT)
    mid = ~(asym | tay)

    if tay.any():
        xs = flat[tay]
        x_max = xs.max()
        k, c = _taylor_coefficients(alpha, beta)
        done = np.flatnonzero((x_max**k * c <= _EPS) & (k > 2))
        if not done.size:
            raise ValueError(f"Taylor sum of E_({alpha},{beta})(-x) at x_max={x_max} "
                             f"needs more than {_MAX_TERMS} terms")
        res[tay] = _horner(-xs, c[: done[0] + 1])

    if asym.any():
        y = 1.0 / flat[asym]
        res[asym] = y * _horner(y, c_asym)

    if mid.any():
        res[mid] = _contour(alpha, beta, flat[mid])

    return out


def e1_bound_constant(alpha):
    """Calibrated C(alpha) with E_{alpha,1}(-x) <= C/(1+x) on x >= 0."""
    xs = np.concatenate([[0.0], np.logspace(-3, 7, 400)])
    return float(np.max(ml_neg_vec(alpha, xs) * (1.0 + xs))) * 1.01


def ml_e1_bound_check(alpha, x):
    """Witness for the decay bound E_{alpha,1}(-x) <= C/(1+x).

    C is calibrated empirically per alpha (the underlying theory gives no
    explicit constant); returns the value, the bound and the constant.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if x < 0.0:
        raise ValueError(f"x must be nonnegative, got {x}")
    value = ml(MLParams(alpha), -x)
    c = e1_bound_constant(alpha)
    bound = c / (1.0 + x)
    return {"value": value, "bound": bound, "C": c, "ok": value <= bound}


# below this lambda the telescoped moment is replaced by its lambda -> 0
# limit to avoid cancellation in (E(lo) - E(hi))/lambda
_LAM_FLOOR = 1e-12


def kernel_weights_from_e(alpha, lam, taus, E):
    """Exact moments int tau^(a-1) E_{a,a}(-lam tau^a) dtau over the
    consecutive intervals of taus along axis 0, from the table
    E = E_{a,1}(-lam taus^a) of shape taus.shape + lam.shape.

    d/dtau E_{a,1}(-lam tau^a) = -lam tau^(a-1) E_{a,a}(-lam tau^a), so each
    moment telescopes to (E(lo) - E(hi))/lam, clipped at 0; for
    lam < _LAM_FLOOR it is the limit (tau_hi^a - tau_lo^a)/Gamma(a+1).
    """
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -np.diff(E, axis=0) / lam
    small = lam < _LAM_FLOOR
    if small.any():
        taus = np.asarray(taus, dtype=float)
        m = np.diff(taus**alpha / math.gamma(alpha + 1.0), axis=0)
        w = np.where(small, m.reshape(m.shape + (1,) * lam.ndim), w)
    return np.maximum(w, 0.0)
