"""Slow, extended-precision reference implementations used only by tests."""

import math

import mpmath
import numpy as np
from mpmath import mp
from scipy.special import gammaln

# Taylor reference is used while x^(1/alpha) <= TAYLOR_FEASIBLE; beyond that
# the series needs too many terms/digits and the Laplace-inversion route
# (independent of the package's asymptotic series) takes over.
TAYLOR_FEASIBLE = 60.0


def ml_taylor_50(alpha, beta, z, digits=50):
    """Mittag-Leffler series summed in extended precision (>= `digits`)."""
    x = abs(z)
    if x > 1.0:
        peak = x ** (1.0 / alpha)
        k_star = max((peak - beta) / alpha, 1.0)
        maxlog10 = max(
            0.0, (k_star * math.log(x) - gammaln(alpha * k_star + beta)) / math.log(10)
        )
    else:
        peak, k_star, maxlog10 = 1.0, 1.0, 0.0
    dps = int(maxlog10) + digits + 30
    with mp.workdps(dps):
        ma, mb, mz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s = mp.mpf(0)
        zk = mp.mpf(1)
        cutoff = mp.mpf(10) ** (-(digits + 25))
        k = 0
        while True:
            t = zk / mp.gamma(ma * k + mb)
            s += t
            if abs(t) < cutoff and k > 1.05 * k_star + 5:
                break
            zk *= mz
            k += 1
            if k > 50000:
                raise RuntimeError("oracle series did not terminate")
        return float(s)


def ml_talbot(alpha, beta, x, degree=120):
    """E_{alpha,beta}(-x) via Talbot inversion of s^(a-b)/(s^a + x) at t=1."""
    with mp.workdps(40):
        ma, mb, mx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        val = mpmath.invertlaplace(
            lambda s: s ** (ma - mb) / (s**ma + mx), 1, method="talbot", degree=degree
        )
        return float(val)


def ml_oracle(alpha, beta, z):
    """Reference E_{alpha,beta}(z) accurate to well below 1e-12 relative."""
    # compared in logs: (-z)^(1/alpha) overflows a double for small alpha
    if z >= 0 or math.log(-z) / alpha <= math.log(TAYLOR_FEASIBLE):
        return ml_taylor_50(alpha, beta, z)
    return ml_talbot(alpha, beta, -z)


def write_oracle_table(path, rows):
    """CSV rows (alpha, beta, z, value_50digit)."""
    with open(path, "w") as fh:
        fh.write("alpha,beta,z,value_50digit\n")
        for alpha, beta, z in rows:
            fh.write(f"{alpha!r},{beta!r},{z!r},{ml_oracle(alpha, beta, z)!r}\n")


def robin_eigenvalues_oracle(n, sigma=1.0, L=1.0):
    """First n eigenvalues of -u'' = mu u on (0, L) with u'(0) = sigma*u(0),
    u'(L) = -sigma*u(L), by bisection on the characteristic equation."""
    from scipy.optimize import brentq

    s = float(sigma)

    def f(k):
        # u = cos(kx) + (s/k) sin(kx); Robin condition at x = L
        return (s * s - k * k) * math.sin(k * L) + 2.0 * s * k * math.cos(k * L)

    roots = []
    m = 0
    while len(roots) < n:
        lo, hi = m * math.pi / L + 1e-9, (m + 1) * math.pi / L - 1e-9
        if f(lo) * f(hi) < 0:
            roots.append(brentq(f, lo, hi, xtol=1e-14))
        m += 1
    return np.array([r * r for r in roots])


def quad_kernel_moment(alpha, lam, tau_lo, tau_hi):
    """Adaptive quadrature of tau^(a-1) E_{a,a}(-lam tau^a) on a log-graded split."""
    from scipy.integrate import quad

    from fracdiff.mlf import MLParams, ml

    def integrand(tau):
        return tau ** (alpha - 1.0) * ml(MLParams(alpha, alpha), -lam * tau**alpha)

    pts = np.geomspace(max(tau_lo, 1e-12 * tau_hi), tau_hi, 12)
    if tau_lo == 0.0:
        pts = np.concatenate([[0.0], pts])
    else:
        pts[0] = tau_lo
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = quad(integrand, a, b, limit=200, epsabs=1e-13, epsrel=1e-12)
        total += val
    return total
