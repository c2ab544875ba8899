"""Shifted 1-D elliptic operator, its eigenbasis, and modal transforms.

A_0 v = -(p v')' - c(x) v + c0 v on (0, L) with flux conditions
-p(0)v'(0) + sigma_0 v(0) = 0 and p(L)v'(L) + sigma_L v(L) = 0
(sigma = 0 gives Neumann).  Discretized by second-order centered finite
differences in finite-volume (half-cell) form, which yields a symmetric
tridiagonal generalized eigenproblem K phi = lambda W phi with the
trapezoid weight matrix W; self-adjointness of the continuous operator is
therefore preserved exactly on the grid.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "EllipticOperator",
    "EigenBasis",
    "eigendecompose",
    "project",
    "synthesize",
    "apply_fractional_power",
    "basis_to_csv",
]


def _as_samples(f, x, name):
    if callable(f):
        return np.asarray([float(f(xi)) for xi in x])
    arr = np.asarray(f, dtype=float)
    if arr.ndim == 0:
        return np.full_like(x, float(arr))
    if arr.shape != x.shape:
        raise ValueError(f"{name} samples have shape {arr.shape}, grid {x.shape}")
    return arr


class EllipticOperator:
    """Coefficients of A_0 = -(p v')' - c v + c0 v with Robin data sigma.

    p and c may be scalars, callables of x, or sample arrays (resampled per
    grid at decomposition time).  c must be <= 0; sigma >= 0 at both ends.
    c0=None applies the default shift 1 + max(0, -min c) + max(sigma),
    which guarantees a positive smallest eigenvalue without tuning.
    """

    def __init__(self, L, p=1.0, c=0.0, sigma=(0.0, 0.0), c0=None):
        if not (L > 0.0):
            raise ValueError(f"domain length must be positive, got {L}")
        s0, sL = (float(sigma[0]), float(sigma[1]))
        if s0 < 0.0 or sL < 0.0:
            raise ValueError(f"Robin coefficients must be >= 0, got {sigma}")
        if c0 is not None and c0 < 0.0:
            raise ValueError(f"shift c0 must be nonnegative, got {c0}")
        self.L = float(L)
        self.p = p
        self.c = c
        self.sigma = (s0, sL)
        self.c0 = c0

    def coefficients(self, x):
        """(p at midpoints, c at nodes, c0) sampled for the grid x."""
        xm = 0.5 * (x[:-1] + x[1:])
        p = _as_samples(self.p, xm, "p")
        c = _as_samples(self.c, x, "c")
        if (p <= 0.0).any():
            raise ValueError("diffusion coefficient p must be positive")
        if (c > 1e-12).any():
            raise ValueError("reaction coefficient c must satisfy c <= 0")
        if not np.isfinite(c).all():
            raise ValueError("reaction coefficient c must be finite")
        c0 = self.c0
        if c0 is None:
            c0 = 1.0 + max(0.0, -float(np.min(c))) + max(self.sigma)
        return p, c, float(c0)


class EigenBasis:
    """First M eigenpairs of A_0 with trapezoid quadrature weights."""

    def __init__(self, lambdas, modes, grid, weights, operator):
        self.lambdas = lambdas
        self.modes = modes  # (n_grid, M)
        self.grid = grid
        self.weights = weights
        self.operator = operator

    @property
    def n_modes(self):
        return self.lambdas.size

    def inner(self, f, g):
        return float(np.sum(self.weights * f * g))

    def tail_energy(self, field):
        """Energy of the component of field outside span{phi_1..phi_M}."""
        c = project(self, field)
        total = self.inner(field, field)
        return max(total - float(np.sum(c**2)), 0.0)

    def __repr__(self):
        return f"EigenBasis(M={self.n_modes}, n_grid={self.grid.size})"


def eigendecompose(op, n_modes, n_grid):
    """First n_modes eigenpairs of the discretized A_0 on n_grid nodes.

    Raises ArithmeticError if the smallest eigenvalue is negative beyond
    rounding: the shift c0 is too small and the caller must increase it;
    OverflowError if the grid spacing is too small for the stiffness.
    (lambda_1 = 0 itself, e.g. pure Neumann with c = c0 = 0, is legal; the
    downstream kernel weights take their analytic lambda -> 0 limit.)
    """
    if n_modes > n_grid:
        raise ValueError(f"n_modes={n_modes} exceeds n_grid={n_grid}")
    x = np.linspace(0.0, op.L, n_grid)
    h = x[1] - x[0]
    p, c, c0 = op.coefficients(x)
    s0, sL = op.sigma
    w = np.full(n_grid, h)
    w[0] = w[-1] = 0.5 * h

    # symmetric stiffness K: K v = lambda W v
    diag = np.zeros(n_grid)
    diag[:-1] += p / h
    diag[1:] += p / h
    diag[0] += s0
    diag[-1] += sL
    diag += (c0 - c) * w
    off = -p / h

    # standard form B = W^(-1/2) K W^(-1/2), still tridiagonal
    isw = 1.0 / np.sqrt(w)
    d = diag * isw * isw
    e = off * isw[:-1] * isw[1:]
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise OverflowError(f"stiffness overflows at grid spacing h = {h:.3e}")
    lam, v = eigh_tridiagonal(d, e, select="i", select_range=(0, n_modes - 1))

    scale = float(np.max(np.abs(diag)))
    if lam[0] < -1e-10 * scale:
        raise ArithmeticError(
            f"smallest eigenvalue {lam[0]} is negative: increase the shift c0"
        )
    lam = np.maximum(lam, 0.0)
    modes = v * isw[:, None]
    # deterministic sign: make each mode positive at its largest entry
    idx = np.argmax(np.abs(modes), axis=0)
    signs = np.sign(modes[idx, np.arange(n_modes)])
    modes *= signs[None, :]
    return EigenBasis(lam, modes, x, w, op)


def project(basis, field):
    field = np.asarray(field, dtype=float)
    if field.shape[0] != basis.grid.size:
        raise ValueError(
            f"field has {field.shape[0]} samples, grid has {basis.grid.size}"
        )
    return basis.modes.T @ (basis.weights * field.T).T


def synthesize(basis, coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != basis.n_modes:
        raise ValueError(
            f"got {coeffs.shape[0]} coefficients for {basis.n_modes} modes"
        )
    return basis.modes @ coeffs


def apply_fractional_power(basis, gamma, coeffs):
    """Coefficient-wise A_0^gamma: multiply by lambda_n^gamma (gamma >= 0)."""
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"fractional power needs gamma >= 0, got {gamma}")
    if gamma == 0.0:
        return np.array(coeffs, dtype=float, copy=True)
    coeffs = np.asarray(coeffs, dtype=float)
    lam = basis.lambdas**gamma
    return (lam * coeffs.T).T


def basis_to_csv(basis, path):
    """Write one (n, lambda_n) row per mode."""
    with open(path, "w") as fh:
        fh.write("n,lambda\n")
        for n in range(basis.n_modes):
            fh.write(f"{n + 1},{float(basis.lambdas[n])!r}\n")
