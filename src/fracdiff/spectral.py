"""Shifted 1-D elliptic operator, its eigenbasis, and the one spatial
discretization of the package.

A_0 v = -(p v')' - c(x) v + c0 v on (0, L) with flux conditions
-p(0)v'(0) + sigma_0 v(0) = 0 and p(L)v'(L) + sigma_L v(L) = 0
(sigma = 0 gives Neumann).  Discretized by second-order centered finite
differences in finite-volume (half-cell) form, which yields a symmetric
tridiagonal generalized eigenproblem K phi = lambda W phi with the
trapezoid weight matrix W; self-adjointness of the continuous operator is
therefore preserved exactly on the grid.

This module alone knows the modal format.  Fields keep the grid on their
last axis and modal arrays the modes, with any leading axes: project is
fields @ P (P = W phi, made once per basis), synthesize its inverse on the
span, apply_a0 the span-truncated A_0 on fields (A_0 of the identity is
its dense matrix), and derivative the one x-derivative stencil.
"""

import numpy as np

__all__ = [
    "EllipticOperator",
    "EigenBasis",
    "eigendecompose",
    "project",
    "synthesize",
    "apply_fractional_power",
    "apply_a0",
    "derivative",
    "basis_to_csv",
]


def _broadcast(values, shape, name):
    """values (a user function's result, a constant or samples) as a float
    array of shape: itself if it has that shape, else a read-only broadcast
    view; a ValueError names the function called name if it does not fit."""
    values = np.asarray(values, dtype=float)
    if values.shape == shape:
        return values
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ValueError(f"{name} has shape {values.shape}, expected {shape}") from None


def _as_samples(f, x, name):
    """f on the points x: one call f(x) of a callable, broadcast to x."""
    return _broadcast(f(x) if callable(f) else f, x.shape, name)


class EllipticOperator:
    """Coefficients of A_0 = -(p v')' - c v + c0 v with Robin data sigma.

    p and c may be scalars, samples on their points (the cell midpoints for
    p, the nodes for c) or callables of x, called once on those points.
    p must be finite and > 0, c finite and <= 0; sigma >= 0 at both ends.
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
        if not np.isfinite(p).all():
            raise ValueError("diffusion coefficient p must be finite")
        if (c > 1e-12).any():
            raise ValueError("reaction coefficient c must satisfy c <= 0")
        if not np.isfinite(c).all():
            raise ValueError("reaction coefficient c must be finite")
        c0 = self.c0
        if c0 is None:
            c0 = 1.0 + max(0.0, -float(np.min(c))) + max(self.sigma)
        return p, c, float(c0)


class EigenBasis:
    """First M eigenpairs of A_0 with trapezoid quadrature weights, the
    projection P = W phi (n_grid, M) and the shift c0 of the operator."""

    def __init__(self, lambdas, modes, grid, weights, operator, c0):
        self.lambdas = lambdas
        self.modes = modes  # (n_grid, M)
        self.grid = grid
        self.weights = weights
        self.operator = operator
        self.c0 = c0
        self.P = weights[:, None] * modes

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


# a Rayleigh-Ritz block holds b = 2 M + _BLOCK_PAD columns; up to
# _DENSE_PER_COLUMN b nodes one dense eigh is faster (the crossover lies
# between 12 b and 23 b for M = 1 to 32 on a 2-core Xeon, see CHANGES.md)
_BLOCK_PAD = 8
_DENSE_PER_COLUMN = 16
_MAX_SWEEPS = 60
# converged when every wanted residual |B x - theta x| <= _RESIDUAL_TOL |B|:
# 8x above the rounding floor (at most 4.4e-16 |B| up to 12001 nodes)
_RESIDUAL_TOL = 16 * np.finfo(float).eps


def _ldl(t, e):
    """Pivots D and multipliers l of T = L D L^T for the symmetric
    tridiagonal T with diagonal t and off-diagonal e (no pivoting)."""
    t, e = t.tolist(), e.tolist()
    D, l = [t[0]], []
    for ti, ei in zip(t[1:], e):
        l.append(ei / D[-1])
        D.append(ti - l[-1] * ei)
    return np.array(l), np.array(D)


def _ldl_solve(l, D, X):
    """T^-1 X for T = L D L^T and a block X (n, b): one substitution pair."""
    Y = np.array(X)
    for i in range(1, len(Y)):
        Y[i] -= l[i - 1] * Y[i - 1]
    Y /= D[:, None]
    for i in range(len(Y) - 2, -1, -1):
        Y[i] -= l[i] * Y[i + 1]
    return Y


def _lowest_eigenpairs(d, e, m, floor):
    """The m lowest eigenpairs (ascending) of the symmetric tridiagonal B
    with diagonal d and off-diagonal e, whose spectrum lies above floor.

    Up to _DENSE_PER_COLUMN b nodes, one dense eigh.  Otherwise subspace
    iteration on a block of b = 2m + _BLOCK_PAD columns from a seeded start:
    each sweep applies (B - floor + sigma)^-1, sigma = 1e-10 |B|, by one
    substitution pair of its LDL^T factors (positive pivots: B - floor is
    positive semidefinite), and takes the Ritz pairs of B on the block by
    eigh.  Raises ArithmeticError if the residuals do not reach the
    rounding floor in _MAX_SWEEPS sweeps.
    """
    n, b = d.size, 2 * m + _BLOCK_PAD
    if n <= _DENSE_PER_COLUMN * b:
        lam, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        return lam[:m], v[:, :m]
    norm = float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e)))
    l, D = _ldl(d - (floor - 1e-10 * norm), e)
    X = np.random.default_rng(0).standard_normal((n, b))
    for _ in range(_MAX_SWEEPS):
        Q = np.linalg.qr(_ldl_solve(l, D, X))[0]
        BQ = d[:, None] * Q
        BQ[:-1] += e[:, None] * Q[1:]
        BQ[1:] += e[:, None] * Q[:-1]
        theta, S = np.linalg.eigh(Q.T @ BQ)
        X = Q @ S
        r = np.linalg.norm(BQ @ S[:, :m] - X[:, :m] * theta[:m], axis=0)
        if r.max() <= _RESIDUAL_TOL * norm:
            return theta[:m], X[:, :m]
    raise ArithmeticError(
        f"eigensolver did not converge in {_MAX_SWEEPS} sweeps for "
        f"n_grid={n}, M={m}"
    )


def eigendecompose(op, n_modes, n_grid):
    """First n_modes eigenpairs of the discretized A_0 on n_grid nodes.

    Raises OverflowError if the grid spacing is too small for the stiffness.
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
    # -(p v')' with sigma >= 0 is positive semidefinite: lambda >= c0 - max c,
    # which coefficients keeps >= -1e-12, so a negative lambda is rounding
    lam, v = _lowest_eigenpairs(d, e, n_modes, c0 - float(np.max(c)))
    lam = np.maximum(lam, 0.0)
    modes = v * isw[:, None]
    # deterministic sign: each mode is positive at its first entry above
    # 1e-3 of its largest, phi_n(0) unless the mode is localized away from
    # x = 0.  The sign at the largest entry would tie to rounding on
    # symmetric grids, that at phi_n(0) where phi_n(0) is itself rounding
    big = np.abs(modes) > 1e-3 * np.max(np.abs(modes), axis=0)
    modes *= np.sign(modes[np.argmax(big, axis=0), np.arange(n_modes)])
    return EigenBasis(lam, modes, x, w, op, c0)


def project(basis, fields):
    """Modal coefficients (..., M) of fields (..., n_grid): fields @ P."""
    fields = np.asarray(fields, dtype=float)
    if fields.shape[-1] != basis.grid.size:
        raise ValueError(
            f"field has {fields.shape[-1]} samples, grid has {basis.grid.size}"
        )
    return fields @ basis.P


def synthesize(basis, coeffs):
    """Fields (..., n_grid) of modal coefficients (..., M)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != basis.n_modes:
        raise ValueError(
            f"got {coeffs.shape[-1]} coefficients for {basis.n_modes} modes"
        )
    return coeffs @ basis.modes.T


def apply_fractional_power(basis, gamma, coeffs):
    """Coefficient-wise A_0^gamma: multiply by lambda_n^gamma (gamma >= 0)."""
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"fractional power needs gamma >= 0, got {gamma}")
    return basis.lambdas**gamma * np.asarray(coeffs, dtype=float)


def apply_a0(basis, fields):
    """A_0 on fields (..., n_grid), truncated to the span of the basis:
    A_0 of the identity is its dense matrix, transposed."""
    return synthesize(basis, apply_fractional_power(basis, 1.0, project(basis, fields)))


def derivative(x, fields):
    """d/dx of fields (..., x.size) sampled on the grid x: central
    differences inside, first-order one-sided differences at the two ends."""
    return np.gradient(fields, x, axis=-1)


def basis_to_csv(basis, path):
    """Write one (n, lambda_n) row per mode."""
    with open(path, "w") as fh:
        fh.write("n,lambda\n")
        for n in range(basis.n_modes):
            fh.write(f"{n + 1},{float(basis.lambdas[n])!r}\n")
