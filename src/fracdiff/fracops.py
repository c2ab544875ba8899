"""Discrete fractional calculus on time grids.

Riemann-Liouville integral J^alpha, Caputo L1 derivative and an H_alpha
seminorm surrogate.  Both operators are assembled as dense lower-triangular
weight matrices acting on nodal values, built from exact moments of the
weakly singular kernel against the piecewise-linear reconstruction, so
constants and linear signals are reproduced exactly up to rounding.
"""

import math

import numpy as np

__all__ = [
    "TimeGrid",
    "SampledSignal",
    "rl_weights",
    "rl_integral",
    "l1_weights",
    "caputo_l1",
    "halpha_seminorm",
]

# halpha_seminorm: largest |sig(0)| accepted as the required sig(0) = 0
HALPHA_ZERO_TOL = 1e-10


class TimeGrid:
    """Strictly increasing time nodes t_0 = 0 < t_1 < ... < t_N = T."""

    def __init__(self, nodes, kind="custom", grading=None):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError(f"grids start at t=0, got t_0={nodes[0]}")
        if not (np.diff(nodes) > 0.0).all():
            raise ValueError("time nodes must be strictly increasing")
        self.nodes = nodes
        self.kind = kind
        self.grading = grading

    @classmethod
    def uniform(cls, T, N):
        return cls(np.linspace(0.0, float(T), N + 1), kind="uniform")

    @classmethod
    def graded(cls, T, N, r):
        if r < 1.0:
            raise ValueError(f"grading exponent must satisfy r >= 1, got {r}")
        i = np.arange(N + 1, dtype=float)
        return cls(float(T) * (i / N) ** float(r), kind="graded", grading=float(r))

    @property
    def T(self):
        return float(self.nodes[-1])

    @property
    def N(self):
        return self.nodes.size - 1

    def __len__(self):
        return self.nodes.size

    def trapezoid_weights(self):
        w = np.zeros_like(self.nodes)
        d = np.diff(self.nodes)
        w[:-1] += 0.5 * d
        w[1:] += 0.5 * d
        return w

    def __repr__(self):
        return f"TimeGrid(N={self.N}, T={self.T}, kind={self.kind!r})"


class SampledSignal:
    """Nodal values on a TimeGrid; scalar (N+1,) or vector (N+1, m)."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != len(grid):
            raise ValueError(
                f"signal has {values.shape[0]} samples for {len(grid)} nodes"
            )
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"SampledSignal(grid={self.grid!r}, shape={self.values.shape})"


def _tau_powers(nodes, expo):
    """(t_i - t_j)^expo clipped to the causal triangle i >= j."""
    tau = nodes[:, None] - nodes[None, :]
    return np.where(tau > 0.0, tau, 0.0) ** expo


def rl_weights(alpha, grid):
    """Weight matrix W with (J^alpha u)(t_i) = (W u)_i.

    Product integration of (1/Gamma(a)) (t-s)^(a-1) against the
    piecewise-linear nodal reconstruction.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"rl_integral needs alpha in (0, 2), got {alpha}")
    t = grid.nodes
    n = t.size
    ta = _tau_powers(t, alpha)  # ta[i, j] = (t_i - t_j)^alpha
    # m0[i, j] = integral of (t_i - s)^(a-1) over [t_j, t_j+1], for j < i
    m0 = (ta[:, :-1] - ta[:, 1:]) / alpha
    # linear part: q[i, j] = (1/D_j) * int (t_i - s)^(a-1) (s - t_j) ds
    ta1 = _tau_powers(t, alpha + 1.0)
    tau = np.where(t[:, None] - t[None, :] > 0.0, t[:, None] - t[None, :], 0.0)
    q = (
        tau[:, :-1] * m0 - (ta1[:, :-1] - ta1[:, 1:]) / (alpha + 1.0)
    ) / np.diff(t)[None, :]
    W = np.zeros((n, n))
    W[:, :-1] += m0 - q
    W[:, 1:] += q
    W *= 1.0 / math.gamma(alpha)
    # enforce causality exactly (rounding can leave tiny upper-triangle dust)
    return np.tril(W)


def rl_integral(alpha, sig):
    """Discrete Riemann-Liouville integral J^alpha of a sampled signal."""
    W = rl_weights(alpha, sig.grid)
    return SampledSignal(sig.grid, W @ sig.values)


def l1_weights(alpha, grid):
    """Matrix D with (d_t^alpha u)(t_i) = (D u)_i, classical L1 scheme.

    Piecewise-linear u with exact moments of (t-s)^(-alpha): the slope on
    [t_j, t_j+1] is weighted by ((t_i-t_j)^(1-a) - (t_i-t_j+1)^(1-a))/(1-a).
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"caputo_l1 needs alpha in (0, 1), got {alpha}")
    t = grid.nodes
    n = t.size
    ta = _tau_powers(t, 1.0 - alpha)
    b = (ta[:, :-1] - ta[:, 1:]) / (1.0 - alpha) / math.gamma(1.0 - alpha)
    slope = b / np.diff(t)[None, :]
    D = np.zeros((n, n))
    D[:, :-1] -= slope
    D[:, 1:] += slope
    return np.tril(D)


def caputo_l1(alpha, sig):
    """Discrete Caputo derivative (L1 scheme) of a sampled signal."""
    if not np.all(np.isfinite(np.atleast_1d(sig.values[0]))):
        raise ValueError("caputo_l1 needs a finite initial value")
    D = l1_weights(alpha, sig.grid)
    return SampledSignal(sig.grid, D @ sig.values)


def halpha_seminorm(alpha, sig):
    """Discrete H_alpha surrogate: L2(0,T) norm of the L1 Caputo derivative.

    Requires sig(0) = 0 to within HALPHA_ZERO_TOL (the H_alpha membership
    branch of the underlying theory); vector signals contribute through
    their Euclidean norm.
    """
    v0 = np.max(np.abs(np.atleast_1d(sig.values[0])))
    if v0 > HALPHA_ZERO_TOL:
        raise ValueError(f"halpha_seminorm needs sig(0)=0, got |sig(0)|={v0}")
    d = caputo_l1(alpha, sig).values
    if d.ndim > 1:
        d = np.linalg.norm(d, axis=tuple(range(1, d.ndim)))
    w = sig.grid.trapezoid_weights()
    return float(math.sqrt(np.sum(w * d * d)))
