"""Solution operators S(t), K(t), the Volterra fixed-point engine, and
mild-solution solvers for

    d_t^alpha (u - a) + A_0 u = Q u + F,   Q u = b(x,t) u_x + q(x,t) u,

on an eigenbasis of A_0.  The Volterra convolution uses exact kernel
moments (mlf.kernel_weights_from_e), which absorb the t^(alpha-1)
singularity.  A ModalPropagator belongs to one time grid and builds its
tables once, when it is made: a uniform grid's lag table with its real FFT
spectrum, or one row per node of any other grid.  Each solver makes the
propagators it needs once per call, so no table outlives its solve.
convolve_K takes the forcing piecewise constant per step (left endpoint),
and solve_linear does the same by default or uses endpoint averages
(reconstruction='linear').

A LinearProblem holds the equation only; the spectral shift s >= 0 of
the discrete scheme is an argument of each solve.  It rewrites the
equation as d_t^alpha (u - a) + (A_0 + s) u = (Q + s) u + F.  The shifted
kernel weights are nonnegative, so whenever the effective forcing is
monotone in u the discrete time-march preserves ordering exactly; the
monotone and comparison machinery in higher modules relies on this.

Every whole-window iteration of the mild-solution map
u = S(t) a + K * R(u) in the package (Picard, multi-order systems,
semilinear pairs, the monotone sandwich) runs through volterra_sweep and
fixed_point here, on field histories stacked along a component axis;
coefficients given as callables of (x, t) are sampled once per grid by
sample_history.
"""

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .mlf import kernel_weights_from_e, ml_neg_vec
from .spectral import project

__all__ = [
    "ModalPropagator",
    "LinearProblem",
    "Trajectory",
    "apply_S",
    "convolve_K",
    "sample_history",
    "volterra_sweep",
    "fixed_point",
    "solve_linear",
    "solve_linear_l1",
]

# largest row table (bytes) ModalPropagator builds for a nonuniform grid
MAX_ROW_TABLE_BYTES = 2**31
# solve_linear(reconstruction='linear'): the inner fixed point of each node
# stops below this relative modal increment, and stalls after INNER_SWEEPS
INNER_RTOL = 1e-12
INNER_SWEEPS = 100


class ModalPropagator:
    """Per-mode Mittag-Leffler propagator tables on one time grid, built
    once when the propagator is made.

    S(t): multiply mode n by E_{alpha,1}(-lam_n t^alpha); E (N+1, M) holds
          it at every node.
    K*g:  discrete convolution with exact kernel moments
          w_n(lo, hi) = int_lo^hi tau^(alpha-1) E_{alpha,alpha}(-lam_n tau^alpha) dtau.
          On a uniform grid W is the lag table (N, M) and Wf its real FFT
          spectrum; on others W[i] is the (i, M) row of node i, aligned with
          the forcing at nodes 0..i-1, and Wf is None.  The rows take
          8 M N(N+1)/2 bytes; a grid needing more than MAX_ROW_TABLE_BYTES
          raises ValueError before any weight is computed.
    """

    def __init__(self, basis, alpha, grid, shift=0.0):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"propagator needs alpha in (0, 1), got {alpha}")
        lam = basis.lambdas + float(shift)
        if (lam < -1e-12).any():
            raise ValueError(
                f"shift {shift} makes an eigenvalue negative (min {lam.min()})"
            )
        self.basis = basis
        self.alpha = float(alpha)
        self.grid = grid
        self.shift = float(shift)
        self.lambdas = np.maximum(lam, 0.0)
        t, M, N = grid.nodes, self.lambdas.size, grid.N
        size = 4 * M * N * (N + 1)  # bytes of the rows of a nonuniform grid
        if grid.kind != "uniform" and size > MAX_ROW_TABLE_BYTES:
            raise ValueError(f"kernel weights of a {grid.kind} grid with N = {N}, "
                             f"M = {M} modes take {size / 2**30:.1f} GiB, over "
                             f"the {MAX_ROW_TABLE_BYTES / 2**30:g} GiB limit")
        self.E = self.e_values(t)
        if grid.kind == "uniform":
            self.W = kernel_weights_from_e(self.alpha, self.lambdas, t, self.E)
            self.Wf = rfftn(self.W, [next_fast_len(2 * N - 1, True)], axes=[0])
        else:  # row i from the lags t_i - t_j, j = i..0: one e_values call
            lags = (t[i] - t[i::-1] for i in range(1, t.size))
            self.W = [np.empty((0, M))] + [kernel_weights_from_e(
                self.alpha, self.lambdas, d, self.e_values(d))[::-1] for d in lags]
            self.Wf = None

    def e_values(self, tnodes):
        """E_{alpha,1}(-lam_n t^alpha) for every node/mode: (n_t, M)."""
        tnodes = np.asarray(tnodes, dtype=float)
        x = np.outer(tnodes**self.alpha, self.lambdas)
        return ml_neg_vec(self.alpha, x)

    def weight_sum_check(self):
        """Invariant: the weights of node i sum to the moments over [0, t_i]."""
        sums = (np.cumsum(self.W, axis=0) if self.grid.kind == "uniform"
                else [w.sum(axis=0) for w in self.W[1:]])
        t, E = self.grid.nodes[1:], self.E[1:]
        want = kernel_weights_from_e(
            self.alpha, self.lambdas,
            np.stack([np.zeros_like(t), t]), np.stack([np.ones_like(E), E]),
        )[0]
        return float(np.max(np.abs(sums - want)))


def apply_S(prop, t, coeffs):
    """Modal action of S(t): multiply mode n by E_{alpha,1}(-lam_n t^alpha)."""
    if t < 0.0:
        raise ValueError(f"apply_S needs t >= 0, got {t}")
    return prop.e_values([t])[0] * np.asarray(coeffs, dtype=float)


def convolve_K(prop, forcing):
    """Discrete (K * forcing)(t_i) on prop's grid for a modal forcing
    history (N+1, M), taking the forcing at the left endpoint of each step.
    Exact kernel moments make a constant single-mode forcing g reproduce
    (1 - E_{alpha,1}(-lam t^alpha))/lam * g to ml accuracy.
    """
    G = np.asarray(forcing, dtype=float)
    n = len(prop.grid)
    if G.shape[0] != n:
        raise ValueError(f"forcing history has {G.shape[0]} rows, grid {n} nodes")
    G = G[:-1]
    out = np.zeros((n, prop.lambdas.size))
    if prop.Wf is not None:
        L = [next_fast_len(2 * prop.grid.N - 1, True)]  # the length of Wf
        out[1:] = irfftn(rfftn(G, L, axes=[0]) * prop.Wf, L, axes=[0])[: n - 1]
    else:
        for i in range(1, n):
            out[i] = np.einsum("jm,jm->m", prop.W[i], G[:i])
    return out


def sample_history(f, x, tnodes):
    """Samples of a coefficient on the spatial grid x at every time node,
    shape (len(tnodes), x.size), or None for None.

    f is None, a constant, or a callable f(x, t), called once per node with
    the 1-D grid x and a scalar t."""
    if f is None:
        return None
    if callable(f):
        return np.array([
            np.asarray(f(x, t), dtype=float) * np.ones_like(x) for t in tnodes
        ])
    return np.full((len(tnodes), x.size), float(f))


def volterra_sweep(props, a_modal, R):
    """One application of the mild-solution map to C stacked components:
    E_c a_c + K_c * (P R_c), with one propagator per component, all on
    one grid.

    a_modal is (C, M); R holds the right-hand-side field histories
    (C, N+1, n_grid), projected in one product.  Returns the modal
    histories (C, N+1, M)."""
    basis = props[0].basis
    G = (R * basis.weights) @ basis.modes
    out = np.empty_like(G)
    for c, prop in enumerate(props):
        out[c] = prop.E * a_modal[c] + convolve_K(prop, G[c])
    return out


def fixed_point(props, a, rhs, tol, max_sweeps, m=None):
    """Whole-window Picard iteration of u_c = S_c(t) a_c + K_c * R_c(u)
    from u_c = a_c, for C components with one propagator each, all on
    one grid.

    a holds the initial fields (C, n_grid); rhs maps the field histories
    (C, N+1, n_grid) to right-hand sides of the same shape.  The increment
    of sweep n is U_n(t) = sum_c sup_x |u_c^n - u_c^(n-1)|(t); the
    iteration stops once sup_t U_n < tol max(1, sup|u|).  ArithmeticError
    is raised at the first sweep with a non-finite value, on divergence,
    and when max_sweeps sweeps do not converge; max_sweeps < 1 is a
    ValueError.  Divergence is amplitude escape sup|u| > m when a box m is
    given, and otherwise 5 consecutive growing increments: a boxed
    iteration can grow for many sweeps before it contracts, so there growth
    alone does not name the cause.

    Returns the modal histories (C, N+1, M) and the diagnostics: sweeps,
    increments (the U_n), rhos (ratios of consecutive sup increments),
    max_rho and contraction_flag (some ratio >= 1).
    """
    if max_sweeps < 1:
        raise ValueError(f"fixed_point needs max_sweeps >= 1, got {max_sweeps}")
    basis = props[0].basis
    a = np.asarray(a, dtype=float)
    # one 1-D projection per component keeps row 0 equal to project(basis, a)
    a_modal = np.array([project(basis, ac) for ac in a])
    U = np.repeat(a[:, None, :], len(props[0].grid), axis=1)
    increments, sups, rhos = [], [], []
    growing = 0
    for sweep in range(1, max_sweeps + 1):
        modal = volterra_sweep(props, a_modal, rhs(U))
        new = modal @ basis.modes.T
        if not np.isfinite(new).all():
            raise ArithmeticError(f"non-finite value at sweep {sweep}")
        peak = float(np.max(np.abs(new)))
        if m is not None and peak > m:
            raise ArithmeticError(
                f"amplitude escape at sweep {sweep}: sup|u| = {peak} > m = {m}"
            )
        increments.append(np.max(np.abs(new - U), axis=-1).sum(axis=0))
        U = new
        sups.append(float(np.max(increments[-1])))
        if len(sups) >= 2 and sups[-2] > 0.0:
            rhos.append(sups[-1] / sups[-2])
        if sups[-1] < tol * max(1.0, peak):
            break
        growing = growing + 1 if len(sups) >= 2 and sups[-1] > sups[-2] else 0
        if m is None and growing >= 5:
            raise ArithmeticError(
                f"divergence: increments grew over 5 consecutive sweeps "
                f"(last {sups[-1]})"
            )
    else:
        raise ArithmeticError(
            f"fixed-point iteration did not converge in {max_sweeps} sweeps "
            f"(last increment {sups[-1]})"
        )
    diag = {
        "sweeps": sweep,
        "increments": increments,
        "rhos": rhos,
        "max_rho": max(rhos) if rhos else 0.0,
        "contraction_flag": bool(rhos and max(rhos) >= 1.0),
    }
    return modal, diag


class LinearProblem:
    """Mild-solution data: initial a (field samples), drift b(x,t),
    reaction q(x,t), forcing F(x,t) (callables of (x, t) arrays, constants,
    or None), and no reaction term f(u), which SemilinearProblem adds."""

    term = None

    def __init__(self, basis, alpha, a, drift=None, reaction=None, forcing=None):
        a = np.asarray(a, dtype=float)
        if a.shape != basis.grid.shape:
            raise ValueError(
                f"initial field has shape {a.shape}, spatial grid {basis.grid.shape}"
            )
        self.basis = basis
        self.alpha = float(alpha)
        self.a = a
        self.drift = drift
        self.reaction = reaction
        self.forcing = forcing

    def coefficients(self, tnodes):
        """(q, b, F) sampled on the spatial grid at every node (each a
        (len(tnodes), n_grid) history, or None)."""
        x = self.basis.grid
        return tuple(
            sample_history(f, x, tnodes)
            for f in (self.reaction, self.drift, self.forcing)
        )

    def rhs(self, U, coeffs, shift):
        """(Q + shift) u + F in physical space, for fields U whose last axis
        is the spatial grid and coefficients (q, b, F) that broadcast
        against them."""
        q, b, F = coeffs
        out = np.zeros_like(U)
        if q is not None:
            out += q * U
        if b is not None:
            out += b * np.gradient(U, self.basis.grid, axis=-1)
        out = out + shift * U
        if F is not None:
            out = out + F
        return out


class Trajectory:
    """Modal solution history plus diagnostics."""

    def __init__(self, grid, basis, modal, diagnostics=None):
        self.grid = grid
        self.basis = basis
        self.modal = np.asarray(modal, dtype=float)  # (N+1, M)
        self.diagnostics = dict(diagnostics or {})

    def fields(self):
        return self.modal @ self.basis.modes.T

    def field_at(self, i):
        return self.basis.modes @ self.modal[i]

    def sup_norm(self):
        return float(np.max(np.abs(self.fields())))

    def to_csv(self, path):
        fields = self.fields()
        with open(path, "w") as fh:
            fh.write("t," + ",".join(f"x{i}" for i in range(fields.shape[1])) + "\n")
            for t, row in zip(self.grid.nodes, fields):
                fh.write(f"{float(t)!r}," + ",".join(repr(float(v)) for v in row) + "\n")

    def report(self):
        lines = [f"trajectory: N={self.grid.N}, modes={self.basis.n_modes}"]
        for k, v in self.diagnostics.items():
            lines.append(f"  {k}: {v}")
        return "\n".join(lines)


def _require_linear(prob, solver):
    if prob.term is not None:
        raise TypeError(f"{solver} cannot march a reaction term; use picard_solve")


def solve_linear(prob, grid, shift=0.0, reconstruction="constant"):
    """Forward-substitution solve of the discrete Volterra equation.

    u(t_i) = S(t_i) a + sum_j W_ij P[(Q + s) u + F](t_j), s = shift; with
    'constant' reconstruction each node is explicit; with 'linear' the
    current node enters through the endpoint average and is resolved by an
    inner fixed point.  The first node, node 0 included, where u is not
    finite raises ArithmeticError.
    """
    _require_linear(prob, "solve_linear")
    if reconstruction not in ("constant", "linear"):
        raise ValueError(f"unknown reconstruction {reconstruction!r}")
    basis = prob.basis
    n = len(grid)
    M = basis.n_modes
    prop = ModalPropagator(basis, prob.alpha, grid, shift)
    E, W = prop.E, prop.W
    a_modal = project(basis, prob.a)
    coeffs = prob.coefficients(grid.nodes)

    def rhs(field, i):
        """Modal (Q + s) u + F at node i, for a finite field u."""
        if not np.isfinite(field).all():
            raise ArithmeticError(f"non-finite value at node {i} (t={grid.nodes[i]})")
        at = tuple(None if c is None else c[i] for c in coeffs)
        return project(basis, prob.rhs(field, at, prop.shift))

    modal = np.zeros((n, M))
    modal[0] = a_modal
    G = np.zeros((n, M))  # modal rhs history at nodes
    G[0] = rhs(prob.a, 0)
    peak_inner = 0
    for i in range(1, n):
        w = W[:i][::-1] if grid.kind == "uniform" else W[i]
        base = E[i] * a_modal
        if reconstruction == "constant":
            modal[i] = base + np.einsum("jm,jm->m", w, G[:i])
        else:
            past = np.einsum("jm,jm->m", w[:-1], 0.5 * (G[: i - 1] + G[1:i]))
            past += w[-1] * 0.5 * G[i - 1]
            u = modal[i - 1].copy()
            for it in range(INNER_SWEEPS):
                g_i = rhs(basis.modes @ u, i)
                u_new = base + past + w[-1] * 0.5 * g_i
                delta = float(np.max(np.abs(u_new - u)))
                u = u_new
                if delta < INNER_RTOL * max(1.0, float(np.max(np.abs(u)))):
                    break
            else:
                raise ArithmeticError(
                    f"inner iteration stalled at node {i} (t={grid.nodes[i]}), "
                    f"residual {delta}"
                )
            modal[i] = u
            peak_inner = max(peak_inner, it + 1)
        G[i] = rhs(basis.modes @ modal[i], i)
    diag = {
        "reconstruction": reconstruction,
        "peak_inner_iterations": peak_inner,
        "shift": prop.shift,
    }
    return Trajectory(grid, basis, modal, diag)


def solve_linear_l1(prob, grid):
    """Implicit L1 cross-oracle: same spectral operator, L1 time stepping.

    At each node, (r I + A0 - Q) u_i = F_i + r a - history, with A0 the
    span-truncated operator (so both solvers discretize the identical
    spatial dynamics) and r the diagonal L1 coefficient.  Unconditionally
    stable; used for cross-validation only.
    """
    from scipy.linalg import lu_factor, lu_solve

    from .fracops import l1_weights

    _require_linear(prob, "solve_linear_l1")
    basis = prob.basis
    x = basis.grid
    n = len(grid)
    D = l1_weights(prob.alpha, grid)
    # spectrally truncated A0 as a dense matrix on the spatial grid
    P = basis.weights[None, :] * basis.modes.T  # project
    A0 = basis.modes @ (basis.lambdas[:, None] * P)
    span = basis.modes @ P  # projector onto span{phi_n}
    fields = np.zeros((n, x.size))
    fields[0] = span @ prob.a
    a = fields[0]

    static = not (callable(prob.drift) or callable(prob.reaction))
    coeffs = prob.coefficients(grid.nodes)
    lu = None
    for i in range(1, n):
        r = D[i, i]
        Q = np.zeros((x.size, x.size))
        q, b, F = (None if c is None else c[i] for c in coeffs)
        if q is not None:
            Q += np.diag(q)
        if b is not None:
            Dx = np.zeros((x.size, x.size))
            h = x[1] - x[0]
            Dx[np.arange(1, x.size - 1), np.arange(2, x.size)] = 0.5 / h
            Dx[np.arange(1, x.size - 1), np.arange(0, x.size - 2)] = -0.5 / h
            Dx[0, :2] = [-1.0 / h, 1.0 / h]
            Dx[-1, -2:] = [-1.0 / h, 1.0 / h]
            Q += np.diag(b) @ Dx
        # restrict Q to the span so both solvers share one spatial operator
        Qs = span @ Q @ span
        rhs = (span @ F) if F is not None else np.zeros(x.size)
        rhs = rhs + r * a - span @ (D[i, :i] @ (fields[:i] - a[None, :]))
        mat = r * np.eye(x.size) + A0 - Qs
        if static and grid.kind == "uniform":
            if lu is None:
                lu = lu_factor(mat)
            fields[i] = lu_solve(lu, rhs)
        else:
            fields[i] = np.linalg.solve(mat, rhs)
    return Trajectory(grid, basis, project(basis, fields.T).T, {"scheme": "implicit-L1"})
