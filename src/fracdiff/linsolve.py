"""Solution operators S(t), K(t), the forward march, and the one solve of
every problem type of the package, each a case of

    d_t^{alpha_c} (u_c - a_c) + A_0 u_c = R_c(u),   c = 1, ..., C,

on an eigenbasis of A_0: LinearProblem (C = 1, R = Q u + F with
Q u = b(x,t) u_x + q(x,t) u) and SemilinearProblem (R = Q u + f(u) + F)
here, MultiOrderSystem and SemilinearPair in systems.  Each speaks one
protocol:

* the attributes alphas (the orders, never decreasing), initials (the
  fields a_c on the basis grid) and m (the working box |u| <= m, or None);
* coefficients(tnodes): the one sampler, the problem's coefficients on the
  basis grid at every node (an empty tuple: nothing to sample);
* rhs(coeffs, shift): the checked spectral shift s (the problem's default
  for None) and the closure rhs(U, i) = s U + R(U) over those samples,
  for the fields U (C, n_grid) at the node index i or their histories
  (C, len(tnodes), n_grid), or stacks (C, S, ...) of them, for i = slice(None);
* cooperativity(coeffs, low, high): {} when the sign hypotheses of the
  non-negativity theorem hold on those samples for solutions in
  [low, high], else a dict whose "reason" names the first that fails;
* _reads_u(coeffs, shift): whether s u + R(u) over those samples reads u
  (false for a linear problem with forcing alone at shift 0 and for a
  decoupled system at M_1 = 0, neither of which has a box).

One calling rule holds for every user function of the package: it is
called once per grid, on arrays, and what it returns broadcasts to the
samples it stands for.  sample_history calls a function of (x, t) once as
f(x, tnodes[:, None]), with the 1-D grid x; EllipticOperator calls p and c
once on the 1-D array of their points; reaction terms see whole fields.  A
callable that takes scalars only fails; there is no per-node path.

The shift s belongs to the discrete scheme: it rewrites the equation as
d_t^alpha (u - a) + (A_0 + s) u = s u + R(u).  The shifted kernel weights
are nonnegative, and with the full eigenbasis (n_modes = n_grid) so are
the physical matrices of the map; so whenever s u + R(u) is monotone in u
the discrete map preserves ordering exactly.  The monotone and comparison
machinery in higher modules relies on this, and the order gates give
NOT-APPLICABLE on a truncated basis.

The Volterra convolution uses exact kernel moments
(mlf.kernel_weights_from_e), which absorb the t^(alpha-1) singularity.  A
ModalPropagator belongs to one time grid and builds its tables once, when
it is made: a uniform grid's lag table with its real FFT spectrum, or one
row per node of any other grid, packed into one table and computed for
groups of consecutive rows, one batched Mittag-Leffler call per group of
about ROW_GROUP_POINTS points.  The memory term has two entry points,
which alone read the tables: prop.row(i) weights the history before one
node (the march); _convolution(props) convolves every history of a sweep
by one real FFT pair on a uniform grid, and convolve_K one history.  Both
take the forcing piecewise constant per step (left endpoint).

Under the left-endpoint rule node i reads the right-hand side only at
nodes j < i, so the discrete map u = S(t) a + K * R(u) is strictly lower
triangular: march computes its fixed point node by node.  solve samples
the coefficients once, builds one shifted propagator per distinct order and
marches, behind every solve, so no table outlives its solve; each
trajectory it returns carries the samples, for the gates that read them.
A right-hand side that does not read u is not marched: its solution
S(t) a + K * P R is one _convolution of its samples, the first sweep of
the map from any start.
_sweeps iterates the same map over the whole window, for the iterations
that are checked themselves (the monotone sandwich, picard_system_solve).
Fields keep the grid on their last axis; every projection, synthesis, A_0
and d/dx here is spectral's.
"""

import itertools

import numpy as np

from .mlf import kernel_weights_from_e, ml_neg_vec
from .spectral import _broadcast, apply_a0, derivative, project, synthesize

__all__ = [
    "ModalPropagator",
    "LinearProblem",
    "Trajectory",
    "convolve_K",
    "sample_history",
    "NonFiniteCoefficient",
    "march",
    "working_box",
    "solve",
    "solve_linear",
    "solve_linear_l1",
]

# largest row table (bytes) ModalPropagator builds for a nonuniform grid
MAX_ROW_TABLE_BYTES = 2**31
# Mittag-Leffler points (lags times modes) per batched call of the row build
ROW_GROUP_POINTS = 2**14


def _row_groups(N, M):
    """Consecutive row ranges [lo, hi) of rows 1..N, each closed once its
    lags t_i - t_j (i + 1 per row, M modes each) reach ROW_GROUP_POINTS
    Mittag-Leffler points."""
    lo, points = 1, 0
    for i in range(1, N + 1):
        points += (i + 1) * M
        if points >= ROW_GROUP_POINTS or i == N:
            yield lo, i + 1
            lo, points = i + 1, 0


class ModalPropagator:
    """Per-mode Mittag-Leffler propagator tables on one time grid, built
    once when the propagator is made.

    S(t): multiply mode n by E_{alpha,1}(-lam_n t^alpha); E (N+1, M) holds
          it at every node.
    K*g:  discrete convolution with exact kernel moments
          w_n(lo, hi) = int_lo^hi tau^(alpha-1) E_{alpha,alpha}(-lam_n tau^alpha) dtau,
          read through row(i) and _convolution only.  A uniform grid keeps
          the lag table (N, M); others keep the rows of every node in one
          packed (N(N+1)/2, M) table, row i at offset i(i-1)/2 in
          ascending lags t_i - t_j, 8 M N(N+1)/2 bytes;
          a grid needing more than MAX_ROW_TABLE_BYTES raises ValueError
          before any weight is computed.  The rows are built in groups of
          consecutive rows holding about ROW_GROUP_POINTS lag-mode points:
          one e_values and one kernel_weights_from_e call over the
          group's concatenated lags, less the diffs that cross a row
          boundary, so a group's temporaries stay small and most graded
          grids take a few calls instead of one per node.
    """

    def __init__(self, basis, alpha, grid, shift=0.0):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"propagator needs alpha in (0, 1), got {alpha}")
        if not np.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift}")
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
            self._W = kernel_weights_from_e(self.alpha, self.lambdas, t, self.E)
        else:  # packed rows, lag-ascending, row i at offset i(i-1)/2
            self._W = np.empty((N * (N + 1) // 2, M))
            for lo, hi in _row_groups(N, M):
                rows = np.arange(lo, hi)
                lags = np.concatenate([t[i] - t[i::-1] for i in rows])
                w = kernel_weights_from_e(self.alpha, self.lambdas, lags,
                                          self.e_values(lags))
                # the last diff of each row but the last crosses into the next
                cross = np.cumsum(rows + 1)[:-1] - 1
                self._W[lo * (lo - 1) // 2: hi * (hi - 1) // 2] = np.delete(w, cross, 0)

    def e_values(self, tnodes):
        """E_{alpha,1}(-lam_n t^alpha) for every node/mode: (n_t, M)."""
        tnodes = np.asarray(tnodes, dtype=float)
        x = np.outer(tnodes**self.alpha, self.lambdas)
        return ml_neg_vec(self.alpha, x)

    def row(self, i):
        """The (i, M) weights of node i, aligned with the forcing at nodes
        0..i-1: a reversed view of the lag table or of the packed row."""
        lo = 0 if self.grid.kind == "uniform" else i * (i - 1) // 2
        return self._W[lo:lo + i][::-1]

    def weight_sum_check(self):
        """Invariant: convolve_K of a constant forcing is the moments over [0, t_i]."""
        sums = convolve_K(self, np.ones_like(self.E))[1:]
        t, E = self.grid.nodes[1:], self.E[1:]
        want = kernel_weights_from_e(
            self.alpha, self.lambdas,
            np.stack([np.zeros_like(t), t]), np.stack([np.ones_like(E), E]),
        )[0]
        return float(np.max(np.abs(sums - want)))


def _fast_len(n):
    """The smallest 5-smooth integer >= n: a fast real FFT length."""
    best, p5 = 1 << max(n - 1, 0).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best, p35 = min(best, q), p35 * 3
        p5 *= 5
    return best


def _convolution(props):
    """The function G -> K_c * G[c, s] of propagators props of one grid for
    stacked modal forcing histories G (C, S, N+1, M): one real FFT pair
    against the real FFT spectra of the lag tables, made here once, on a
    uniform grid, else row(i)."""
    grid, n = props[0].grid, len(props[0].grid)
    if grid.kind == "uniform":
        L = _fast_len(2 * grid.N - 1)
        Wf = np.fft.rfft(np.stack([prop._W for prop in props]), n=L, axis=-2)[:, None]

    def convolve(G):
        if G.shape[-2] != n:
            raise ValueError(f"forcing history has {G.shape[-2]} rows, grid {n} nodes")
        out = np.zeros(G.shape)
        if grid.kind == "uniform":
            spectrum = np.fft.rfft(G[..., :-1, :], n=L, axis=-2) * Wf
            out[..., 1:, :] = np.fft.irfft(spectrum, n=L, axis=-2)[..., : n - 1, :]
        else:
            for c, prop in enumerate(props):
                for i in range(1, n):
                    out[c, :, i] = np.einsum("jm,sjm->sm", prop.row(i), G[c, :, :i])
        return out

    return convolve


def convolve_K(prop, forcing):
    """Discrete (K * forcing)(t_i) on prop's grid for a modal forcing
    history (N+1, M), taking the forcing at the left endpoint of each step:
    the one-history case of _convolution, which stacks every history of a
    sweep into one real FFT pair on a uniform grid.  Exact kernel moments
    make a constant single-mode forcing g reproduce
    (1 - E_{alpha,1}(-lam t^alpha))/lam * g to ml accuracy."""
    return _convolution([prop])(np.asarray(forcing, dtype=float)[None, None])[0, 0]


class NonFiniteCoefficient(ValueError):
    """A coefficient with a non-finite sample: its name and the first node
    time t where that occurs."""

    def __init__(self, name, t):
        super().__init__(f"{name} is not finite at t={t}")
        self.name = name
        self.t = t


def sample_history(f, x, tnodes, name):
    """Samples of the coefficient called name on the spatial grid x at every
    time node, shape (len(tnodes), x.size), or None for None.

    f is None, a constant, samples that broadcast to that shape, or a
    callable f(x, t), called once as f(x, tnodes[:, None]) (the calling
    rule of the module docstring).  A non-finite sample is a
    NonFiniteCoefficient naming the coefficient and the first node time
    where it occurs: the left-endpoint rule never reads the last node's
    right-hand side, so a solve would not see it there."""
    if f is None:
        return None
    t = np.asarray(tnodes, dtype=float)[:, None]
    out = _broadcast(f(x, t) if callable(f) else f, (t.size, x.size), name)
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        raise NonFiniteCoefficient(name, tnodes[np.argmax(bad)])
    return out


def _check_box(U, m, where):
    """ArithmeticError at where() unless every value of U is finite and,
    with a box m (None: no box), sup|U| <= m: one reduction, which a NaN
    fails too; where() and the diagnosis run only on a failure."""
    sup = np.abs(U).max()
    if not sup < np.inf:  # a NaN or an infinity
        raise ArithmeticError(f"non-finite value at {where()}")
    if m is not None and sup > m:
        raise ArithmeticError(f"amplitude escape at {where()}: "
                              f"sup|u| = {float(sup)} > m = {m}")


def _node(nodes, i):
    """Where a check fails: node i and its time."""
    return f"node {i} (t={nodes[i]})"


def _free(props, a):
    """S_c(t) a_c at every node for the initial fields a (C, n_grid): the
    modal histories (C, N+1, M) of the propagators props."""
    return np.array([prop.E * ac for prop, ac in zip(props, project(props[0].basis, a))])


def march(props, a, rhs_at, m):
    """Forward march of u_c(t_i) = S_c(t_i) a_c + sum_{j<i} w^c_ij P R_c(t_j)
    for C components, one propagator each, all on one grid: w^c_ij are the
    weights of prop.row(i), and R(t_j) = rhs_at(U, j) the right-hand sides
    (C, n_grid) of the fields U (C, n_grid) at node j, never taken at the
    last node.  a holds the initial fields (C, n_grid).  ArithmeticError is
    raised at the first node, node 0 included, where a value is not finite
    or, with a box m (None: no box), where sup|u| > m.  Returns the modal
    histories (C, N+1, M)."""
    basis, nodes = props[0].basis, props[0].grid.nodes
    U = np.asarray(a, dtype=float)
    modal = _free(props, U)
    G = np.zeros_like(modal)  # modal right-hand sides at the nodes
    for i in range(len(nodes)):
        if i:
            for c, prop in enumerate(props):
                modal[c, i] += np.einsum("jm,jm->m", prop.row(i), G[c, :i])
            U = synthesize(basis, modal[:, i])
        _check_box(U, m, lambda: _node(nodes, i))
        if i < len(nodes) - 1:
            G[:, i] = project(basis, rhs_at(U, i))
    return modal


def _lattice(lo, hi, points, width):
    """points amplitude levels equally spaced over [lo, hi], and the
    (points, width) lattice whose row k holds level k."""
    levels = np.linspace(lo, hi, points)
    return levels, np.repeat(levels[:, None], width, axis=1)


def _order_hypothesis(basis):
    """{} when the basis is full (n_modes = n_grid), where the discrete map
    preserves order, else the reason of a NOT-APPLICABLE order verdict."""
    if basis.n_modes < basis.grid.size:
        return {"reason": "truncated basis: the discrete map need not preserve order"}
    return {}


def _first_negative(named):
    """{"reason"} naming the first (name, samples or None) below -1e-12, or {}."""
    for name, h in named:
        if h is not None and float(np.min(h)) < -1e-12:
            return {"reason": f"{name} takes negative values"}
    return {}


def working_box(a, m=None):
    """The working box |u| <= m of a solve from the initial fields a, by
    default 2 (1 + sup|a|); a ValueError unless it is finite and holds a."""
    sup_a = float(np.max(np.abs(a)))
    m = 2.0 * (1.0 + sup_a) if m is None else float(m)
    if not (np.isfinite(m) and sup_a <= m):
        raise ValueError(f"sup|a| = {sup_a} needs a finite working box m >= sup|a|, got {m}")
    return m


class LinearProblem:
    """Mild-solution data: initial a (field samples), drift b(x,t),
    reaction q(x,t), forcing F(x,t) (callables of (x, t) arrays, constants,
    or None), and no reaction term f(u) and no working box m, which
    SemilinearProblem adds.  One component: alphas = [alpha] and
    initials = [a]."""

    term = None
    m = None

    def __init__(self, basis, alpha, a, drift=None, reaction=None, forcing=None):
        a = np.asarray(a, dtype=float)
        if a.shape != basis.grid.shape:
            raise ValueError(
                f"initial field has shape {a.shape}, spatial grid {basis.grid.shape}"
            )
        self.basis = basis
        self.alpha = float(alpha)
        self.a = a
        self.alphas, self.initials = [self.alpha], [a]
        self.drift = drift
        self.reaction = reaction
        self.forcing = forcing

    def coefficients(self, tnodes):
        """(q, b, F) sampled on the spatial grid at every node (each a
        (len(tnodes), n_grid) history, or None)."""
        x = self.basis.grid
        return tuple(
            sample_history(f, x, tnodes, name)
            for f, name in ((self.reaction, "reaction"), (self.drift, "drift"),
                            (self.forcing, "forcing"))
        )

    def rhs(self, coeffs, shift):
        """The shift s and the closure (Q + s) u + F (+ f(u) with a term f)
        over the samples (q, b, F), for fields U whose last axis is the
        spatial grid (leading axes broadcast against the samples); the
        shift defaults to 0."""
        shift = 0.0 if shift is None else float(shift)
        q, b, F = coeffs
        x, term = self.basis.grid, self.term

        def rhs(U, i):
            out = 0.0 if q is None else q[i] * U
            if b is not None:
                out = out + b[i] * derivative(x, U)
            out = out + shift * U
            if F is not None:
                out = out + F[i]
            return out if term is None else out + term(x, U)

        return shift, rhs

    def _reads_u(self, coeffs, shift):
        """Whether s u + R(u) over the samples (q, b, F) reads u: with a
        reaction, a drift, a term or a shift."""
        q, b, _ = coeffs
        return not (q is None and b is None and self.term is None and shift == 0.0)

    def cooperativity(self, coeffs, low, high):
        """a >= 0, then the sampled F >= 0, then f(x, 0) >= 0 for a
        reaction term f; the reason names the first that fails."""
        x = self.basis.grid
        f0 = None if self.term is None else self.term(x, np.zeros_like(x))
        return _first_negative([("initial data", self.a), ("forcing", coeffs[2]),
                                ("f(x, 0)", f0)])


class Trajectory:
    """Modal solution history, the samples its solve read (None: not from a
    solve) and diagnostics."""

    def __init__(self, grid, basis, modal, samples, diagnostics=None):
        self.grid = grid
        self.basis = basis
        self.modal = np.asarray(modal, dtype=float)  # (N+1, M)
        self.samples = samples
        self.diagnostics = dict(diagnostics or {})

    def fields(self):
        return synthesize(self.basis, self.modal)

    def sup_norm(self):
        return float(np.max(np.abs(self.fields())))

    def to_csv(self, path):
        fields = self.fields()
        with open(path, "w") as fh:
            fh.write("t," + ",".join(f"x{i}" for i in range(fields.shape[1])) + "\n")
            for t, row in zip(self.grid.nodes.tolist(), fields.tolist()):
                fh.write(",".join(map(repr, [t, *row])) + "\n")

    def report(self):
        lines = [f"trajectory: N={self.grid.N}, modes={self.basis.n_modes}"]
        for k, v in self.diagnostics.items():
            lines.append(f"  {k}: {v}")
        return "\n".join(lines)


def _propagators(prob, grid, shift):
    """prob's coefficients sampled once on the grid (a bad one is refused
    before any table is built), the checked shift and closure rhs(U, i) of
    prob.rhs over them, then one shifted propagator per distinct order."""
    coeffs = prob.coefficients(grid.nodes)
    shift, rhs = prob.rhs(coeffs, shift)
    props = {a: ModalPropagator(prob.basis, a, grid, shift) for a in set(prob.alphas)}
    return coeffs, shift, rhs, [props[a] for a in prob.alphas]


def solve(prob, grid, shift):
    """The trajectories of any problem, one per component: the march of
    u_c(t_i) = S_c(t_i) a_c + sum_{j<i} w^c_ij P[s u + R(u)]_c(t_j) in its
    box, every propagator shifted by s = shift (None: the problem's
    default), each carrying the samples of the coefficients.  A right-hand
    side that does not read u (prob._reads_u) is R = R(0), and its map is
    one whole-window sweep, u = S(t) a + K * P R, with no march: one
    convolution, checked once for the first node with a non-finite value."""
    coeffs, shift, rhs, props = _propagators(prob, grid, shift)
    if prob._reads_u(coeffs, shift):
        modal = march(props, prob.initials, rhs, prob.m)
    else:
        R = rhs(np.zeros((len(props), len(grid), prob.basis.grid.size)), slice(None))
        modal = _free(props, prob.initials)
        modal += _convolution(props)(project(prob.basis, R)[:, None])[:, 0]
        _check_box(modal, None, lambda: _node(
            grid.nodes, int(np.argmin(np.isfinite(modal).all(axis=(0, 2))))))
    return [Trajectory(grid, prob.basis, mc, coeffs, {"shift": shift}) for mc in modal]


def _sweeps(prob, grid, shift, U):
    """The whole-window sweeps of the map that solve marches, for S stacked
    starts U (C, S, N+1, n_grid): prob's samples, the checked shift s and an
    iterator over sweeps k = 1, 2, ..., each applying
    u_c -> S_c(t) a_c + K_c * P[s u + R(u)]_c to the fields of the last and
    yielding its modal histories (C, S, N+1, M) and fields after _check_box
    in the box m.  Samples, propagators and S_c(t) a_c are made once."""
    coeffs, shift, rhs, props = _propagators(prob, grid, shift)
    basis, convolve = prob.basis, _convolution(props)
    free = _free(props, prob.initials)

    def sweeps(U):
        for k in itertools.count(1):
            modal = free[:, None] + convolve(project(basis, rhs(U, slice(None))))
            U = synthesize(basis, modal)
            _check_box(U, prob.m, lambda: f"sweep {k}")
            yield modal, U

    return coeffs, shift, sweeps(np.asarray(U, dtype=float))


def solve_linear(prob, grid, shift=0.0):
    """The trajectory of solve for a LinearProblem, or a SemilinearProblem
    in its box m."""
    return solve(prob, grid, shift)[0]


def solve_linear_l1(prob, grid):
    """Implicit L1 cross-oracle: same spectral operator, L1 time stepping.

    At each node, (r I + A0 - Q) u_i = F_i + r a - history, with r the
    diagonal L1 coefficient and A0 and Q spectral's operators restricted to
    the span (so both solvers discretize the identical spatial dynamics).
    Unconditionally stable; used for cross-validation only.
    """
    from .fracops import l1_weights

    if prob.term is not None:
        raise TypeError("solve_linear_l1 cannot step a reaction term; use solve_linear")
    basis, x, n = prob.basis, prob.basis.grid, len(grid)
    D = l1_weights(prob.alpha, grid)
    # dense matrices on the spatial grid: the operators applied to the identity
    eye = np.eye(x.size)
    A0 = apply_a0(basis, eye).T  # spectrally truncated
    span = synthesize(basis, project(basis, eye)).T  # projector onto span{phi_n}
    Dx = derivative(x, eye).T
    fields = np.zeros((n, x.size))
    fields[0] = span @ prob.a
    a = fields[0]

    coeffs = prob.coefficients(grid.nodes)
    for i in range(1, n):
        r = D[i, i]
        Q = np.zeros_like(eye)
        q, b, F = (None if c is None else c[i] for c in coeffs)
        if q is not None:
            Q += np.diag(q)
        if b is not None:
            Q += b[:, None] * Dx
        # restrict Q to the span so both solvers share one spatial operator
        Qs = span @ Q @ span
        rhs = (span @ F) if F is not None else np.zeros(x.size)
        rhs = rhs + r * a - span @ (D[i, :i] @ (fields[:i] - a[None, :]))
        fields[i] = np.linalg.solve(r * eye + A0 - Qs, rhs)
    return Trajectory(grid, basis, project(basis, fields), None, {"scheme": "implicit-L1"})
