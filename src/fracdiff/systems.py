"""Multi-order cooperative linear systems and two-component semilinear
pairs on a shared Neumann Laplacian eigenbasis.

picard_system_solve iterates the coupled mild formulation

    d_t^{alpha_l} (u_l - a_l) - Lap u_l = sum_j p_{lj} u_j + F_l

with per-component propagators S_l, K_l shifted by M_1 (so the diagonal
coupling p_ll + M_1 is positive and the sweep map preserves ordering and
nonnegativity on the grid).  Both picard_system_solve and
semilinear_pair_solve run on the shared Volterra engine
linsolve.fixed_point, with the components stacked along its component
axis and the couplings and forcings sampled once per grid.

Nonnegativity verdicts are gated on the sampled hypotheses (off-diagonal
couplings, forcings, and initial data all nonnegative);
cooperative_classify decides which disjuncts of the pair conditions hold
and hence which of the four cooperative cases (or none) applies.
"""

import math

import numpy as np

from .fracops import SampledSignal, rl_integral
from .linsolve import ModalPropagator, Trajectory, fixed_point, sample_history

__all__ = [
    "MultiOrderSystem",
    "picard_system_solve",
    "nonneg_verify",
    "increment_recursion_check",
    "kernel_envelope_check",
    "SemilinearPair",
    "semilinear_pair_solve",
    "cooperative_classify",
    "pair_nonneg_verify",
]


class MultiOrderSystem:
    """N coupled components with strictly increasing orders alpha_l.

    couplings is an N x N nested sequence of entries (None, scalar, or
    callable (x, t)); forcings a length-N sequence of the same kind.
    """

    def __init__(self, basis, alphas, initials, couplings=None, forcings=None):
        alphas = [float(a) for a in alphas]
        if len(alphas) < 2:
            raise ValueError("a multi-order system needs at least 2 components")
        if any(not (0.0 < a < 1.0) for a in alphas):
            raise ValueError(f"orders must lie in (0, 1), got {alphas}")
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError(f"orders must be strictly increasing, got {alphas}")
        n = len(alphas)
        initials = [np.asarray(a, dtype=float) for a in initials]
        if len(initials) != n:
            raise ValueError(f"{len(initials)} initial fields for {n} components")
        for a in initials:
            if a.shape != basis.grid.shape:
                raise ValueError("initial fields must be sampled on the basis grid")
        if couplings is None:
            couplings = [[None] * n for _ in range(n)]
        if len(couplings) != n or any(len(row) != n for row in couplings):
            raise ValueError("couplings must be an N x N table")
        if forcings is None:
            forcings = [None] * n
        if len(forcings) != n:
            raise ValueError(f"{len(forcings)} forcings for {n} components")
        self.basis = basis
        self.alphas = alphas
        self.N = n
        self.initials = initials
        self.couplings = couplings
        self.forcings = forcings

    def coefficients(self, tnodes):
        """(P, F): the couplings as an N x N table and the forcings as a
        list, each entry a (len(tnodes), n_grid) history or None."""
        x = self.basis.grid
        P = [[sample_history(p, x, tnodes) for p in row] for row in self.couplings]
        return P, [sample_history(f, x, tnodes) for f in self.forcings]


def _sup(history):
    return 0.0 if history is None else float(np.max(np.abs(history)))


def picard_system_solve(sys, grid, M1=None, tol=1e-10, max_sweeps=200):
    """Coupled Picard sweeps from U^0 = (a_1, ..., a_N).

    Returns trajectories, the increment histories U_n(t) = sum_l
    sup_x |u_l^{n+1} - u_l^n|(t), and the shift M_1 used.  Raises as
    linsolve.fixed_point does: on a non-finite value, on divergence (sup
    increment growing over 5 consecutive sweeps), or on non-convergence
    within max_sweeps.
    """
    basis = sys.basis
    P, F = sys.coefficients(grid.nodes)
    coupled = any(p is not None for row in P for p in row)
    diagonal_sup = max(_sup(P[l][l]) for l in range(sys.N))
    if M1 is None:
        # decoupled systems run unshifted, so one sweep reproduces S_l a_l
        M1 = 1.0 + diagonal_sup if coupled else 0.0
    M1 = float(M1)
    if coupled and M1 <= diagonal_sup:
        raise ValueError(
            f"M1 = {M1} must exceed the diagonal coupling bound {diagonal_sup}"
        )
    if M1 < 0.0:
        raise ValueError(f"M1 must be nonnegative, got {M1}")
    props = [ModalPropagator(basis, a, grid, shift=M1) for a in sys.alphas]

    def rhs(U):
        R = M1 * U
        for l in range(sys.N):
            for j in range(sys.N):
                if P[l][j] is not None:
                    R[l] = R[l] + P[l][j] * U[j]
            if F[l] is not None:
                R[l] = R[l] + F[l]
        return R

    modal, diag = fixed_point(props, sys.initials, rhs, tol, max_sweeps)
    increments = diag.pop("increments")
    trajs = [
        Trajectory(grid, basis, modal[l], {"component": l, "M1": M1, **diag})
        for l in range(sys.N)
    ]
    return {
        "trajectories": trajs,
        "increments": increments,
        "M1": M1,
        "sweeps": diag["sweeps"],
    }


def nonneg_verify(sys, trajectories, grid, tol=1e-8):
    """Gate on the cooperativity hypotheses, then check min value >= -tol.

    Hypotheses: off-diagonal p_jk >= 0, F_k >= 0, a_k >= 0 (all sampled);
    if any fails the verdict is NOT-APPLICABLE and the minimum is still
    reported (but not asserted)."""
    P, F = sys.coefficients(grid.nodes)
    reason = None
    for k, a in enumerate(sys.initials):
        if float(np.min(a)) < -1e-12:
            reason = f"a_{k + 1} takes negative values"
    for k, f in enumerate(F):
        if f is not None and float(np.min(f)) < -1e-12:
            reason = f"F_{k + 1} takes negative values"
    for j in range(sys.N):
        for k in range(sys.N):
            p = P[j][k]
            if j != k and p is not None and float(np.min(p)) < -1e-12:
                reason = f"p_{j + 1}{k + 1} takes negative values"
    min_value = min(float(np.min(tr.fields())) for tr in trajectories)
    if reason is not None:
        return {"verdict": "NOT-APPLICABLE", "reason": reason, "min_value": min_value}
    return {
        "verdict": "PASS" if min_value >= -tol else "FAIL",
        "min_value": min_value,
        "tol": tol,
    }


def increment_recursion_check(result, sys, grid):
    """Verify U_n <= C (J^{alpha_1} U_{n-1}) node-wise for the constructive
    constant C = (M_1 + max_l sum_j sup|p_lj|) max_l T^(a_l - a_1)
    Gamma(a_1)/Gamma(a_l); returns the worst ratio against that bound."""
    alpha1 = sys.alphas[0]
    T = grid.T
    P, _ = sys.coefficients(grid.nodes)
    coup = max(sum(_sup(p) for p in row) for row in P)
    kernel = max(
        T ** (a - alpha1) * math.gamma(alpha1) / math.gamma(a) for a in sys.alphas
    )
    C = (result["M1"] + coup) * kernel
    worst = 0.0
    incs = result["increments"]
    # increments below ~100 eps * sup|u| are rounding noise, not signal
    scale = max(tr.sup_norm() for tr in result["trajectories"])
    floor = 1e-14 + 1e-13 * scale
    for U_prev, U_next in zip(incs[:-1], incs[1:]):
        bound = C * rl_integral(alpha1, SampledSignal(grid, U_prev)).values
        denom = bound + floor + 1e-12 * float(np.max(U_prev))
        worst = max(worst, float(np.max(U_next / denom)))
    return {"constant": C, "worst_ratio": worst, "passes": worst <= 1.0 + 1e-9}


def kernel_envelope_check(sys, grid):
    """Per-component convolution weights obey the uniform t^(alpha_1 - 1)
    envelope: weight over [lo, hi] <= C (hi^a1 - lo^a1)/a1 with
    C = max_l T^(a_l - a_1)/Gamma(a_l)."""
    if grid.kind != "uniform":
        raise ValueError("kernel_envelope_check needs a uniform grid")
    alpha1 = sys.alphas[0]
    T = grid.T
    C = max(T ** (a - alpha1) / math.gamma(a) for a in sys.alphas)
    t = grid.nodes
    env = C * np.diff(t**alpha1) / alpha1
    worst = 0.0
    for a in sys.alphas:
        W = ModalPropagator(sys.basis, a, grid).W
        worst = max(worst, float(np.max(W / env[:, None])))
    return {"constant": C, "worst_ratio": worst, "passes": worst <= 1.0 + 1e-9}


class SemilinearPair:
    """Two components of equal order coupled through bivariate reactions
    f(u, v) and g(u, v) (elementwise callables)."""

    def __init__(self, basis, alpha, f, g, a, b, m=None):
        self.basis = basis
        self.alpha = float(alpha)
        self.f = f
        self.g = g
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        for field in (self.a, self.b):
            if field.shape != basis.grid.shape:
                raise ValueError("initial fields must be sampled on the basis grid")
        if m is None:
            m = 2.0 * (1.0 + max(float(np.max(np.abs(self.a))),
                                 float(np.max(np.abs(self.b)))))
        self.m = float(m)


def semilinear_pair_solve(pair, grid, tol=1e-10, max_sweeps=200, shift=0.0):
    """Coupled Picard iteration for the pair, to sup increment < tol, by
    linsolve.fixed_point with the working box m.

    The optional spectral shift s rewrites the reactions as
    s u + f(u, v) and s v + g(u, v); with s >= the sampled Lipschitz bound
    and cooperative couplings the discrete sweep map preserves
    nonnegativity exactly (full-basis grids)."""
    basis = pair.basis
    prop = ModalPropagator(basis, pair.alpha, grid, shift=shift)

    def rhs(U):
        u, v = U
        return np.stack([
            shift * u + np.asarray(pair.f(u, v), float) * np.ones_like(u),
            shift * v + np.asarray(pair.g(u, v), float) * np.ones_like(v),
        ])

    modal, diag = fixed_point(
        [prop, prop], [pair.a, pair.b], rhs, tol, max_sweeps, m=pair.m
    )
    del diag["increments"]
    diag["shift"] = shift
    return tuple(Trajectory(grid, basis, c, diag) for c in modal)


def cooperative_classify(pair, box, n=101, tol=1e-9):
    """Which disjuncts of the pair's sign conditions hold on the box.

    Condition on f: (A) f(0, eta) >= 0, or (B) d_2 f >= 0 and f(0,0) = 0;
    on g: (A) g(xi, 0) >= 0, or (B) d_1 g >= 0 and g(0,0) = 0.
    Cases: 1 = (A, A), 2 = (A, B), 3 = (B, A), 4 = (B, B); 'none' when a
    condition fails both ways, with the violating lattice points reported.
    """
    lo, hi = float(box[0]), float(box[1])
    xi = np.linspace(lo, hi, n)
    U, V = np.meshgrid(xi, xi, indexing="ij")
    h = xi[1] - xi[0]
    witnesses = {}

    def disjuncts(fn, first_arg_zero):
        Z = np.asarray(fn(U, V), dtype=float) * np.ones_like(U)
        if first_arg_zero:
            edge = np.asarray(fn(np.zeros_like(xi), xi), dtype=float) * np.ones_like(xi)
            dpart = np.diff(Z, axis=1) / h  # d_2 f
            label = "f"
        else:
            edge = np.asarray(fn(xi, np.zeros_like(xi)), dtype=float) * np.ones_like(xi)
            dpart = np.diff(Z, axis=0) / h  # d_1 g
            label = "g"
        A = bool(np.min(edge) >= -tol)
        if not A:
            k = int(np.argmin(edge))
            witnesses[f"{label}_edge"] = (float(xi[k]), float(np.min(edge)))
        origin = float(np.asarray(fn(np.zeros(1), np.zeros(1)), dtype=float).ravel()[0])
        B = bool(np.min(dpart) >= -tol and abs(origin) <= max(tol, 1e-9 * np.max(np.abs(Z) + 1)))
        if not B:
            i, j = np.unravel_index(np.argmin(dpart), dpart.shape)
            witnesses[f"{label}_partial"] = (
                float(xi[i]), float(xi[j]), float(np.min(dpart)), origin,
            )
        return A, B

    fA, fB = disjuncts(pair.f, True)
    gA, gB = disjuncts(pair.g, False)
    case = "none"
    if fA and gA:
        case = 1
    elif fA and gB:
        case = 2
    elif fB and gA:
        case = 3
    elif fB and gB:
        case = 4
    return {
        "case": case,
        "f_disjuncts": (fA, fB),
        "g_disjuncts": (gA, gB),
        "witnesses": witnesses,
    }


def pair_nonneg_verify(pair, solution, tol=1e-8):
    """PASS iff both components stay >= -tol, gated on a >= 0, b >= 0 and a
    successful classification over the observed range inflated by 25%."""
    u_traj, v_traj = solution
    uf, vf = u_traj.fields(), v_traj.fields()
    min_value = min(float(np.min(uf)), float(np.min(vf)))
    if float(np.min(pair.a)) < -1e-12 or float(np.min(pair.b)) < -1e-12:
        return {
            "verdict": "NOT-APPLICABLE",
            "reason": "initial data not nonnegative",
            "min_value": min_value,
        }
    hi = max(float(np.max(uf)), float(np.max(vf)))
    span = max(hi - min_value, 1e-3)
    cls = cooperative_classify(pair, (min_value - 0.25 * span, hi + 0.25 * span))
    if cls["case"] == "none":
        return {
            "verdict": "NOT-APPLICABLE",
            "reason": "pair is not cooperative on the observed range",
            "classification": cls,
            "min_value": min_value,
        }
    return {
        "verdict": "PASS" if min_value >= -tol else "FAIL",
        "min_value": min_value,
        "classification": cls,
        "tol": tol,
    }
