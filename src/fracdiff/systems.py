"""Reaction systems: C >= 2 components on one Neumann Laplacian
eigenbasis, each of its own order alpha_c, coupled through a reaction R:

    d_t^{alpha_c} (u_c - a_c) - Lap u_c = R_c(u),   c = 1, ..., C.

ReactionSystem validates the orders, the initial fields and the working
box.  Its two constructors, MultiOrderSystem (linear couplings and
forcings) and SemilinearPair (two components of equal order, bivariate
reactions f and g), complete the problem protocol of linsolve: rhs, whose
shift is the M_1 of the paper with its default and check, and the
cooperativity hypotheses; cooperative_classify decides which of the four
cooperative cases of a pair (or none) applies.  linsolve.solve marches a
system like any problem (semilinear_pair_solve); picard_system_solve sweeps
the same map over the whole window for its increments.  nonneg_verify is
the one non-negativity gate of every problem type.
"""

import math

import numpy as np

from .fracops import SampledSignal, rl_integral
from .linsolve import (
    ModalPropagator,
    Trajectory,
    _propagators,
    sample_history,
    solve,
    volterra_sweep,
    working_box,
)

__all__ = [
    "ReactionSystem",
    "MultiOrderSystem",
    "SemilinearPair",
    "picard_system_solve",
    "nonneg_verify",
    "increment_recursion_check",
    "kernel_envelope_check",
    "semilinear_pair_solve",
    "cooperative_classify",
    "pair_nonneg_verify",
]

# cooperative_classify: lattice points per box axis, rounding allowed
CLASSIFY_POINTS = 101
CLASSIFY_TOL = 1e-9


def _sup(history):
    return 0.0 if history is None else float(np.max(np.abs(history)))


class ReactionSystem:
    """C >= 2 components with orders in (0, 1) that never decrease,
    initial fields sampled on the basis grid, and the working box |u| <= m
    of the solve (None: no box).  A constructor supplies rhs and
    cooperativity, the rest of the problem protocol of linsolve.
    """

    def __init__(self, basis, alphas, initials, m=None):
        alphas = [float(a) for a in alphas]
        if len(alphas) < 2:
            raise ValueError("a reaction system needs at least 2 components")
        if any(not (0.0 < a < 1.0) for a in alphas):
            raise ValueError(f"orders must lie in (0, 1), got {alphas}")
        if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ValueError(f"orders must not decrease, got {alphas}")
        n = len(alphas)
        initials = [np.asarray(a, dtype=float) for a in initials]
        if len(initials) != n:
            raise ValueError(f"{len(initials)} initial fields for {n} components")
        for a in initials:
            if a.shape != basis.grid.shape:
                raise ValueError("initial fields must be sampled on the basis grid")
        self.basis = basis
        self.alphas = alphas
        self.N = n
        self.initials = initials
        self.m = None if m is None else working_box(initials, m)


class MultiOrderSystem(ReactionSystem):
    """Linear couplings R_l(u) = sum_j p_lj u_j + F_l, with no box.

    couplings is an N x N nested sequence of entries (None, scalar, or
    callable (x, t)); forcings a length-N sequence of the same kind.
    """

    def __init__(self, basis, alphas, initials, couplings=None, forcings=None):
        super().__init__(basis, alphas, initials)
        n = self.N
        if couplings is None:
            couplings = [[None] * n for _ in range(n)]
        if len(couplings) != n or any(len(row) != n for row in couplings):
            raise ValueError("couplings must be an N x N table")
        if forcings is None:
            forcings = [None] * n
        if len(forcings) != n:
            raise ValueError(f"{len(forcings)} forcings for {n} components")
        self.couplings = couplings
        self.forcings = forcings

    def coefficients(self, tnodes):
        """(P, F): the couplings as an N x N table and the forcings as a
        list, each entry a (len(tnodes), n_grid) history or None."""
        x = self.basis.grid
        P = [[sample_history(p, x, tnodes, f"p_{j + 1}{k + 1}") for k, p in enumerate(row)]
             for j, row in enumerate(self.couplings)]
        return P, [sample_history(f, x, tnodes, f"F_{k + 1}")
                   for k, f in enumerate(self.forcings)]

    def rhs(self, tnodes, shift):
        """The shift M_1 and the closure M_1 U + R(U).  M_1 must exceed the
        diagonal couplings sup|p_ll| and be >= 0; by default it is
        1 + max_l sup|p_ll|, or 0 for a decoupled system, so that a
        decoupled system solves to S_l a_l exactly."""
        P, F = self.coefficients(tnodes)
        coupled = any(p is not None for row in P for p in row)
        diagonal_sup = max(_sup(P[l][l]) for l in range(self.N))
        if shift is None:
            shift = 1.0 + diagonal_sup if coupled else 0.0
        M1 = float(shift)
        if coupled and M1 <= diagonal_sup:
            raise ValueError(
                f"M1 = {M1} must exceed the diagonal coupling bound {diagonal_sup}"
            )
        if M1 < 0.0:
            raise ValueError(f"M1 must be nonnegative, got {M1}")

        def rhs(U, i):
            R = M1 * U
            for l in range(self.N):
                for j in range(self.N):
                    if P[l][j] is not None:
                        R[l] = R[l] + P[l][j][i] * U[j]
                if F[l] is not None:
                    R[l] = R[l] + F[l][i]
            return R

        return M1, rhs

    def cooperativity(self, grid, low, high):
        """Off-diagonal p_jk >= 0, F_k >= 0, a_k >= 0, all sampled on the
        grid; the reason names the last one that fails."""
        P, F = self.coefficients(grid.nodes)
        idx = range(self.N)
        named = [(f"a_{k + 1}", a) for k, a in enumerate(self.initials)]
        named += [(f"F_{k + 1}", f) for k, f in enumerate(F)]
        named += [(f"p_{j + 1}{k + 1}", P[j][k]) for j in idx for k in idx if j != k]
        failed = [name for name, h in named if h is not None and np.min(h) < -1e-12]
        return {"reason": f"{failed[-1]} takes negative values"} if failed else {}


class SemilinearPair(ReactionSystem):
    """Two components of equal order coupled through bivariate reactions
    f(u, v) and g(u, v) (elementwise callables), always in a working box:
    m, or 2 (1 + max(sup|a|, sup|b|)) by default."""

    def __init__(self, basis, alpha, f, g, a, b, m=None):
        super().__init__(basis, [alpha, alpha], [a, b], m)
        if m is None:
            self.m = working_box(self.initials)
        self.f = f
        self.g = g

    def rhs(self, tnodes, shift):
        """The shift M_1, 0 by default, and the closure of the reactions
        M_1 u + f(u, v) and M_1 v + g(u, v); with M_1 >= the sampled
        Lipschitz bound and cooperative couplings the discrete map preserves
        nonnegativity exactly (full-basis grids)."""
        M1 = 0.0 if shift is None else float(shift)

        def rhs(U, i):
            u, v = U
            R = M1 * U
            R[0] = R[0] + np.asarray(self.f(u, v), float) * np.ones_like(u)
            R[1] = R[1] + np.asarray(self.g(u, v), float) * np.ones_like(v)
            return R

        return M1, rhs

    def cooperativity(self, grid, low, high):
        """a >= 0, b >= 0 and a successful classification over the observed
        range [low, high] inflated by 25%."""
        if min(float(np.min(a)) for a in self.initials) < -1e-12:
            return {"reason": "initial data not nonnegative"}
        span = max(high - low, 1e-3)
        cls = cooperative_classify(self, (low - 0.25 * span, high + 0.25 * span))
        if cls["case"] == "none":
            return {
                "reason": "pair is not cooperative on the observed range",
                "classification": cls,
            }
        return {"classification": cls}


def picard_system_solve(sys, grid, M1=None, tol=1e-10, max_sweeps=200):
    """Whole-window Picard sweeps of the map that linsolve.solve marches,
    from U^0 = (a_1, ..., a_N), for the increments U_n(t) = sum_l
    sup_x |u_l^n - u_l^(n-1)|(t) that increment_recursion_check bounds.

    Stops once sup_t U_n < tol max(1, sup|u|).  Raises ArithmeticError on a
    non-finite value, on divergence (amplitude escape from the box m, or
    without a box 5 consecutive growing increments: inside a box they may
    grow for many sweeps before they contract) and after max_sweeps sweeps
    (ValueError if < 1).  Returns the trajectories, with diagnostics sweeps,
    rhos (ratios of consecutive sup increments), max_rho and
    contraction_flag (some ratio >= 1); the increments, M_1 and the sweeps.
    """
    if max_sweeps < 1:
        raise ValueError(f"picard_system_solve needs max_sweeps >= 1, got {max_sweeps}")
    basis, m = sys.basis, sys.m
    M1, rhs, props = _propagators(sys, grid, M1)
    a = np.asarray(sys.initials, dtype=float)
    U = np.repeat(a[:, None, :], len(grid), axis=1)
    increments, rhos, growing, last = [], [], 0, None
    for sweep in range(1, max_sweeps + 1):
        modal = volterra_sweep(props, a, rhs(U, slice(None)))
        new = modal @ basis.modes.T
        if not np.isfinite(new).all():
            raise ArithmeticError(f"non-finite value at sweep {sweep}")
        peak = float(np.max(np.abs(new)))
        if m is not None and peak > m:
            raise ArithmeticError(f"amplitude escape at sweep {sweep}: "
                                  f"sup|u| = {peak} > m = {m}")
        increments.append(np.max(np.abs(new - U), axis=-1).sum(axis=0))
        U, sup = new, float(np.max(increments[-1]))
        if last:
            rhos.append(sup / last)
        if sup < tol * max(1.0, peak):
            break
        growing = growing + 1 if last is not None and sup > last else 0
        if m is None and growing >= 5:
            raise ArithmeticError(f"divergence: increments grew over 5 consecutive sweeps "
                                  f"(last {sup})")
        last = sup
    else:
        raise ArithmeticError(f"fixed-point iteration did not converge in {max_sweeps} "
                              f"sweeps (last increment {sup})")
    diag = {"sweeps": sweep, "rhos": rhos, "max_rho": max(rhos) if rhos else 0.0,
            "contraction_flag": bool(rhos and max(rhos) >= 1.0)}
    trajs = [Trajectory(grid, basis, modal[l], {"component": l, "M1": M1, **diag})
             for l in range(sys.N)]
    return {"trajectories": trajs, "increments": increments, "M1": M1, "sweeps": sweep}


def nonneg_verify(sys, trajectories, grid, tol=1e-8):
    """Gate on the problem's cooperativity hypotheses, then check that the
    minimum over its trajectories is >= -tol.  If a hypothesis fails the
    verdict is NOT-APPLICABLE with its reason, and the minimum is still
    reported (but not asserted)."""
    fields = [tr.fields() for tr in trajectories]
    low = min(float(np.min(f)) for f in fields)
    high = max(float(np.max(f)) for f in fields)
    out = {"min_value": low, **sys.cooperativity(grid, low, high)}
    if "reason" in out:
        return {"verdict": "NOT-APPLICABLE", **out}
    return {"verdict": "PASS" if low >= -tol else "FAIL", **out, "tol": tol}


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
        W = ModalPropagator(sys.basis, a, grid).row(grid.N)[::-1]  # by lag
        worst = max(worst, float(np.max(W / env[:, None])))
    return {"constant": C, "worst_ratio": worst, "passes": worst <= 1.0 + 1e-9}


def semilinear_pair_solve(pair, grid, shift=0.0):
    """The trajectories (u, v) of linsolve.solve with M_1 = shift."""
    return tuple(solve(pair, grid, shift))


def cooperative_classify(pair, box):
    """Which disjuncts of the pair's sign conditions hold on the
    CLASSIFY_POINTS x CLASSIFY_POINTS lattice of the box, to CLASSIFY_TOL.

    Condition on f: (A) f(0, eta) >= 0, or (B) d_2 f >= 0 and f(0,0) = 0;
    on g: (A) g(xi, 0) >= 0, or (B) d_1 g >= 0 and g(0,0) = 0.
    Cases: 1 = (A, A), 2 = (A, B), 3 = (B, A), 4 = (B, B); 'none' when a
    condition fails both ways, with the violating lattice points reported.
    """
    lo, hi = float(box[0]), float(box[1])
    xi = np.linspace(lo, hi, CLASSIFY_POINTS)
    U, V = np.meshgrid(xi, xi, indexing="ij")
    h = xi[1] - xi[0]
    witnesses = {}

    def disjuncts(fn, label, axis):
        # f: the edge u = 0 and d_2 f (axis 1); g: the edge v = 0 and d_1 g
        Z = np.asarray(fn(U, V), dtype=float) * np.ones_like(U)
        on_edge = (np.zeros_like(xi), xi) if axis == 1 else (xi, np.zeros_like(xi))
        edge = np.asarray(fn(*on_edge), dtype=float) * np.ones_like(xi)
        dpart = np.diff(Z, axis=axis) / h
        A = bool(np.min(edge) >= -CLASSIFY_TOL)
        if not A:
            k = int(np.argmin(edge))
            witnesses[f"{label}_edge"] = (float(xi[k]), float(np.min(edge)))
        origin = float(np.asarray(fn(np.zeros(1), np.zeros(1)), dtype=float).ravel()[0])
        B = bool(np.min(dpart) >= -CLASSIFY_TOL
                 and abs(origin) <= max(CLASSIFY_TOL, 1e-9 * np.max(np.abs(Z) + 1)))
        if not B:
            i, j = np.unravel_index(np.argmin(dpart), dpart.shape)
            witnesses[f"{label}_partial"] = (
                float(xi[i]), float(xi[j]), float(np.min(dpart)), origin,
            )
        return A, B

    fA, fB = disjuncts(pair.f, "f", 1)
    gA, gB = disjuncts(pair.g, "g", 0)
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


def pair_nonneg_verify(pair, solution):
    """nonneg_verify of the trajectories (u, v) of a pair, at its default tol."""
    return nonneg_verify(pair, solution, solution[0].grid)
