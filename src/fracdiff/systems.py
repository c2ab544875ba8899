"""Reaction systems: C >= 2 components on one eigenbasis of the [space]
operator A_0 (Neumann or Robin conditions), each of its own order alpha_c,
coupled through a reaction R:

    d_t^{alpha_c} (u_c - a_c) + A_0 u_c = R_c(u),   c = 1, ..., C.

ReactionSystem validates the orders and the initial fields.  Its two
constructors, MultiOrderSystem (linear couplings and forcings, no box)
and SemilinearPair (two components of equal order, bivariate reactions f
and g, nothing to sample, a working box), complete the problem protocol of
linsolve: coefficients, rhs, whose shift is the M_1 of the paper with its
default and check, and the cooperativity hypotheses; cooperative_classify
decides which of the four cooperative cases of a pair (or none) applies.
linsolve.solve marches a system like any problem (semilinear_pair_solve);
picard_system_solve sweeps the same map over the whole window for its
increments.  Both sample the coefficients once and hand the samples on with
their trajectories.  nonneg_verify is the one non-negativity gate of every
problem type; it and increment_recursion_check read those samples.
"""

import math

import numpy as np

from .fracops import SampledSignal, rl_integral
from .linsolve import (
    ModalPropagator,
    Trajectory,
    _first_negative,
    _lattice,
    _order_hypothesis,
    _sweeps,
    sample_history,
    solve,
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

    def __init__(self, basis, alphas, initials):
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
        if any(a.shape != basis.grid.shape for a in initials):
            raise ValueError("initial fields must be sampled on the basis grid")
        self.basis = basis
        self.alphas = alphas
        self.N = n
        self.initials = initials
        self.m = None  # SemilinearPair sets its box


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

    def rhs(self, coeffs, shift):
        """The shift M_1 and the closure M_1 U + R(U) over the samples
        (P, F).  M_1 must exceed the diagonal couplings sup|p_ll| and be
        >= 0; by default it is 1 + max_l sup|p_ll|, or 0 for a decoupled
        system, so that a decoupled system solves to S_l a_l exactly."""
        P, F = coeffs
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

    def cooperativity(self, coeffs, low, high):
        """a_k >= 0, then the sampled F_k >= 0, then the sampled
        off-diagonal p_jk >= 0; the reason names the first that fails."""
        P, F = coeffs
        idx = range(self.N)
        named = [(f"a_{k + 1}", a) for k, a in enumerate(self.initials)]
        named += [(f"F_{k + 1}", f) for k, f in enumerate(F)]
        named += [(f"p_{j + 1}{k + 1}", P[j][k]) for j in idx for k in idx if j != k]
        return _first_negative(named)


class SemilinearPair(ReactionSystem):
    """Two components of equal order coupled through bivariate reactions
    f(u, v) and g(u, v) (elementwise callables), always in a working box:
    m, or 2 (1 + max(sup|a|, sup|b|)) by default."""

    def __init__(self, basis, alpha, f, g, a, b, m=None):
        super().__init__(basis, [alpha, alpha], [a, b])
        self.m = working_box(self.initials, m)
        self.f = f
        self.g = g

    def coefficients(self, tnodes):
        """Nothing to sample (an empty tuple): f and g are functions of u, v."""
        return ()

    def rhs(self, coeffs, shift):
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

    def cooperativity(self, coeffs, low, high):
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
    a = np.asarray(sys.initials, dtype=float)
    U = np.repeat(a[:, None, :], len(grid), axis=1)
    coeffs, M1, iterates = _sweeps(sys, grid, M1, U[:, None])
    increments, rhos, growing, last = [], [], 0, None
    for sweep, (modal, fields) in zip(range(1, max_sweeps + 1), iterates):
        new = fields[:, 0]
        peak = float(np.max(np.abs(new)))
        increments.append(np.max(np.abs(new - U), axis=-1).sum(axis=0))
        U, sup = new, float(np.max(increments[-1]))
        if last:
            rhos.append(sup / last)
        if sup < tol * max(1.0, peak):
            break
        growing = growing + 1 if last is not None and sup > last else 0
        if sys.m is None and growing >= 5:
            raise ArithmeticError(f"divergence: increments grew over 5 consecutive sweeps "
                                  f"(last {sup})")
        last = sup
    else:
        raise ArithmeticError(f"fixed-point iteration did not converge in {max_sweeps} "
                              f"sweeps (last increment {sup})")
    diag = {"sweeps": sweep, "rhos": rhos, "max_rho": max(rhos) if rhos else 0.0,
            "contraction_flag": bool(rhos and max(rhos) >= 1.0)}
    trajs = [Trajectory(grid, sys.basis, mc, coeffs, {"component": l, "M1": M1, **diag})
             for l, mc in enumerate(modal[:, 0])]
    return {"trajectories": trajs, "increments": increments, "M1": M1, "sweeps": sweep}


def _samples_on(trajectories, grid, who):
    """The samples that the trajectories of a solve carry; a ValueError for
    trajectories without samples or on a grid other than grid."""
    own, samples = trajectories[0].grid, trajectories[0].samples
    if samples is None:
        raise ValueError(f"{who} needs the trajectories of a solve, which carry its samples")
    if not np.array_equal(grid.nodes, own.nodes):
        raise ValueError(f"{who}: grid {grid!r} is not the trajectories' grid {own!r}")
    return samples


def nonneg_verify(sys, trajectories, grid, tol=1e-8):
    """Gate on a full basis, where the discrete map preserves order, then
    on the problem's cooperativity hypotheses over the samples its
    trajectories carry; then check that the minimum over them is >= -tol.
    If a hypothesis fails the verdict is NOT-APPLICABLE with its reason, and
    the minimum is still reported (but not asserted).  grid must be the
    trajectories' grid (see _samples_on)."""
    samples = _samples_on(trajectories, grid, "nonneg_verify")
    fields = [tr.fields() for tr in trajectories]
    low = min(float(np.min(f)) for f in fields)
    high = max(float(np.max(f)) for f in fields)
    gate = _order_hypothesis(sys.basis) or sys.cooperativity(samples, low, high)
    out = {"min_value": low, **gate}
    if "reason" in out:
        return {"verdict": "NOT-APPLICABLE", **out}
    return {"verdict": "PASS" if low >= -tol else "FAIL", **out, "tol": tol}


def increment_recursion_check(result, sys, grid):
    """Verify U_n <= C (J^{alpha_1} U_{n-1}) node-wise for the constructive
    constant C = (M_1 + max_l sum_j sup|p_lj|) max_l T^(a_l - a_1)
    Gamma(a_1)/Gamma(a_l); returns the worst ratio against that bound.
    grid must be the grid of the result's trajectories (see _samples_on)."""
    alpha1 = sys.alphas[0]
    T = grid.T
    P, _ = _samples_on(result["trajectories"], grid, "increment_recursion_check")
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
    xi, U = _lattice(float(box[0]), float(box[1]), CLASSIFY_POINTS, CLASSIFY_POINTS)
    V, h = U.T, xi[1] - xi[0]
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
    pairs = ((fA, gA), (fA, gB), (fB, gA), (fB, gB))
    case = next((k for k, (f, g) in enumerate(pairs, 1) if f and g), "none")
    return {
        "case": case,
        "f_disjuncts": (fA, fB),
        "g_disjuncts": (gA, gB),
        "witnesses": witnesses,
    }


def pair_nonneg_verify(pair, solution):
    """nonneg_verify of the trajectories (u, v) of a pair, at its default tol."""
    return nonneg_verify(pair, solution, solution[0].grid)
