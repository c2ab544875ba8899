"""Semilinear solvers and their verification machinery.

Two routes to the mild solution of

    d_t^alpha (u - a) + A_0 u = Q u + f(u) + F:

* picard_solve: the fixed point of the contraction map
  L u = S a + K * ((Q + s) u + f(u) + F), one forward march (solve_linear);
* monotone_iterate: the increasing/decreasing sandwich between an ordered
  pair of lower/upper solutions, whole-window sweeps of the map shifted by
  M + 1, M the sampled Lipschitz bound of f on the box m.

A SemilinearProblem is a LinearProblem plus the term f and a working box,
read by both solvers through the problem protocol of linsolve; the
spectral shift is picard_solve's shift, or M + 1 in the monotone map.
With the full discrete eigenbasis (n_modes = n_grid) the projection is an
exact orthogonal transform and the propagator matrices are entrywise
nonnegative (E_{alpha,beta}(-x) is completely monotone and the stiffness
matrix is an M-matrix), so the shifted map preserves node-wise ordering
exactly: the monotone sandwich and the comparison principle hold on the
grid to rounding, not just up to truncation.  On a truncated basis the
order verdicts (compare_solutions, systems.nonneg_verify) are
NOT-APPLICABLE.

Also here: residual checks for upper/lower solutions, the comparison
principle, steady states by damped Newton, decay envelopes, and the
barrier constants of the power-law examples computed constructively by
bisection from their defining inequalities.
"""

import math

import numpy as np

from .fracops import TimeGrid, l1_weights
from .linsolve import (
    LinearProblem,
    NonFiniteCoefficient,
    Trajectory,
    _lattice,
    _order_hypothesis,
    _sweeps,
    sample_history,
    solve_linear,
    working_box,
)
from .mlf import ml_neg_vec
from .spectral import project, synthesize

__all__ = [
    "enzyme_kinetics",
    "SemilinearTerm",
    "SemilinearProblem",
    "BracketPair",
    "picard_solve",
    "monotone_step",
    "monotone_iterate",
    "check_upper_solution",
    "check_lower_solution",
    "compare_solutions",
    "steady_state_solve",
    "decay_envelope_check",
    "power_barrier_rho",
    "algebraic_barrier_time",
    "lower_barrier_constants",
    "power_barrier_constants",
    "steady_bracket_constant",
]

# monotone_iterate: rounding allowed against the order, relative to the scale
MONOTONE_RTOL = 1e-12
# compare_solutions: amplitudes in [-m, m] at which f_1 >= f_2 is sampled
COMPARISON_LEVELS = 101
# steady_state_solve: damped Newton steps before it gives up, sup residual
NEWTON_STEPS = 100
NEWTON_TOL = 1e-10
# algebraic_barrier_time, power_barrier_constants: largest time searched
BARRIER_T_MAX = 1.0


def enzyme_kinetics(eta):
    """The built-in enzyme reaction f(eta) = -eta / (1 + |eta|)."""
    eta = np.asarray(eta, dtype=float)
    return -eta / (1.0 + np.abs(eta))


class SemilinearTerm:
    """Reaction term: pointwise f(x, u) or gradient-dependent f(x, u, u_x).

    The evaluator must act elementwise: the march calls it once per node on
    the field there, the monotone map once per sweep on whole field
    histories (leading time or component axes before the spatial one), with
    x the 1-D spatial grid.

    The Lipschitz/C1 bound on the working box [-m, m] is estimated from
    sampled difference quotients on a 201-point amplitude lattice crossed
    with the spatial grid, inflated by 10%; a ValueError names the first
    amplitude of the lattice where f is not finite.
    """

    def __init__(self, evaluator, kind="pointwise"):
        if kind not in ("pointwise", "gradient"):
            raise ValueError(f"unknown reaction kind {kind!r}")
        self.evaluator = evaluator
        self.kind = kind

    @classmethod
    def enzyme(cls):
        return cls(lambda x, u: enzyme_kinetics(u))

    def __call__(self, x, u, du=None):
        args = (x, u)
        if self.kind == "gradient":
            args += (np.gradient(u, x, axis=-1) if du is None else du,)
        f = np.asarray(self.evaluator(*args), dtype=float)
        return f if f.shape == np.shape(u) else f * np.ones_like(u)  # a constant in u

    def lipschitz(self, x, m):
        """max sampled |df/du| on grid x times [-m, m], inflated by 10%."""
        levels, U = _lattice(-m, m, 201, x.size)
        vals = self(x, U, du=np.zeros_like(U))
        bad = ~np.isfinite(vals).all(axis=1)
        if bad.any():
            raise ValueError(f"reaction term is not finite at u = {levels[np.argmax(bad)]} "
                             f"(box m = {m})")
        slopes = np.abs(np.diff(vals, axis=0)) / (levels[1] - levels[0])
        return 1.1 * float(np.max(slopes))


class SemilinearProblem(LinearProblem):
    """The linear data of LinearProblem (initial a, drift b, reaction q,
    forcing F) plus a reaction term f.  The working box |u| <= m defaults
    to 2 (1 + ||a||_inf); a solve stops at the first node that leaves it."""

    def __init__(self, basis, alpha, a, term, drift=None, reaction=None,
                 forcing=None, m=None):
        super().__init__(basis, alpha, a, drift=drift, reaction=reaction,
                         forcing=forcing)
        self.term = term if isinstance(term, SemilinearTerm) else SemilinearTerm(term)
        self.m = working_box(self.a, m)

    def require_pointwise(self, op):
        if self.term.kind == "gradient":
            raise TypeError(
                f"{op} requires a pointwise reaction f(x, u); "
                "gradient-dependent terms are outside its scope"
            )


def picard_solve(prob, grid, shift=0.0):
    """Fixed point of the discrete map L: solve_linear, one forward sweep
    in the working box m.  Diagnostics: the shift and sweeps = 1."""
    traj = solve_linear(prob, grid, shift)
    traj.diagnostics["sweeps"] = 1
    return traj


def _as_field_history(state, basis, grid):
    if isinstance(state, Trajectory):
        return state.fields()
    if callable(state):
        return sample_history(state, basis.grid, grid.nodes, "field history")
    arr = np.asarray(state, dtype=float)
    if arr.shape != (len(grid), basis.grid.size):
        raise ValueError(
            f"field history has shape {arr.shape}, expected "
            f"{(len(grid), basis.grid.size)}"
        )
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise NonFiniteCoefficient("field history", grid.nodes[np.argmax(bad)])
    return arr


def monotone_step(state, prob, grid):
    """One monotone-operator application: the linear solve

        d_t^alpha (v - a) + A_0 v + (M + 1) v = (M + 1) u + f(u) + Q u + F

    realized as a shifted-propagator convolution of the known history u,
    with M the sampled Lipschitz bound, so order-preserving on the grid:
    the first sweep of monotone_iterate's map."""
    prob.require_pointwise("monotone_step")
    M = prob.term.lipschitz(prob.basis.grid, prob.m)
    U = _as_field_history(state, prob.basis, grid)
    modal, _ = next(_sweeps(prob, grid, M + 1.0, U[None, None])[2])
    return Trajectory(grid, prob.basis, modal[0, 0], None, {"shift": M + 1.0})


class BracketPair:
    """Ordered lower/upper candidate trajectories."""

    def __init__(self, lower, upper):
        self.lower = lower
        self.upper = upper

    def histories(self, basis, grid):
        lo = _as_field_history(self.lower, basis, grid)
        hi = _as_field_history(self.upper, basis, grid)
        if (lo > hi + 1e-12).any():
            raise ValueError("bracket is not ordered: lower > upper somewhere")
        return lo, hi


def monotone_iterate(pair, prob, grid, k_max=200, gap_tol=1e-6):
    """Monotone sandwich between an ordered bracket.

    Each sweep applies the monotone map of monotone_step to both ends at
    once (one shifted propagator, the two histories stacked) in the box m
    on which M is sampled; the lower sequence must ascend and the upper
    descend (within MONOTONE_RTOL times the bracket's scale), else an
    ArithmeticError reports the worst node (M too small or a bad bracket).
    Declares convergence when sup|upper - lower| < gap_tol.
    """
    prob.require_pointwise("monotone_iterate")
    basis = prob.basis
    M = prob.term.lipschitz(basis.grid, prob.m)
    lo, hi = pair.histories(basis, grid)
    _, _, iterates = _sweeps(prob, grid, M + 1.0, np.stack([lo, hi])[None])
    scale = max(1.0, float(np.max(np.abs(hi))), float(np.max(np.abs(lo))))
    lower_seq, upper_seq = [lo], [hi]
    gap_history = [float(np.max(np.abs(hi - lo)))]
    converged = gap_history[0] < gap_tol
    sweeps = 0
    while not converged and sweeps < k_max:
        modal, fields = next(iterates)
        new_lo, new_hi = fields[0]
        for name, bad in (
            ("lower sequence decreased", lo - new_lo),
            ("upper sequence increased", new_hi - hi),
            ("sequences crossed", new_lo - new_hi),
        ):
            worst = float(np.max(bad))
            if worst > MONOTONE_RTOL * scale:
                i, j = np.unravel_index(np.argmax(bad), bad.shape)
                raise ArithmeticError(
                    f"monotonicity violation ({name}) of {worst} at node "
                    f"t={grid.nodes[i]}, x={basis.grid[j]}: M too small or "
                    "bracket not residual-verified"
                )
        lo, hi = new_lo, new_hi
        lower_seq.append(lo)
        upper_seq.append(hi)
        gap_history.append(float(np.max(np.abs(hi - lo))))
        converged = gap_history[-1] < gap_tol
        sweeps += 1
    u_star = None
    if converged:
        mid = (0.5 * (modal[0, 0] + modal[0, 1]) if sweeps
               else project(basis, (0.5 * (lo + hi)).T).T)
        u_star = Trajectory(
            grid, basis, mid, None, {"sweeps": sweeps, "gap": gap_history[-1], "M": M}
        )
    return {
        "lower_seq": lower_seq,
        "upper_seq": upper_seq,
        "u_star": u_star,
        "gap_history": gap_history,
        "converged": converged,
        "sweeps": sweeps,
        "M": M,
    }


def _a0_apply(basis, field):
    """A_0 applied to a field, or to each column of an (n_grid, k) array."""
    return synthesize(basis, (basis.lambdas * project(basis, field).T).T)


def _residual_history(candidate, prob, grid, initial=None):
    basis = prob.basis
    U = _as_field_history(candidate, basis, grid)
    a_bar = U[0] if initial is None else np.asarray(initial, dtype=float)
    D = l1_weights(prob.alpha, grid)
    dcap = D @ (U - a_bar[None, :])
    _, rhs = prob.rhs(prob.coefficients(grid.nodes), 0.0)
    r = dcap + _a0_apply(basis, U.T).T - rhs(U, slice(None))
    return U, a_bar, r


def _two_grid_tolerance(candidate, prob, grid, initial, r_fine):
    """10x the observed grid-consistency error of the residual (coarse vs
    fine grid at shared nodes); the analytic inequalities are exact, the
    discrete ones only grid-exact."""
    if grid.N % 2 or grid.N < 4:
        return 1e-8
    coarse = TimeGrid(grid.nodes[::2], kind=grid.kind)
    sub = _as_field_history(candidate, prob.basis, grid)[::2]
    _, _, r_c = _residual_history(sub, prob, coarse, initial)
    est = float(np.max(np.abs(r_fine[::2] - r_c)))
    return 10.0 * est + 1e-12


def _check_solution(candidate, prob, grid, sign, extreme):
    """Residual r of a candidate, reported as extreme = sign min(sign r), and
    its verdict: PASS iff sign r >= -tol and sign (a_bar - a) >= -tol, with
    tol ten times a two-grid consistency estimate of the residual."""
    U, a_bar, r = _residual_history(candidate, prob, grid)
    tol = _two_grid_tolerance(candidate, prob, grid, a_bar, r)
    init_margin = float(np.min(sign * (a_bar - prob.a)))
    worst = float(np.min(sign * r))
    return {"residual": r, extreme: sign * worst, "initial_margin": init_margin,
            "tol": tol, "passes": bool(worst >= -tol and init_margin >= -tol)}


def check_upper_solution(candidate, prob, grid):
    """Residual r = caputo_l1(u_bar - a_bar) + A_0 u_bar - Q u_bar - f(u_bar) - F.

    PASS iff min r >= -tol and a_bar >= a - tol (tol: the two-grid estimate)."""
    return _check_solution(candidate, prob, grid, 1.0, "min_residual")


def check_lower_solution(candidate, prob, grid):
    """Reversed-sign counterpart: PASS iff max r <= tol and a_low <= a + tol."""
    return _check_solution(candidate, prob, grid, -1.0, "max_residual")


def compare_solutions(prob1, prob2, grid, tol=1e-8):
    """Comparison principle: f_1 >= f_2 on the sampled box and a_1 >= a_2
    imply u_1 >= u_2.  A full basis, so that the discrete map preserves
    order, and the hypotheses are checked first (verdict NOT-APPLICABLE
    when one fails); both problems are then solved with a common spectral
    shift that makes the discrete map order-preserving, each in its box
    (picard_solve raises on amplitude escape), so both stay bounded."""
    for p in (prob1, prob2):
        p.require_pointwise("compare_solutions")
    if prob1.basis is not prob2.basis:
        raise ValueError("compare_solutions needs a shared eigenbasis")
    x = prob1.basis.grid
    m = max(prob1.m, prob2.m)
    order = _order_hypothesis(prob1.basis)
    if order:
        return {"verdict": "NOT-APPLICABLE", **order}
    if float(np.min(prob1.a - prob2.a)) < -1e-12:
        return {"verdict": "NOT-APPLICABLE", "reason": "a_1 >= a_2 fails"}
    levels, U = _lattice(-m, m, COMPARISON_LEVELS, x.size)
    bad = np.min(prob1.term(x, U) - prob2.term(x, U), axis=1) < -1e-12
    if bad.any():
        return {
            "verdict": "NOT-APPLICABLE",
            "reason": f"f_1 >= f_2 fails at u = {levels[np.argmax(bad)]}",
        }
    shift = 1.0 + max(
        prob1.term.lipschitz(x, m), prob2.term.lipschitz(x, m)
    )
    u1 = picard_solve(prob1, grid, shift=shift)
    u2 = picard_solve(prob2, grid, shift=shift)
    min_gap = float(np.min(u1.fields() - u2.fields()))
    return {
        "verdict": "PASS" if min_gap >= -tol else "FAIL",
        "min_gap": min_gap,
        "tol": tol,
        "trajectories": (u1, u2),
    }


def steady_state_solve(basis, term, guess):
    """Damped Newton for the steady state A u = f(u), where A is the
    basis operator with its spectral shift c0 removed again, to a sup
    residual below NEWTON_TOL."""
    f = term if isinstance(term, SemilinearTerm) else SemilinearTerm(term)
    if f.kind == "gradient":
        raise TypeError("steady_state_solve requires a pointwise reaction")
    x = basis.grid
    _, _, c0 = basis.operator.coefficients(x)
    P = basis.weights[None, :] * basis.modes.T
    A = basis.modes @ (basis.lambdas[:, None] * P) - c0 * np.eye(x.size)

    def residual(u):
        return A @ u - f(x, u)

    u = np.asarray(guess, dtype=float).copy()
    r = residual(u)
    for _ in range(NEWTON_STEPS):
        nr = float(np.max(np.abs(r)))
        if nr < NEWTON_TOL:
            return u
        eps = 1e-6 * (1.0 + np.abs(u))
        fprime = (f(x, u + eps) - f(x, u - eps)) / (2.0 * eps)
        J = A - np.diag(fprime)
        step = np.linalg.solve(J, r)
        lam = 1.0
        for _ in range(60):
            trial = u - lam * step
            rt = residual(trial)
            if float(np.max(np.abs(rt))) < nr:
                u, r = trial, rt
                break
            lam *= 0.5
        else:
            raise ArithmeticError(
                f"Newton stalled at residual {nr} (no decreasing step)"
            )
    raise ArithmeticError(
        f"Newton did not reach residual {NEWTON_TOL} in {NEWTON_STEPS} iterations"
    )


def decay_envelope_check(traj, u_inf, basis, alpha, tol=1e-8):
    """Check |u(x,t) - u_inf(x)| <= M_1 E_{alpha,1}(-lambda_1 t^alpha)
    |phi_1(x)| + tol node-wise, M_1 the steady_bracket_constant of u(0),
    and fit the log-log decay slope of the sup-error over the final decade
    of t (expect about -alpha once lambda_1 t^alpha >= 10)."""
    u_inf = np.asarray(u_inf, dtype=float)
    lam1 = float(basis.lambdas[0])
    phi1 = np.abs(basis.modes[:, 0])
    err = np.abs(traj.fields() - u_inf[None, :])
    M1 = steady_bracket_constant(basis, traj.field_at(0), u_inf)
    t = traj.grid.nodes
    env = M1 * np.outer(ml_neg_vec(alpha, lam1 * t**alpha), phi1) + tol
    violations = int(np.sum(err > env))
    sup_err = err.max(axis=1)
    mask = (t >= t[-1] / 10.0) & (sup_err > 0.0)
    slope = float("nan")
    if mask.sum() >= 2:
        slope = float(np.polyfit(np.log(t[mask]), np.log(sup_err[mask]), 1)[0])
    return {
        "fitted_slope": slope,
        "envelope_violations": violations,
        "max_excess": float(np.max(err - env)),
        "M1": float(M1),
        "tail_ok": bool(lam1 * t[-1] ** alpha >= 10.0),
    }


def steady_bracket_constant(basis, a, u_inf):
    """Smallest M_1 with u_inf - M_1 phi_1 <= a <= u_inf + M_1 phi_1
    (phi_1 is one-signed; raises if it vanishes on the grid)."""
    phi1 = np.abs(basis.modes[:, 0])
    if float(np.min(phi1)) <= 0.0:
        raise ValueError("first mode vanishes on the grid; no bracket constant")
    diff = np.abs(np.asarray(a, float) - np.asarray(u_inf, float))
    return float(np.max(diff / phi1))


def _laplacian_of_a(prob):
    """-(A_0 - c0) a, the second-order part of the operator applied to a."""
    basis = prob.basis
    _, _, c0 = basis.operator.coefficients(basis.grid)
    return -(_a0_apply(basis, prob.a) - c0 * prob.a)


def _bisect_smallest(feasible, lo, hi, iters=60):
    """Smallest value in [lo, hi] with feasible(v), doubling hi as needed."""
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
        if hi > 1e12:
            raise ArithmeticError("no feasible barrier constant below 1e12")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_largest_time(ok, failure):
    """Largest T <= BARRIER_T_MAX with ok(T), by geometric bisection down to
    1e-14; raises ArithmeticError(failure) when even 1e-14 is infeasible."""
    if ok(BARRIER_T_MAX):
        return BARRIER_T_MAX
    lo, hi = 1e-14, BARRIER_T_MAX
    if not ok(lo):
        raise ArithmeticError(failure)
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def power_barrier_rho(prob, grid):
    """Smallest rho (by bisection) making a + rho t^alpha an upper barrier:

        Gamma(alpha+1) rho >= f(a + rho t^alpha) + Lap a  on the grid.
    """
    ga = math.gamma(prob.alpha + 1.0)
    lap = _laplacian_of_a(prob)
    x = prob.basis.grid
    t_alpha = grid.nodes**prob.alpha

    def feasible(rho):
        bar = prob.a[None, :] + rho * t_alpha[:, None]
        return not float(np.max(prob.term(x, bar) + lap)) > ga * rho

    return _bisect_smallest(feasible, 0.0, 1.0) * (1.0 + 1e-9)


def algebraic_barrier_time(prob, eps):
    """Largest T_1 <= BARRIER_T_MAX (by bisection) making a + t^(alpha-eps)
    an upper barrier for an increasing reaction:

        Gamma(a-e+1)/Gamma(1-e) T_1^(-e) >= f(T_1^(a-e) + max a) + max Lap a.
    """
    alpha = prob.alpha
    if not (0.0 < eps < alpha):
        raise ValueError(f"need 0 < eps < alpha, got eps={eps}")
    coef = math.gamma(alpha - eps + 1.0) / math.gamma(1.0 - eps)
    a_max = float(np.max(prob.a))
    lap_max = float(np.max(_laplacian_of_a(prob)))
    x = prob.basis.grid

    def ok(T):
        rhs = float(np.max(prob.term(x, np.full_like(x, T ** (alpha - eps) + a_max))))
        return coef * T ** (-eps) >= rhs + lap_max

    return _bisect_largest_time(ok, "no feasible barrier time above 1e-14")


def lower_barrier_constants(prob):
    """Constants of the power-law lower barrier a - rho t^alpha:
    M_2 = max(-Lap a), delta_1 = min a > 0, rho = (M_2 - f(delta_1/2)) /
    Gamma(alpha+1), T_2 = (delta_1 / (2 rho))^(1/alpha)."""
    lap = _laplacian_of_a(prob)
    M2 = float(np.max(-lap))
    delta1 = float(np.min(prob.a))
    if delta1 <= 0.0:
        raise ValueError(f"lower barrier needs min a > 0, got {delta1}")
    x = prob.basis.grid
    f_half = float(np.min(prob.term(x, np.full_like(x, delta1 / 2.0))))
    rho = max((M2 - f_half) / math.gamma(prob.alpha + 1.0), 1e-12)
    T2 = (delta1 / (2.0 * rho)) ** (1.0 / prob.alpha)
    return {"M2": M2, "delta1": delta1, "rho": rho, "T2": T2}


def power_barrier_constants(prob):
    """(M_3, T_3) with ||Lap a|| <= M_3 Gamma(a+1)/2 and
    f(M_3 T_3^alpha + ||a||) <= M_3 Gamma(a+1)/2, T_3 <= BARRIER_T_MAX
    maximal by bisection."""
    ga = math.gamma(prob.alpha + 1.0)
    lap_norm = float(np.max(np.abs(_laplacian_of_a(prob))))
    a_norm = float(np.max(np.abs(prob.a)))
    x = prob.basis.grid

    def f_at(level):
        return float(np.max(prob.term(x, np.full_like(x, level))))

    M3 = max(2.0 * lap_norm / ga, 2.02 * max(f_at(a_norm), 0.0) / ga, 1e-9)

    def ok(T):
        return f_at(M3 * T**prob.alpha + a_norm) <= 0.5 * M3 * ga

    return M3, _bisect_largest_time(ok, "no feasible T_3 above 1e-14; increase M_3")
