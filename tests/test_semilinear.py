import math

import numpy as np
import pytest

from fracdiff.fracops import TimeGrid, l1_weights
from fracdiff.linsolve import LinearProblem, ModalPropagator, solve_linear
from fracdiff.mlf import ml_neg_vec
from fracdiff.semilinear import (
    BracketPair,
    SemilinearProblem,
    SemilinearTerm,
    algebraic_barrier_time,
    check_lower_solution,
    check_upper_solution,
    compare_solutions,
    decay_envelope_check,
    enzyme_kinetics,
    lower_barrier_constants,
    monotone_iterate,
    monotone_step,
    picard_solve,
    power_barrier_constants,
    power_barrier_rho,
    steady_state_solve,
)
from fracdiff.spectral import EllipticOperator, eigendecompose, project


def full_neumann_basis(n_grid=41, L=math.pi, c0=0.0, c=0.0):
    # full spectrum: projection is an exact orthogonal transform, so the
    # shifted sweep map is order-preserving to rounding
    return eigendecompose(EllipticOperator(L, c=c, sigma=(0.0, 0.0), c0=c0), n_grid, n_grid)


def enzyme_problem(n_grid=41, alpha=0.5, amp=0.1):
    b = full_neumann_basis(n_grid)
    a = 1.0 + amp * np.cos(b.grid)
    return SemilinearProblem(b, alpha, a, SemilinearTerm.enzyme())


def test_term_validation_and_lipschitz():
    with pytest.raises(ValueError):
        SemilinearTerm(lambda x, u: u, kind="spline")
    b = full_neumann_basis(21)
    t = SemilinearTerm.enzyme()
    M = t.lipschitz(b.grid, 2.0)
    assert 0.95 <= M <= 1.15  # sup |f'| = 1 at the origin, 10% inflation
    g = SemilinearTerm(lambda x, u, du: -u * du, kind="gradient")
    out = g(b.grid, np.sin(b.grid))
    assert np.max(np.abs(out + np.sin(b.grid) * np.cos(b.grid))) < 1e-2


def test_problem_rejects_misshapen_initial_field():
    """An initial field off the spatial grid is refused when the problem is
    made, with LinearProblem's message, not when a solve first uses it."""
    b = full_neumann_basis(9)
    msg = r"initial field has shape \(5,\), spatial grid \(9,\)"
    with pytest.raises(ValueError, match=msg):
        SemilinearProblem(b, 0.5, np.ones(5), SemilinearTerm.enzyme())
    with pytest.raises(ValueError, match=msg):
        LinearProblem(b, 0.5, np.ones(5))


def test_picard_zero_reaction_matches_linear():
    b = full_neumann_basis(33)
    a = 0.5 + 0.3 * np.cos(b.grid)
    prob = SemilinearProblem(b, 0.6, a, SemilinearTerm(lambda x, u: 0.0 * u))
    grid = TimeGrid.uniform(1.0, 64)
    traj = picard_solve(prob, grid)
    ref = solve_linear(LinearProblem(b, 0.6, a), grid)
    assert np.max(np.abs(traj.modal - ref.modal)) < 1e-10


@pytest.mark.parametrize("alpha", [0.4, 0.7])
def test_relaxation_closed_form(alpha):
    """Flat problem f(u) = -u + 1, a = 0: u(t) = 1 - E_{alpha,1}(-t^alpha).
    The unit spectral shift turns the forcing into a constant, so the
    discrete march is exact up to Mittag-Leffler evaluation error."""
    b = full_neumann_basis(21)
    prob = SemilinearProblem(b, alpha, np.zeros_like(b.grid),
                             SemilinearTerm(lambda x, u: 1.0 - u))
    grid = TimeGrid.uniform(2.0, 512)
    traj = picard_solve(prob, grid, shift=1.0)
    want = 1.0 - ml_neg_vec(alpha, grid.nodes**alpha)
    got = traj.fields()[:, 10]
    assert np.max(np.abs(got - want)) < 1e-10
    assert traj.diagnostics["sweeps"] <= 3


def test_burgers_cross_oracle():
    """Gradient-dependent f = -u u_x against an implicit L1 march."""
    alpha = 0.6
    b = full_neumann_basis(65)
    x = b.grid
    a = 0.03 * np.cos(x)
    term = SemilinearTerm(lambda x_, u, du: -u * du, kind="gradient")
    prob = SemilinearProblem(b, alpha, a, term)
    grid = TimeGrid.uniform(0.5, 2048)
    traj = picard_solve(prob, grid)

    # independent oracle: implicit L1 in time, lagged nonlinearity iterated
    P = b.weights[None, :] * b.modes.T
    A0 = b.modes @ (b.lambdas[:, None] * P)
    D = l1_weights(alpha, grid)
    n = len(grid)
    U = np.zeros((n, x.size))
    U[0] = a
    for i in range(1, n):
        r = D[i, i]
        rhs_hist = r * a - D[i, :i] @ (U[:i] - a[None, :])
        u = U[i - 1].copy()
        mat = np.linalg.inv(r * np.eye(x.size) + A0)
        for _ in range(100):
            fu = -u * np.gradient(u, x)
            u_new = mat @ (rhs_hist + fu)
            if np.max(np.abs(u_new - u)) < 1e-13:
                u = u_new
                break
            u = u_new
        U[i] = u
    assert np.max(np.abs(traj.fields() - U)) < 1e-4


def test_amplitude_escape():
    b = full_neumann_basis(21)
    prob = SemilinearProblem(b, 0.5, np.ones_like(b.grid),
                             SemilinearTerm(lambda x, u: u * u + 2.0), m=1.2)
    with pytest.raises(ArithmeticError, match="amplitude escape"):
        picard_solve(prob, TimeGrid.uniform(2.0, 128))


def test_non_finite_reaction_stops_at_first_sweep():
    b = full_neumann_basis(21)
    a = 0.5 + 0.1 * np.cos(b.grid)
    prob = SemilinearProblem(b, 0.5, a, SemilinearTerm(lambda x, u: np.sqrt(u - 0.55)))
    with np.errstate(invalid="ignore"), pytest.raises(
        ArithmeticError, match="non-finite value at sweep 1"
    ):
        picard_solve(prob, TimeGrid.uniform(1.0, 16))


def test_contraction_ratios_shrink_with_T():
    b = full_neumann_basis(21)
    a = 0.5 + 0.2 * np.cos(b.grid)
    rhos = []
    for T in (2.0, 0.5, 0.05):
        prob = SemilinearProblem(b, 0.5, a, SemilinearTerm.enzyme())
        traj = picard_solve(prob, TimeGrid.uniform(T, 64))
        rhos.append(traj.diagnostics["max_rho"])
        assert not traj.diagnostics["contraction_flag"]
    assert rhos[2] < rhos[1] < rhos[0]
    assert rhos[2] < 0.5
    assert traj.diagnostics["sweeps"] <= 40


def test_monotone_step_fixed_point_and_ordering():
    prob = enzyme_problem()
    grid = TimeGrid.uniform(1.0, 64)
    M = prob.term.lipschitz(prob.basis.grid, prob.m)
    u_fix = picard_solve(prob, grid, shift=M + 1.0)
    stepped = monotone_step(u_fix, prob, M, grid)
    assert np.max(np.abs(stepped.fields() - u_fix.fields())) < 1e-9

    with pytest.raises(ValueError, match="below the sampled Lipschitz"):
        monotone_step(u_fix, prob, 0.01, grid)

    w = u_fix.fields()
    v = w + 0.2 * (1.0 + np.cos(prob.basis.grid))[None, :]
    Lw = monotone_step(w, prob, M, grid).fields()
    Lv = monotone_step(v, prob, M, grid).fields()
    assert float(np.min(Lv - Lw)) > -1e-12


def test_monotone_iterate_enzyme_sandwich():
    """Bracket (0, a + rho t^alpha): ascending/descending sandwich whose
    limit matches the Picard solution."""
    prob = enzyme_problem()
    grid = TimeGrid.uniform(1.0, 64)
    alpha = prob.alpha
    rho = 0.1 / math.gamma(alpha + 1.0)  # max Lap a = 0.1

    def upper(x, t):
        return 1.0 + 0.1 * np.cos(x) + rho * t**alpha

    pair = BracketPair(lambda x, t: 0.0 * x, upper)
    out = monotone_iterate(pair, prob, grid)
    assert out["converged"]
    gaps = out["gap_history"]
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
    # whole-sequence sandwich
    for k in range(len(out["lower_seq"]) - 1):
        assert float(np.min(out["lower_seq"][k + 1] - out["lower_seq"][k])) > -1e-10
        assert float(np.min(out["upper_seq"][k] - out["upper_seq"][k + 1])) > -1e-10
    u_pic = picard_solve(prob, grid, shift=out["M"] + 1.0)
    assert np.max(np.abs(out["u_star"].fields() - u_pic.fields())) < 1e-6
    # bracket containment and the upper half of the two-sided bound
    uf = u_pic.fields()
    assert uf.min() > -1e-8
    bar = np.array([upper(prob.basis.grid, t) for t in grid.nodes])
    assert float(np.max(uf - bar)) < 1e-8


@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_graded_picard_linear_term_matches_solve_linear(shift):
    """With f(u) = -k u the graded Picard fixed point is the discrete
    solution that solve_linear marches to with reaction -k and the same
    shift: both read one row table."""
    k = 0.7
    b = full_neumann_basis(33)
    a = 1.0 + 0.2 * np.cos(b.grid)
    grid = TimeGrid.graded(1.0, 48, 2.5)
    prob = SemilinearProblem(b, 0.6, a, SemilinearTerm(lambda x, u: -k * u))
    traj = picard_solve(prob, grid, shift=shift)
    ref = solve_linear(LinearProblem(b, 0.6, a, reaction=-k), grid, shift=shift)
    assert traj.diagnostics["sweeps"] > 2
    assert np.max(np.abs(traj.modal - ref.modal)) <= 1e-9


def test_monotone_iterate_graded_grid():
    """On a graded grid the sandwich closes and its limit is the graded
    Picard solution with the same shift."""
    prob = enzyme_problem(n_grid=33)
    grid = TimeGrid.graded(1.0, 48, 2.0)
    rho = 0.1 / math.gamma(prob.alpha + 1.0)

    def upper(x, t):
        return 1.0 + 0.1 * np.cos(x) + rho * t**prob.alpha

    pair = BracketPair(lambda x, t: 0.0 * x, upper)
    out = monotone_iterate(pair, prob, grid, gap_tol=1e-9)
    assert out["converged"] and out["gap_history"][-1] < 1e-9
    u_pic = picard_solve(prob, grid, shift=out["M"] + 1.0)
    assert np.max(np.abs(out["u_star"].fields() - u_pic.fields())) <= 1e-6


def test_graded_picard_builds_row_table_once(monkeypatch):
    """A graded Picard solve evaluates the Mittag-Leffler tables once per
    grid (N rows and the nodes), however many sweeps it takes."""
    calls = []
    real = ModalPropagator.e_values
    monkeypatch.setattr(
        ModalPropagator, "e_values", lambda self, t: calls.append(1) or real(self, t)
    )
    prob = enzyme_problem(n_grid=17)
    grid = TimeGrid.graded(1.0, 32, 3.0)
    counts, sweeps = [], []
    for tol in (1e-4, 1e-12):
        calls.clear()
        traj = picard_solve(prob, grid, tol=tol, shift=2.0)
        counts.append(len(calls))
        sweeps.append(traj.diagnostics["sweeps"])
    assert sweeps[0] < sweeps[1]
    assert counts[0] == counts[1] <= grid.N + 2


def test_monotone_iterate_trivial_bracket():
    prob = enzyme_problem()
    grid = TimeGrid.uniform(0.5, 32)
    u = picard_solve(prob, grid)
    pair = BracketPair(u.fields(), u.fields())
    out = monotone_iterate(pair, prob, grid)
    assert out["converged"] and out["sweeps"] == 0
    assert out["gap_history"][0] < 1e-12


def test_bracket_validation():
    prob = enzyme_problem()
    grid = TimeGrid.uniform(0.5, 8)
    pair = BracketPair(lambda x, t: 1.0 + 0.0 * x, lambda x, t: 0.0 * x)
    with pytest.raises(ValueError, match="not ordered"):
        monotone_iterate(pair, prob, grid)


def test_check_upper_lower_solutions():
    prob = enzyme_problem()
    grid = TimeGrid.uniform(1.0, 128)
    alpha = prob.alpha
    rho = 0.1 / math.gamma(alpha + 1.0)

    up = check_upper_solution(
        lambda x, t: 1.0 + 0.1 * np.cos(x) + rho * t**alpha, prob, grid
    )
    assert up["passes"]
    lo = check_lower_solution(lambda x, t: 0.0 * x, prob, grid)
    assert lo["passes"]
    # the exact solution passes both (residual is pure L1 consistency error)
    u = picard_solve(prob, grid)
    assert check_upper_solution(u.fields(), prob, grid)["passes"]
    assert check_lower_solution(u.fields(), prob, grid)["passes"]
    # a clear violator fails
    bad = check_upper_solution(lambda x, t: -1.0 - t + 0.0 * x, prob, grid)
    assert not bad["passes"]


def test_compare_solutions():
    b = full_neumann_basis(41)
    a = 0.4 + 0.2 * np.cos(b.grid)
    grid = TimeGrid.uniform(1.0, 64)
    f = SemilinearTerm.enzyme()
    p_base = SemilinearProblem(b, 0.5, a, f)

    same = compare_solutions(p_base, SemilinearProblem(b, 0.5, a.copy(), f), grid)
    assert same["verdict"] == "PASS" and abs(same["min_gap"]) < 1e-12

    p_up = SemilinearProblem(
        b, 0.5, a, SemilinearTerm(lambda x, u: enzyme_kinetics(u) + 0.1)
    )
    out = compare_solutions(p_up, p_base, grid)
    assert out["verdict"] == "PASS"
    gap_fields = out["trajectories"][0].fields() - out["trajectories"][1].fields()
    assert float(np.min(gap_fields[1:])) > 0.0  # strictly positive for t > 0

    p_shift = SemilinearProblem(b, 0.5, a + 0.05 * (1.0 + np.cos(b.grid)), f)
    assert compare_solutions(p_shift, p_base, grid)["verdict"] == "PASS"

    na = compare_solutions(p_base, p_up, grid)  # f_1 >= f_2 violated
    assert na["verdict"] == "NOT-APPLICABLE"

    g = SemilinearProblem(
        b, 0.5, a, SemilinearTerm(lambda x, u, du: -u * du, kind="gradient")
    )
    with pytest.raises(TypeError):
        compare_solutions(g, p_base, grid)


def steady_basis(n_grid=41):
    # A = -Lap + 1 via c = -1 and the default shift removed in the solver
    return eigendecompose(
        EllipticOperator(math.pi, c=-1.0, c0=2.0), n_grid, n_grid
    )


def test_steady_state_zero_and_linear():
    b = steady_basis()
    x = b.grid
    u0 = steady_state_solve(b, lambda x_, u: 0.0 * u, np.ones_like(x))
    assert np.max(np.abs(u0)) < 1e-9

    g = 1.0 + 0.3 * np.cos(2 * x)
    u_lin = steady_state_solve(b, lambda x_, u: -u + g, 0.0 * x)
    P = b.weights[None, :] * b.modes.T
    A = b.modes @ (b.lambdas[:, None] * P) - 2.0 * np.eye(x.size)
    want = np.linalg.solve(A + np.eye(x.size), g)
    assert np.max(np.abs(u_lin - want)) < 1e-9


def test_steady_state_cubic_with_dynamic_cross_check():
    b = steady_basis()
    x = b.grid

    def f(x_, u):
        return -(u**3) - u + 1.0

    u_inf = steady_state_solve(b, f, 0.5 * np.ones_like(x))
    P = b.weights[None, :] * b.modes.T
    A = b.modes @ (b.lambdas[:, None] * P) - 2.0 * np.eye(x.size)
    assert np.max(np.abs(A @ u_inf - f(x, u_inf))) < 1e-10

    # long-time limit of the dynamic problem relaxes to u_inf
    term = SemilinearTerm(f)
    a = u_inf + 0.3
    prob = SemilinearProblem(b, 0.5, a, term, reaction=2.0, m=1.5)
    shift = 1.0 + term.lipschitz(x, 1.5) + 2.0
    grid = TimeGrid.uniform(50.0, 512)
    traj = picard_solve(prob, grid, shift=shift)
    assert np.max(np.abs(traj.fields()[-1] - u_inf)) < 0.07


def test_decay_envelope_single_mode():
    alpha = 0.5
    b = full_neumann_basis(41, c0=1.0)  # lambda_1 = 1 on the flat mode
    a = 0.8 * np.abs(b.modes[:, 0])
    prob = LinearProblem(b, alpha, a)
    grid = TimeGrid.uniform(150.0, 1024)
    traj = solve_linear(prob, grid)
    out = decay_envelope_check(traj, np.zeros_like(a), b, alpha)
    assert out["tail_ok"]
    assert out["envelope_violations"] == 0
    assert abs(out["fitted_slope"] + alpha) < 0.05


def test_barrier_constants_constructive():
    prob = enzyme_problem()
    grid = TimeGrid.uniform(1.0, 64)
    rho = power_barrier_rho(prob, grid)
    assert rho >= 0.0
    up = check_upper_solution(
        lambda x, t: prob.a[np.searchsorted(prob.basis.grid, x)] if False
        else np.interp(x, prob.basis.grid, prob.a) + rho * t**prob.alpha,
        prob, grid,
    )
    assert up["passes"]

    # increasing reaction: algebraic and power-law upper barriers
    b = prob.basis
    inc = SemilinearProblem(b, 0.5, prob.a.copy(), SemilinearTerm(lambda x, u: u))
    eps = 0.2 * inc.alpha
    T1 = algebraic_barrier_time(inc, eps)
    assert T1 > 0.0
    g1 = TimeGrid.uniform(T1, 64)
    assert check_upper_solution(
        lambda x, t: np.interp(x, b.grid, inc.a) + t ** (inc.alpha - eps), inc, g1
    )["passes"]

    cons = lower_barrier_constants(inc)
    assert cons["delta1"] == pytest.approx(0.9) and cons["T2"] > 0.0

    M3, T3 = power_barrier_constants(inc)
    assert T3 > 0.0
    g3 = TimeGrid.uniform(T3, 64)
    assert check_upper_solution(
        lambda x, t: np.interp(x, b.grid, inc.a) + M3 * t**inc.alpha, inc, g3
    )["passes"]


def test_power_law_bounds_on_solution():
    """The barrier inequalities transfer to the computed solution:
    u - a <= t^(alpha-eps) on (0, T_1), u - a >= -rho_2 t^alpha on (0, T_2),
    and u - a <= M_3 t^alpha on (0, T_3)."""
    b = full_neumann_basis(41)
    a = 1.0 + 0.1 * np.cos(b.grid)
    prob = SemilinearProblem(b, 0.5, a, SemilinearTerm(lambda x, u: u))
    eps = 0.1
    T1 = algebraic_barrier_time(prob, eps)
    cons = lower_barrier_constants(prob)
    M3, T3 = power_barrier_constants(prob)
    T = min(T1, cons["T2"], T3)
    grid = TimeGrid.uniform(T, 256)
    u = picard_solve(prob, grid).fields()
    d = u - a[None, :]
    t = grid.nodes
    tol = 1e-6
    assert float(np.max(d - t[:, None] ** (prob.alpha - eps))) < tol
    assert float(np.min(d + cons["rho"] * t[:, None] ** prob.alpha)) > -tol
    assert float(np.max(d - M3 * t[:, None] ** prob.alpha)) < tol


def test_gradient_rejected_by_pointwise_ops():
    b = full_neumann_basis(21)
    g = SemilinearProblem(
        b, 0.5, np.zeros_like(b.grid),
        SemilinearTerm(lambda x, u, du: -u * du, kind="gradient"),
    )
    grid = TimeGrid.uniform(0.5, 8)
    with pytest.raises(TypeError):
        monotone_step(np.zeros((9, 21)), g, 2.0, grid)
    with pytest.raises(TypeError):
        monotone_iterate(BracketPair(np.zeros((9, 21)), np.zeros((9, 21))), g, grid)
    with pytest.raises(TypeError):
        steady_state_solve(b, SemilinearTerm(lambda x, u, du: du, kind="gradient"),
                           np.zeros_like(b.grid))
