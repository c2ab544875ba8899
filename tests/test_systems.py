import math

import numpy as np
import pytest

from fracdiff.fracops import TimeGrid, l1_weights
from fracdiff.linsolve import LinearProblem, solve, solve_linear
from fracdiff.mlf import ml_neg_vec
from fracdiff.semilinear import SemilinearProblem, SemilinearTerm
from fracdiff.spectral import EllipticOperator, eigendecompose
from fracdiff.systems import (
    MultiOrderSystem,
    SemilinearPair,
    cooperative_classify,
    increment_recursion_check,
    kernel_envelope_check,
    nonneg_verify,
    pair_nonneg_verify,
    picard_system_solve,
    semilinear_pair_solve,
)


def full_neumann_basis(n_grid=33, L=math.pi):
    return eigendecompose(EllipticOperator(L), n_grid, n_grid)


def test_system_validation():
    b = full_neumann_basis()
    a = [np.ones_like(b.grid)] * 2
    with pytest.raises(ValueError):
        MultiOrderSystem(b, [0.5], a[:1])
    with pytest.raises(ValueError, match="must not decrease"):
        MultiOrderSystem(b, [0.5, 0.4], a)
    with pytest.raises(ValueError):
        MultiOrderSystem(b, [0.5, 1.2], a)
    with pytest.raises(ValueError):
        MultiOrderSystem(b, [0.3, 0.5], a[:1])
    with pytest.raises(ValueError):
        MultiOrderSystem(b, [0.3, 0.5], a, couplings=[[None]])


def test_non_finite_system_coefficient_refused():
    """A coupling or forcing with a non-finite sample is refused before the
    first sweep, named as in the cooperativity gate, at its first bad node
    time: the last node too, whose right-hand side no sweep reads."""
    b = full_neumann_basis(9)
    a = [np.ones_like(b.grid)] * 2
    grid = TimeGrid.uniform(1.0, 4)
    cases = [
        (dict(forcings=[None, lambda x, t: 1.0 / (1.0 - t)]), r"F_2 is not finite at t=1\.0$"),
        (dict(couplings=[[None, np.nan], [None, None]]), r"p_12 is not finite at t=0\.0$"),
    ]
    with np.errstate(all="ignore"):
        for kw, message in cases:
            with pytest.raises(ValueError, match=message):
                picard_system_solve(MultiOrderSystem(b, [0.3, 0.5], a, **kw), grid)


@pytest.mark.parametrize("solver", ["system", "pair"])
@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_max_sweeps_below_one_refused(solver, max_sweeps):
    """The whole-window Picard iteration refuses max_sweeps < 1 with a
    ValueError naming the value, before the first sweep, for a system and
    for a pair."""
    b = full_neumann_basis(9)
    a = np.ones_like(b.grid)
    grid = TimeGrid.uniform(1.0, 4)
    sys = {
        "system": MultiOrderSystem(b, [0.3, 0.5], [a, a]),
        "pair": SemilinearPair(b, 0.5, lambda u, v: -u, lambda u, v: -v, a, a),
    }[solver]
    with pytest.raises(ValueError, match=f"max_sweeps >= 1, got {max_sweeps}"):
        picard_system_solve(sys, grid, max_sweeps=max_sweeps)


def test_march_equals_whole_window_iteration():
    """The march of solve is the fixed point that the whole-window
    Picard iteration converges to: the two engines agree to 10 tol on a
    multi-order system and on a pair, for every component."""
    b = full_neumann_basis(17)
    x = b.grid
    tol = 1e-10
    system = MultiOrderSystem(
        b, [0.4, 0.6, 0.8],
        [0.5 + 0.2 * np.cos(x), 0.3 + 0.1 * np.cos(2 * x), 0.15 + 0.1 * np.cos(x)],
        couplings=[[-0.05, 0.3, 0.1], [0.2, -0.1, 0.4], [0.5, 0.2, -0.02]],
        forcings=[lambda x, t: 0.1 * np.exp(-t) + 0.0 * x, None, 0.05],
    )
    pair = SemilinearPair(b, 0.6, lambda u, v: 0.8 * v * (1 + u * u),
                          lambda u, v: 1.2 * u * (1 + v * v),
                          0.3 + 0.1 * np.cos(x), 0.2 + 0.1 * np.cos(2 * x))
    for sys, M1, grid in ((system, None, TimeGrid.uniform(1.0, 48)),
                          (pair, 2.0, TimeGrid.graded(0.5, 40, 2.0))):
        iterated = picard_system_solve(sys, grid, M1, tol=tol)["trajectories"]
        marched = solve(sys, grid, M1)
        assert len(marched) == sys.N
        for it, ma in zip(iterated, marched):
            assert ma.diagnostics["shift"] == it.diagnostics["M1"]
            assert np.max(np.abs(ma.fields() - it.fields())) <= 10 * tol


def test_decoupled_system_matches_modal_decay():
    b = full_neumann_basis()
    a1 = 1.0 + 0.3 * np.cos(b.grid)
    a2 = 0.5 + 0.2 * np.cos(2 * b.grid)
    sys = MultiOrderSystem(b, [0.4, 0.7], [a1, a2])
    grid = TimeGrid.uniform(1.0, 64)
    out = picard_system_solve(sys, grid)
    for alpha, a, tr in zip(sys.alphas, sys.initials, out["trajectories"]):
        ref = solve_linear(LinearProblem(b, alpha, a), grid)
        assert np.max(np.abs(tr.fields() - ref.fields())) < 1e-9


def test_diagonal_coupling_closed_form():
    """p_ll = q constant: per-mode E_{alpha_l,1}(-(lambda_n - q) t^alpha_l)."""
    b = full_neumann_basis()
    q = -0.8
    a1 = b.modes[:, 1].copy()
    a2 = b.modes[:, 2].copy()
    sys = MultiOrderSystem(
        b, [0.4, 0.6], [a1, a2], couplings=[[q, None], [None, q]]
    )
    grid = TimeGrid.uniform(1.0, 256)
    out = picard_system_solve(sys, grid, M1=1.0)
    for alpha, mode, tr in ((0.4, 1, out["trajectories"][0]),
                            (0.6, 2, out["trajectories"][1])):
        want = ml_neg_vec(alpha, (b.lambdas[mode] - q) * grid.nodes**alpha)
        err = np.max(np.abs(tr.modal[:, mode] - want))
        assert err < 5e-3  # refinement-level agreement (left-endpoint forcing)


def test_increment_ratio_test_and_recursion():
    b = full_neumann_basis()
    rng = np.random.default_rng(7)
    a = [rng.uniform(0.2, 1.0) + rng.uniform(0.0, 0.3) * np.cos(b.grid)
         for _ in range(3)]
    # Strong cooperative coupling + high orders: many sweeps occur before the
    # 1e-13 stop, so the super-geometric Gamma(n*alpha_1+1) decay of (5.12)
    # becomes visible in the measured ratios.
    coup = [[rng.uniform(2.2, 2.5) if j != k else -rng.uniform(0.0, 0.02)
             for k in range(3)] for j in range(3)]
    sys = MultiOrderSystem(b, [0.9, 0.94, 0.98], a, couplings=coup)
    grid = TimeGrid.uniform(1.0, 128)
    out = picard_system_solve(sys, grid, M1=0.1, tol=1e-13, max_sweeps=400)
    sups = [float(np.max(U)) for U in out["increments"]]
    ratios = [s2 / s1 for s1, s2 in zip(sups[:-1], sups[1:]) if s1 > 1e-15]
    assert ratios[-1] < ratios[0] / 10.0  # faster than geometric
    rec = increment_recursion_check(out, sys, grid)
    assert rec["passes"], rec
    env = kernel_envelope_check(sys, grid)
    assert env["passes"], env
    with pytest.raises(ValueError, match="needs a uniform grid"):
        kernel_envelope_check(sys, TimeGrid.graded(1.0, 16, 2.0))


def test_nonneg_verify_gate_and_pass():
    b = full_neumann_basis()
    x = b.grid
    a = [np.zeros_like(x), np.zeros_like(x)]
    sys0 = MultiOrderSystem(b, [0.4, 0.6], a)
    grid = TimeGrid.uniform(1.0, 32)
    out0 = picard_system_solve(sys0, grid)
    v0 = nonneg_verify(sys0, out0["trajectories"], grid)
    assert v0["verdict"] == "PASS" and abs(v0["min_value"]) < 1e-12

    rng = np.random.default_rng(3)
    a = [rng.uniform(0.1, 0.6) + rng.uniform(0.0, 0.2) * (1.0 + np.cos(x))
         for _ in range(2)]
    sys1 = MultiOrderSystem(
        b, [0.45, 0.7], a,
        couplings=[[-0.3, 0.4], [0.2, -0.1]],
        forcings=[0.1, lambda x_, t: 0.05 * (1.0 + np.cos(x_))],
    )
    out1 = picard_system_solve(sys1, grid)
    v1 = nonneg_verify(sys1, out1["trajectories"], grid)
    assert v1["verdict"] == "PASS", v1

    sys2 = MultiOrderSystem(
        b, [0.45, 0.7], a, couplings=[[-0.3, -5.0], [0.2, -0.1]]
    )
    out2 = picard_system_solve(sys2, grid)
    v2 = nonneg_verify(sys2, out2["trajectories"], grid)
    assert v2["verdict"] == "NOT-APPLICABLE"
    assert "p_12" in v2["reason"]


def test_nonneg_verify_scalar_problems():
    """nonneg_verify gates a linear and a semilinear problem like a system:
    NOT-APPLICABLE naming the first failing hypothesis in the order a >= 0,
    F >= 0, f(x, 0) >= 0, and PASS on a clean problem."""
    b = full_neumann_basis(17)
    x = b.grid
    grid = TimeGrid.uniform(1.0, 16)
    a = 0.5 + 0.2 * np.cos(x)
    growth = SemilinearTerm(lambda x_, u: 0.1 + 0.0 * u)
    decay = SemilinearTerm(lambda x_, u: -0.1 + 0.0 * u)
    negative_a, negative_F = "initial data", "forcing"
    cases = [
        (LinearProblem(b, 0.5, a - 1.0, forcing=-1.0), negative_a),
        (LinearProblem(b, 0.5, a, forcing=lambda x_, t: 0.1 - t), negative_F),
        (SemilinearProblem(b, 0.5, -a, decay), negative_a),
        (SemilinearProblem(b, 0.5, a, decay, forcing=-0.1), negative_F),
        (SemilinearProblem(b, 0.5, a, decay), "f(x, 0)"),
        (LinearProblem(b, 0.5, a, forcing=0.1), None),
        (SemilinearProblem(b, 0.5, a, growth), None),
    ]
    for prob, reason in cases:
        out = nonneg_verify(prob, solve(prob, grid, 1.0), grid)
        if reason is None:
            assert out["verdict"] == "PASS" and out["min_value"] > 0.0, out
        else:
            assert out == {"verdict": "NOT-APPLICABLE", "min_value": out["min_value"],
                           "reason": f"{reason} takes negative values"}


def test_equal_order_agrees_with_linsolve():
    """A component that nothing feeds back into is a scalar linear run,
    whether the other component's order is higher or exactly equal."""
    b = full_neumann_basis()
    a1 = 0.5 + 0.2 * np.cos(b.grid)
    a2 = np.zeros_like(b.grid)
    grid = TimeGrid.uniform(1.0, 128)
    ref = solve_linear(LinearProblem(b, 0.5, a1, reaction=-0.4), grid, shift=1.0)
    for alpha2 in (0.9, 0.5):
        # second component does not feed back into the first
        sys = MultiOrderSystem(
            b, [0.5, alpha2], [a1, a2], couplings=[[-0.4, None], [0.3, None]]
        )
        out = picard_system_solve(sys, grid, M1=1.0)
        assert np.max(np.abs(out["trajectories"][0].fields() - ref.fields())) < 1e-8


def test_working_box_refused():
    """A pair and a scalar semilinear problem share one box rule: a box
    that the initial data leave, or that is not finite (the default
    2 (1 + sup|a|) overflows above about 9e307), is refused."""
    b = full_neumann_basis(9)
    a = 0.5 + 0.2 * np.cos(b.grid)

    def f(u, v):
        return v * v

    with pytest.raises(ValueError, match="working box"):
        SemilinearPair(b, 0.5, f, f, a, a, m=0.6)
    huge = np.full_like(b.grid, 1e308)
    not_finite = r"finite working box m >= sup\|a\|, got inf"
    with pytest.raises(ValueError, match=not_finite):
        SemilinearPair(b, 0.5, f, f, a, huge)
    with pytest.raises(ValueError, match=not_finite):
        SemilinearPair(b, 0.5, f, f, a, a, m=math.inf)
    with pytest.raises(ValueError, match=not_finite):
        SemilinearProblem(b, 0.5, huge, SemilinearTerm.enzyme())
    assert SemilinearPair(b, 0.5, f, f, a, 0.5 * a).m == 2.0 * (1.0 + 0.7)


def test_pair_builds_one_propagator(monkeypatch):
    """Propagators are built in one place, once per distinct order: one for
    a scalar problem and for the two equal orders of a pair, and one per
    distinct order of a system with a repeated order."""
    import fracdiff.linsolve as linsolve

    built = []

    class Counting(linsolve.ModalPropagator):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(linsolve, "ModalPropagator", Counting)
    b = full_neumann_basis(9)
    a = 0.5 + 0.2 * np.cos(b.grid)
    grid = TimeGrid.uniform(0.5, 8)
    solve_linear(LinearProblem(b, 0.4, a, forcing=0.1), grid)
    assert built == [0.4]
    built.clear()
    solve_linear(SemilinearProblem(b, 0.4, a, SemilinearTerm.enzyme()), grid, 2.0)
    assert built == [0.4]
    built.clear()
    semilinear_pair_solve(
        SemilinearPair(b, 0.5, lambda u, v: v * v, lambda u, v: u * u, a, a), grid)
    assert built == [0.5]
    built.clear()
    picard_system_solve(MultiOrderSystem(b, [0.3, 0.3, 0.6], [a, a, a]), grid)
    assert sorted(built) == [0.3, 0.6]


def test_pair_decoupled_and_symmetric():
    b = full_neumann_basis()
    a = 0.5 + 0.3 * np.cos(b.grid)
    grid = TimeGrid.uniform(1.0, 64)
    pair0 = SemilinearPair(b, 0.5, lambda u, v: 0.0 * u, lambda u, v: 0.0 * v,
                           a, 0.5 * a)
    u, v = semilinear_pair_solve(pair0, grid)
    ref_u = solve_linear(LinearProblem(b, 0.5, a), grid)
    ref_v = solve_linear(LinearProblem(b, 0.5, 0.5 * a), grid)
    assert np.max(np.abs(u.fields() - ref_u.fields())) < 1e-10
    assert np.max(np.abs(v.fields() - ref_v.fields())) < 1e-10

    pair_sym = SemilinearPair(b, 0.5, lambda u, v: v - u, lambda u, v: u - v,
                              a, a.copy())
    u, v = semilinear_pair_solve(pair_sym, grid)
    assert np.max(np.abs(u.fields() - v.fields())) < 1e-10


def test_pair_lotka_volterra_cross_oracle():
    alpha = 0.6
    b = full_neumann_basis(65)
    x = b.grid
    a = 0.025 + 0.01 * np.cos(x)
    bb = 0.02 + 0.01 * np.cos(2 * x)

    def f(u, v):
        return u * (1.0 - u - 0.5 * v)

    def g(u, v):
        return v * (1.0 - v - 0.5 * u)

    pair = SemilinearPair(b, alpha, f, g, a, bb)
    grid = TimeGrid.uniform(0.5, 2048)
    u, v = semilinear_pair_solve(pair, grid)

    # implicit L1 oracle with iterated nonlinearity
    P = b.weights[None, :] * b.modes.T
    A0 = b.modes @ (b.lambdas[:, None] * P)
    D = l1_weights(alpha, grid)
    n = len(grid)
    U = np.zeros((n, x.size))
    V = np.zeros((n, x.size))
    U[0], V[0] = a, bb
    r = D[1, 1]
    mat = np.linalg.inv(r * np.eye(x.size) + A0)
    for i in range(1, n):
        rhs_u = r * a - D[i, :i] @ (U[:i] - a[None, :])
        rhs_v = r * bb - D[i, :i] @ (V[:i] - bb[None, :])
        uu, vv = U[i - 1].copy(), V[i - 1].copy()
        for _ in range(100):
            un = mat @ (rhs_u + f(uu, vv))
            vn = mat @ (rhs_v + g(uu, vv))
            if max(np.max(np.abs(un - uu)), np.max(np.abs(vn - vv))) < 1e-13:
                uu, vv = un, vn
                break
            uu, vv = un, vn
        U[i], V[i] = uu, vv
    assert np.max(np.abs(u.fields() - U)) < 1e-4
    assert np.max(np.abs(v.fields() - V)) < 1e-4


def test_pair_amplitude_escape():
    b = full_neumann_basis()
    a = np.ones_like(b.grid)
    pair = SemilinearPair(b, 0.5, lambda u, v: u * u + 2.0,
                          lambda u, v: 0.0 * v, a, a.copy(), m=1.2)
    with pytest.raises(ArithmeticError, match="amplitude escape"):
        semilinear_pair_solve(pair, TimeGrid.uniform(2.0, 64))


def test_pair_non_finite_reaction_stops_at_first_sweep():
    b = full_neumann_basis()
    a = 0.5 + 0.1 * np.cos(b.grid)
    pair = SemilinearPair(b, 0.5, lambda u, v: np.sqrt(u - 0.55),
                          lambda u, v: 0.0 * v, a, a.copy())
    with np.errstate(invalid="ignore"), pytest.raises(
        ArithmeticError, match=r"non-finite value at node 1 \(t=0\.0625\)"
    ):
        semilinear_pair_solve(pair, TimeGrid.uniform(1.0, 16))


def test_pair_growth_phase_inside_box_converges():
    """Picard increments of a Volterra equation can grow for many sweeps
    before their super-geometric decay sets in; inside a working box that
    holds the solution, that growth is not divergence of the whole-window
    iteration."""
    b = full_neumann_basis()
    x = b.grid
    pair = SemilinearPair(b, 0.4, lambda u, v: 1.5 * v * (1.0 + u**2),
                          lambda u, v: 1.5 * u * (1.0 + v**2),
                          0.35 + 0.1 * np.cos(x), 0.25 + 0.1 * np.cos(2 * x), m=10.0)
    u, v = picard_system_solve(pair, TimeGrid.uniform(0.5, 32), 2.0)["trajectories"]
    growing = [r > 1.0 for r in u.diagnostics["rhos"]]
    assert any(all(growing[k:k + 5]) for k in range(len(growing) - 4))
    assert pair_nonneg_verify(pair, (u, v))["verdict"] == "PASS"


def test_cooperative_classify_cases():
    b = full_neumann_basis(17)
    z = np.zeros_like(b.grid)

    def mk(f, g):
        return SemilinearPair(b, 0.5, f, g, z, z)

    box = (-1.0, 1.0)
    assert cooperative_classify(mk(lambda u, v: v**2, lambda u, v: u**2), box)["case"] == 1
    # Remark-style construction: h1(xi) h2(eta) + h3(eta) with h1(0)=0, h3>=0
    c1 = cooperative_classify(
        mk(lambda u, v: u * np.sin(v) + v**2, lambda u, v: u**2), box
    )
    assert c1["f_disjuncts"][0]
    assert cooperative_classify(
        mk(lambda u, v: v**2, lambda u, v: u * (1.0 + v**2)), box
    )["case"] == 2
    assert cooperative_classify(
        mk(lambda u, v: v * (1.0 + u**2), lambda u, v: u**2), box
    )["case"] == 3
    assert cooperative_classify(
        mk(lambda u, v: v * (1.0 + u**2), lambda u, v: u * (1.0 + v**2)), box
    )["case"] == 4
    out = cooperative_classify(mk(lambda u, v: -v, lambda u, v: u**2), box)
    assert out["case"] == "none"
    eta, val = out["witnesses"]["f_edge"]
    assert eta > 0.0 and val < 0.0  # violating eta > 0 reported


def test_pair_nonneg_verify():
    b = full_neumann_basis()
    x = b.grid
    a = 0.3 + 0.1 * np.cos(x)
    bb = 0.2 + 0.1 * np.cos(2 * x)
    grid = TimeGrid.uniform(1.0, 64)

    pair1 = SemilinearPair(b, 0.5, lambda u, v: v * v, lambda u, v: u * u, a, bb)
    sol = semilinear_pair_solve(pair1, grid, shift=1.0)
    out = pair_nonneg_verify(pair1, sol)
    assert out["verdict"] == "PASS" and out["classification"]["case"] == 1

    # Case 4 on the observed positive range: f = u v style couplings
    pair4 = SemilinearPair(b, 0.5, lambda u, v: v * (0.5 + u),
                           lambda u, v: u * (0.5 + v), a, bb)
    sol4 = semilinear_pair_solve(pair4, grid, shift=2.0)
    out4 = pair_nonneg_verify(pair4, sol4)
    assert out4["verdict"] == "PASS"
    assert out4["classification"]["case"] in (1, 2, 3, 4)

    gate = pair_nonneg_verify(
        SemilinearPair(b, 0.5, lambda u, v: v * v, lambda u, v: u * u,
                       a - 1.0, bb),
        sol,
    )
    assert gate["verdict"] == "NOT-APPLICABLE"

    noncoop = SemilinearPair(b, 0.5, lambda u, v: -v, lambda u, v: -u, a, bb)
    sol_nc = semilinear_pair_solve(noncoop, grid, shift=1.0)
    out_nc = pair_nonneg_verify(noncoop, sol_nc)
    assert out_nc["verdict"] == "NOT-APPLICABLE"
