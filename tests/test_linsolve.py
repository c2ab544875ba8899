import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

import fracdiff
from fracdiff.fracops import TimeGrid
from fracdiff.linsolve import (
    MAX_ROW_TABLE_BYTES,
    LinearProblem,
    ModalPropagator,
    _check_box,
    _convolution,
    _fast_len,
    convolve_K,
    solve,
    solve_linear,
    solve_linear_l1,
)
from fracdiff.mlf import kernel_weights_from_e, ml_neg_vec
from fracdiff.semilinear import SemilinearProblem, SemilinearTerm
from fracdiff.spectral import EllipticOperator, eigendecompose, project, synthesize


def neumann_basis(n_modes=8, n_grid=401, c0=0.0):
    return eigendecompose(
        EllipticOperator(math.pi, p=1.0, c=0.0, sigma=(0.0, 0.0), c0=c0),
        n_modes,
        n_grid,
    )


def test_propagator_validation():
    b = neumann_basis(4, 101)
    grid = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError):
        ModalPropagator(b, 1.5, grid)
    with pytest.raises(ValueError):
        ModalPropagator(b, 0.5, grid, shift=-1.0)  # lambda_1 = 0 goes negative


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_weight_sum_invariant(alpha):
    b = eigendecompose(
        EllipticOperator(1.0, sigma=(1.0, 1.0)), 12, 201
    )  # Robin: all lambdas > 0
    assert ModalPropagator(b, alpha, TimeGrid.uniform(2.0, 128)).weight_sum_check() < 1e-10
    # lambda_1 = 0 path (Neumann)
    b0 = neumann_basis(6, 101)
    assert ModalPropagator(b0, alpha, TimeGrid.uniform(1.0, 64)).weight_sum_check() < 1e-10
    # graded row table, both paths
    graded = TimeGrid.graded(1.0, 48, (2.0 - alpha) / alpha)
    for basis in (b, b0):
        assert ModalPropagator(basis, alpha, graded).weight_sum_check() < 1e-10


def test_apply_s_identity_and_decay():
    """S(t) multiplies mode n by E_{alpha,1}(-lam_n t^alpha): the identity at
    t = 0, the decay at the node t = 2 and at any time through e_values."""
    b = neumann_basis(6, 201, c0=1.0)
    prop = ModalPropagator(b, 0.5, TimeGrid.uniform(2.0, 1))
    c = np.arange(1.0, 7.0)
    np.testing.assert_allclose(prop.E[0] * c, c)
    want = ml_neg_vec(0.5, b.lambdas * 2.0**0.5) * c
    np.testing.assert_allclose(prop.E[1] * c, want, rtol=1e-12)
    np.testing.assert_array_equal(prop.e_values([2.0])[0], prop.E[1])


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_homogeneous_solution_exact(alpha):
    """Q = 0, F = 0: the march reproduces the modal Mittag-Leffler decay."""
    b = neumann_basis(8, 201)
    a = synthesize(b, np.array([1.0, -0.5, 0.25, 0.0, 0.1, 0.0, 0.0, -0.05]))
    prob = LinearProblem(b, alpha, a)
    grid = TimeGrid.uniform(1.0, 128)
    traj = solve_linear(prob, grid)
    a_modal = project(b, a)
    want = ml_neg_vec(alpha, np.outer(grid.nodes**alpha, b.lambdas)) * a_modal
    assert np.max(np.abs(traj.modal - want)) < 1e-10


def test_reaction_shift_closed_form_exact():
    """Constant reaction q absorbed by shift = -q makes the march exact:
    u(t) = E_{alpha,1}(-(lambda_1 - q) t^alpha) phi_1."""
    alpha, q = 0.6, -0.7
    b = neumann_basis(4, 201)
    a = b.modes[:, 1].copy()  # phi_2, lambda approx 1
    prob = LinearProblem(b, alpha, a, reaction=q)
    grid = TimeGrid.uniform(2.0, 64)
    traj = solve_linear(prob, grid, shift=-q)
    want = ml_neg_vec(alpha, (b.lambdas[1] - q) * grid.nodes**alpha)
    np.testing.assert_allclose(traj.modal[:, 1], want, atol=1e-12)
    other = np.delete(traj.modal, 1, axis=1)
    assert np.max(np.abs(other)) < 1e-12


def test_reaction_without_shift_converges():
    """Same problem, shift = 0: left-endpoint reconstruction converges."""
    alpha, q = 0.6, -0.7
    b = neumann_basis(4, 201)
    a = b.modes[:, 1].copy()
    grid = TimeGrid.uniform(2.0, 256)

    def err(N):
        g = TimeGrid.uniform(2.0, N)
        prob = LinearProblem(b, alpha, a, reaction=q)
        traj = solve_linear(prob, g)
        want = ml_neg_vec(alpha, (b.lambdas[1] - q) * g.nodes**alpha)
        return np.max(np.abs(traj.modal[:, 1] - want))

    e1, e2 = err(64), err(128)
    assert e2 < e1 / 1.3
    assert err(256) < 5e-3


def test_flat_mode_forcing_power_law():
    """lambda = 0, F = 1: u = t^alpha / Gamma(1+alpha), exact by moments."""
    alpha = 0.4
    b = neumann_basis(4, 201)
    prob = LinearProblem(b, alpha, np.zeros_like(b.grid), forcing=1.0)
    grid = TimeGrid.uniform(1.5, 64)
    traj = solve_linear(prob, grid)
    flat = traj.modal[:, 0] * b.modes[0, 0]  # field value (mode is constant)
    want = grid.nodes**alpha / math.gamma(1.0 + alpha)
    np.testing.assert_allclose(flat, want, atol=1e-12)


@pytest.mark.parametrize(
    "grid",
    [TimeGrid.uniform(1.0, 96), TimeGrid.graded(1.0, 48, 2.0)],
    ids=["uniform", "graded"],
)
def test_duhamel_consistency(grid):
    """Q = 0: solve_linear equals S(t) a + convolve_K(F) node by node,
    through the lag table (uniform) and the per-row weights (graded)."""
    alpha = 0.5
    b = neumann_basis(6, 201)
    a = synthesize(b, np.array([0.3, -0.2, 0.5, 0.0, 0.1, 0.0]))

    def F(x, t):
        return (1.0 + t) * np.cos(x) + 0.5 * t * t

    prob = LinearProblem(b, alpha, a, forcing=F)
    traj = solve_linear(prob, grid)
    prop = ModalPropagator(b, alpha, grid)
    G = np.array([project(b, F(b.grid, t) * np.ones_like(b.grid)) for t in grid.nodes])
    conv = convolve_K(prop, G)
    a_modal = project(b, a)
    duhamel = prop.E * a_modal + conv
    assert np.max(np.abs(traj.modal - duhamel)) < 1e-10


def test_fast_len_is_the_next_5_smooth_length():
    """_fast_len(n) is scipy's next_fast_len(n, real=True) for every n up
    to 5000: the smallest 2^a 3^b 5^c >= n."""
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 5001)] == [
        next_fast_len(n, True) for n in range(1, 5001)]


@pytest.mark.parametrize("M", [1, 17])
@pytest.mark.parametrize("N", [1, 2, 7, 96, 257])
def test_uniform_convolution_matches_fftconvolve_and_direct_sum(N, M):
    """The uniform convolve_K (one real FFT pair against the lag table's
    stored spectrum) equals fftconvolve bit for bit, including N where
    2N - 1 is not a fast FFT length, and the direct causal sum
    sum_j W[i-1-j] G[j] over the rows prop.row(i) to round-off."""
    prop = ModalPropagator(neumann_basis(M, 33), 0.6, TimeGrid.uniform(1.0, N), shift=2.0)
    G = np.random.default_rng([N, M]).standard_normal((N + 1, M))
    out = convolve_K(prop, G)
    W = prop.row(N)[::-1]  # the lag table
    assert not out[0].any()
    np.testing.assert_array_equal(out[1:], fftconvolve(G[:-1], W, mode="full", axes=0)[:N])
    direct = np.array([np.einsum("jm,jm->m", prop.row(i), G[:i]) for i in range(1, N + 1)])
    assert np.max(np.abs(out[1:] - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_package_does_not_import_scipy():
    """The warm-up solve and `fracdiff run` on a bundled scenario load no
    scipy module in a fresh process: the package needs numpy alone, and
    any scipy import costs a fresh process about 0.3 s of CPU."""
    code = textwrap.dedent("""
        import os
        import sys
        import tempfile
        import numpy as np
        import fracdiff
        from fracdiff import cli
        from fracdiff.fracops import TimeGrid
        from fracdiff.semilinear import SemilinearProblem, SemilinearTerm, picard_solve
        from fracdiff.spectral import EllipticOperator, eigendecompose

        basis = eigendecompose(EllipticOperator(3.0), 5, 5)
        prob = SemilinearProblem(basis, 0.5, np.ones(5), SemilinearTerm.enzyme())
        picard_solve(prob, TimeGrid.uniform(1.0, 4), shift=2.0)
        scenario = os.path.join(os.path.dirname(fracdiff.__file__), "scenarios",
                                "enzyme_barrier.ini")
        with tempfile.TemporaryDirectory() as out:
            assert cli.main(["run", scenario, "--outdir", out]) == 0
        loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracdiff.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_solver_weights_match_kernel_moments():
    """The uniform lag table and the graded row table the solvers use are
    the kernel moments of each lag interval, mode by mode, including
    lambda = 0."""
    alpha = 0.6
    b = neumann_basis(6, 101)
    uniform = TimeGrid.uniform(1.0, 32)
    prop = ModalPropagator(b, alpha, uniform)
    assert prop.lambdas[0] < 1e-12 < prop.lambdas[1]
    W = prop.row(uniform.N)[::-1]  # the lag table
    graded = TimeGrid.graded(1.0, 24, 2.0)
    rows = [ModalPropagator(b, alpha, graded).row(i) for i in range(len(graded))]
    assert [r.shape for r in rows] == [(i, 6) for i in range(len(graded))]
    cases = [(W, uniform.nodes)]
    for i in (1, 7, len(graded) - 1):
        t_i, earlier = graded.nodes[i], graded.nodes[: i + 1]
        # row i runs over earlier intervals; their lags t_i - t ascend
        cases.append((rows[i][::-1], t_i - earlier[::-1]))
    for got, taus in cases:
        for m, lam in enumerate(prop.lambdas):
            want = kernel_weights_from_e(alpha, lam, taus,
                                         ml_neg_vec(alpha, lam * taus**alpha))
            tol = 1e-15 * np.maximum(1.0, np.abs(want))
            assert (np.abs(got[:, m] - want) <= tol).all()


@pytest.mark.parametrize(
    "grid, shift",
    [
        (TimeGrid.graded(1.0, 64, 3.0), 0.0),
        (TimeGrid(np.concatenate([[0.0], np.cumsum(np.random.default_rng(7).uniform(
            0.001, 0.05, 80))])), 1.0),
        (TimeGrid.graded(1.0, 1, 2.0), 2.0),
    ],
    ids=["graded-neumann-shift-0", "custom", "N-1"],
)
def test_packed_rows_equal_per_row_construction(grid, shift):
    """The rows built from the concatenated lags of a row group equal rows
    built one at a time from their own lags to 1e-15 (the Taylor sum's term
    count follows the largest argument of its batch), the lambda = 0 mode
    of a Neumann basis at shift 0 included."""
    b = neumann_basis(17, 101)
    prop = ModalPropagator(b, 0.6, grid, shift)
    assert (prop.lambdas[0] == 0.0) == (shift == 0.0)
    t = grid.nodes
    for i in range(1, len(grid)):
        lags = t[i] - t[i::-1]
        want = kernel_weights_from_e(prop.alpha, prop.lambdas, lags, prop.e_values(lags))
        assert np.max(np.abs(prop.row(i) - want[::-1])) <= 1e-15


def test_oversize_row_table_refused(monkeypatch):
    """A propagator on a graded grid whose rows exceed MAX_ROW_TABLE_BYTES
    is refused at construction with a ValueError naming N, M and the size,
    before any weight is computed."""
    b = neumann_basis(65, 129)
    grid = TimeGrid.graded(1.0, 20000, 2.0)
    assert 4 * 65 * 20000 * 20001 > MAX_ROW_TABLE_BYTES

    def no_values(self, tnodes):
        raise AssertionError("e_values called for a refused table")

    monkeypatch.setattr(ModalPropagator, "e_values", no_values)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"N = 20000, M = 65 modes take 96\.9 GiB"):
            ModalPropagator(b, 0.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_manufactured_solution_refinement():
    """u* = (1 + t^alpha) phi_1 with its exact forcing: first-order decay."""
    alpha = 0.8
    b = eigendecompose(EllipticOperator(math.pi, sigma=(1.0, 1.0)), 4, 401)
    lam1 = b.lambdas[0]
    phi1 = b.modes[:, 0]
    ga = math.gamma(1.0 + alpha)

    def F(x, t):
        return (ga + lam1 * (1.0 + t**alpha)) * np.interp(x, b.grid, phi1)

    errs = []
    for N in (64, 128, 256):
        grid = TimeGrid.uniform(1.0, N)
        prob = LinearProblem(b, alpha, phi1.copy(), forcing=F)
        traj = solve_linear(prob, grid)
        want = np.outer(1.0 + grid.nodes**alpha, project(b, phi1))
        errs.append(np.max(np.abs(traj.modal - want)))
    assert 1.4 < errs[0] / errs[1] < 4.6
    assert 1.4 < errs[1] / errs[2] < 4.6


def test_stability_in_initial_value():
    alpha = 0.5
    b = neumann_basis(6, 201)
    rng = np.random.default_rng(3)
    a1 = synthesize(b, rng.normal(size=6))
    a2 = a1 + synthesize(b, 0.01 * rng.normal(size=6))
    grid = TimeGrid.uniform(3.0, 64)
    kw = dict(reaction=-0.4, forcing=lambda x, t: np.sin(x) + t)
    u1 = solve_linear(LinearProblem(b, alpha, a1, **kw), grid)
    u2 = solve_linear(LinearProblem(b, alpha, a2, **kw), grid)
    gap = np.max(np.abs(u1.fields() - u2.fields()))
    assert gap <= 5.0 * np.max(np.abs(a1 - a2))


def test_nonnegativity_band_limited():
    """Nonnegative band-limited data with the reaction absorbed in the
    shift keeps the discrete solution nonnegative to rounding."""
    alpha = 0.6
    b = neumann_basis(6, 201)
    a = 1.0 + 0.5 * np.cos(b.grid)

    def F(x, t):
        return 0.2 * (1.0 + np.cos(x))

    prob = LinearProblem(b, alpha, a, reaction=-0.5, forcing=F)
    traj = solve_linear(prob, TimeGrid.uniform(4.0, 128), shift=0.5)
    assert traj.fields().min() > -1e-12


def test_steady_state_is_fixed_point():
    """a = A0^{-1} F with static F: the discrete solution never moves."""
    alpha = 0.45
    b = eigendecompose(EllipticOperator(math.pi, sigma=(1.0, 1.0)), 6, 201)
    f_modal = np.array([1.0, -0.3, 0.2, 0.0, 0.05, 0.0])
    F_field = synthesize(b, f_modal)
    a = synthesize(b, f_modal / b.lambdas)

    def F(x, t):
        return np.interp(x, b.grid, F_field)

    prob = LinearProblem(b, alpha, a, forcing=F)
    traj = solve_linear(prob, TimeGrid.uniform(5.0, 64))
    drift = np.max(np.abs(traj.modal - traj.modal[0][None, :]))
    assert drift < 1e-10


def test_graded_grid_matches_closed_form():
    """Nonuniform path (row weights): shift-exact problem stays exact."""
    alpha, q = 0.5, -1.0
    b = neumann_basis(4, 201)
    a = b.modes[:, 2].copy()
    prob = LinearProblem(b, alpha, a, reaction=q)
    grid = TimeGrid.graded(1.0, 48, 2.0)
    traj = solve_linear(prob, grid, shift=-q)
    want = ml_neg_vec(alpha, (b.lambdas[2] - q) * grid.nodes**alpha)
    np.testing.assert_allclose(traj.modal[:, 2], want, atol=1e-12)


def test_l1_cross_validation():
    """Implicit L1 and the modal Volterra march agree and converge together."""
    alpha = 0.75
    b = neumann_basis(8, 129, c0=1.0)
    a = 1.0 + 0.4 * np.cos(b.grid) - 0.2 * np.cos(2 * b.grid)

    def gap(N):
        grid = TimeGrid.uniform(1.0, N)
        prob = LinearProblem(
            b, alpha, a, reaction=lambda x, t: -0.5 - 0.1 * x, forcing=0.3
        )
        u_modal = solve_linear(prob, grid).fields()
        u_l1 = solve_linear_l1(prob, grid).fields()
        return np.max(np.abs(u_modal - u_l1))

    g1, g2 = gap(128), gap(512)
    assert g2 < 0.5 * g1
    assert g2 < 1e-2


def test_drift_term_runs_and_converges():
    alpha = 0.6
    b = neumann_basis(10, 201, c0=1.0)
    a = np.exp(-((b.grid - 1.5) ** 2))
    prob = LinearProblem(b, alpha, a, drift=lambda x, t: 0.2 * np.sin(x))
    ref = solve_linear(prob, TimeGrid.uniform(0.5, 512)).fields()[-1]
    e1 = np.abs(solve_linear(prob, TimeGrid.uniform(0.5, 64)).fields()[-1] - ref).max()
    e2 = np.abs(solve_linear(prob, TimeGrid.uniform(0.5, 128)).fields()[-1] - ref).max()
    assert e2 < e1
    assert e1 < 0.05


def test_trajectory_csv_and_report(tmp_path):
    b = neumann_basis(3, 33)
    prob = LinearProblem(b, 0.5, np.cos(b.grid))
    traj = solve_linear(prob, TimeGrid.uniform(1.0, 8))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 10 and rows[0].startswith("t,x0,")
    assert float(rows[1].split(",")[0]) == 0.0
    assert traj.report().splitlines()[1:] == ["  shift: 0.0"]


def test_tables_survive_grid_address_reuse():
    """A grid allocated at the address of a freed grid gets its own tables,
    not the freed grid's (each solve builds the tables of its grid)."""
    b = neumann_basis(9, 9)
    prob = LinearProblem(b, 0.6, np.ones(b.grid.size))
    coarse = TimeGrid.uniform(1.0, 8)
    solve_linear(prob, coarse)
    freed = id(coarse)
    del coarse
    kept = []  # live grids hold other addresses, so each try is a new one
    for _ in range(1000):
        grid = TimeGrid.uniform(1.0, 16)
        if id(grid) == freed:
            break
        kept.append(grid)
    got = solve_linear(prob, grid).modal
    want = solve_linear(LinearProblem(b, 0.6, np.ones(b.grid.size)), grid).modal
    np.testing.assert_array_equal(got, want)


def test_problem_validation():
    b = neumann_basis(3, 33)
    with pytest.raises(ValueError):
        LinearProblem(b, 0.5, np.zeros(10))
    with pytest.raises(ValueError):
        convolve_K(ModalPropagator(b, 0.5, TimeGrid.uniform(1.0, 4)), np.zeros((3, 3)))


def test_non_finite_value_stops_the_march():
    """The march stops at the first node with a non-finite value, naming the
    node and its time: node 0 for an infinite initial field, node 2 for a
    finite reaction whose products overflow."""
    b = neumann_basis(4, 33)
    grid = TimeGrid.uniform(1.0, 8)
    with np.errstate(all="ignore"):
        cases = [
            (np.full(33, np.inf), None, r"at node 0 \(t=0.0\)"),
            (np.ones(33), 1e300, r"at node 2 \(t=0.25\)"),
        ]
        for a, reaction, where in cases:
            prob = LinearProblem(b, 0.5, a, reaction=reaction)
            with pytest.raises(ArithmeticError, match=where):
                solve_linear(prob, grid)


@pytest.mark.parametrize(
    "U, m, message",
    [
        (np.array([[1.0, np.nan]]), None, "non-finite value at here"),
        (np.array([[1.0, np.inf]]), None, "non-finite value at here"),
        (np.array([[-np.inf, 0.0]]), None, "non-finite value at here"),
        (np.array([[1.0, np.nan]]), 2.0, "non-finite value at here"),
        (np.array([[1.0, np.inf]]), 2.0, "non-finite value at here"),
        (np.array([[1.0, -2.5]]), 2.0, "amplitude escape at here: sup|u| = 2.5 > m = 2.0"),
    ],
    ids=["nan", "inf", "-inf", "nan-in-box", "inf-in-box", "escape"],
)
def test_check_box_messages(U, m, message):
    """The one-reduction box check tells a non-finite value from an escape
    from the box m, and formats where only when it fails."""
    with pytest.raises(ArithmeticError) as exc:
        _check_box(U, m, lambda: "here")
    assert str(exc.value) == message
    _check_box(np.array([[1.0, -2.0]]), 2.0, lambda: pytest.fail("formatted"))
    _check_box(np.array([[1e308, -1e308]]), None, lambda: pytest.fail("formatted"))


@pytest.mark.parametrize(
    "grid", [TimeGrid.uniform(1.0, 40), TimeGrid.graded(1.0, 24, 2.0)],
    ids=["uniform", "graded"],
)
def test_stacked_convolution_equals_convolve_K(grid):
    """Three components of distinct orders and two starts convolved at once
    equal convolve_K of each component and start, bit for bit."""
    b = neumann_basis(9, 33)
    props = [ModalPropagator(b, alpha, grid, shift=1.0) for alpha in (0.3, 0.6, 0.9)]
    G = np.random.default_rng(7).standard_normal((3, 2, len(grid), 9))
    got = _convolution(props)(G)
    want = np.array([[convolve_K(p, g) for g in gc] for p, gc in zip(props, G)])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "coefficient, where",
    [
        ({"forcing": lambda x, t: 1.0 / x}, r"forcing is not finite at t=0\.0$"),
        ({"forcing": lambda x, t: 1.0 / (1.0 - t)}, r"forcing is not finite at t=1\.0$"),
        ({"drift": np.inf}, r"drift is not finite at t=0\.0$"),
        ({"reaction": lambda x, t: np.where(t > 0.5, np.nan, x)},
         r"reaction is not finite at t=0\.625$"),
    ],
    ids=["forcing-1/x", "forcing-infinite-at-T", "drift-inf", "reaction-nan"],
)
def test_non_finite_coefficient_refused(coefficient, where):
    """A coefficient with a non-finite sample is refused before any solve,
    naming it and the first node time where it occurs, also at the last
    node, whose right-hand side the left-endpoint rule never reads."""
    b = neumann_basis(4, 33)
    prob = LinearProblem(b, 0.5, np.ones(33), **coefficient)
    with np.errstate(all="ignore"):
        for solve in (solve_linear, solve_linear_l1):
            with pytest.raises(ValueError, match=where):
                solve(prob, TimeGrid.uniform(1.0, 8))


def test_memory_paths_agree():
    """The nodes of a uniform grid wrapped as a custom grid take the row
    path; its rows, convolve_K and solve_linear match the lag table and FFT
    path of the uniform grid to 1e-12 relative, and both pass the weight
    sum invariant."""
    b = neumann_basis(9, 65, c0=1.0)
    uniform = TimeGrid.uniform(1.0, 40)
    custom = TimeGrid(uniform.nodes, kind="custom")
    lag, rows = (ModalPropagator(b, 0.6, g, shift=2.0) for g in (uniform, custom))

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for i in range(1, len(uniform)):
        close(rows.row(i), lag.row(i))
    G = np.random.default_rng(5).standard_normal((len(uniform), 9))
    close(convolve_K(rows, G), convolve_K(lag, G))
    prob = LinearProblem(b, 0.6, 1.0 + 0.5 * np.cos(b.grid),
                         drift=lambda x, t: 0.2 * np.sin(x), reaction=-0.3,
                         forcing=lambda x, t: (1.0 + np.cos(x)) * np.exp(-t))
    close(solve_linear(prob, custom, 2.0).modal, solve_linear(prob, uniform, 2.0).modal)
    assert lag.weight_sum_check() < 1e-12 and rows.weight_sum_check() < 1e-12


def test_linear_solvers_refuse_a_reaction_term():
    """The implicit L1 oracle steps linear problems only: a SemilinearProblem
    is refused with a pointer to solve_linear, which marches it."""
    b = neumann_basis(4, 33)
    prob = SemilinearProblem(b, 0.5, np.ones(33), SemilinearTerm.enzyme())
    with pytest.raises(TypeError, match="use solve_linear"):
        solve_linear_l1(prob, TimeGrid.uniform(1.0, 4))


@pytest.mark.parametrize("sigma", [(0.0, 0.0), (1.0, 0.5)], ids=["neumann", "robin"])
def test_full_basis_physical_matrices_are_nonnegative(sigma):
    """With the full basis (n_modes = n_grid) the physical matrices of the
    discrete map, Phi E(t_i) Phi^T W and Phi diag(w) Phi^T W for every row
    weight w, are entrywise nonnegative to rounding, so the map preserves
    order; a truncated basis (17 of 33 modes) breaks this, which is why the
    order gates refuse it."""
    grids = (TimeGrid.uniform(1.0, 64), TimeGrid.graded(1.0, 32, 2.0))

    def worst(n_modes):
        basis = eigendecompose(EllipticOperator(2.0, sigma=sigma), n_modes, 33)
        out = np.inf
        for grid in grids:
            for alpha in (0.5, 0.9):
                prop = ModalPropagator(basis, alpha, grid)
                diagonals = [prop.E[1:]] + [prop.row(i) for i in range(1, len(grid))]
                for D in diagonals:
                    P = np.einsum("xm,km,ym->kxy", basis.modes, D, basis.modes)
                    P *= basis.weights
                    out = min(out, float(np.min(P / np.max(np.abs(P), axis=(1, 2),
                                                           keepdims=True))))
        return out

    assert worst(33) >= -1e-13
    assert worst(17) < -1e-3


def test_shift_none_is_zero_for_scalar_problems():
    """solve with shift None takes the default of a scalar problem, 0: the
    same trajectory, bitwise, as shift 0."""
    b = neumann_basis(8, 33)
    x = b.grid
    grid = TimeGrid.uniform(1.0, 16)
    linear = dict(drift=lambda x, t: 0.3 * np.sin(x), reaction=-0.5,
                  forcing=lambda x, t: t * np.cos(x))
    for prob in (LinearProblem(b, 0.6, 1.0 + 0.2 * np.cos(x), **linear),
                 SemilinearProblem(b, 0.6, 1.0 + 0.2 * np.cos(x),
                                   SemilinearTerm.enzyme(), **linear)):
        got, want = solve(prob, grid, None)[0], solve(prob, grid, 0.0)[0]
        assert np.array_equal(got.modal, want.modal)
        assert got.diagnostics["shift"] == 0.0
