import math

import numpy as np
import pytest

from fracdiff import spectral
from fracdiff.spectral import (
    EllipticOperator,
    apply_a0,
    apply_fractional_power,
    basis_to_csv,
    derivative,
    eigendecompose,
    project,
    synthesize,
)
from oracles import robin_eigenvalues_oracle


def neumann_basis(n_modes=8, n_grid=801, c0=0.0):
    return eigendecompose(
        EllipticOperator(math.pi, p=1.0, c=0.0, sigma=(0.0, 0.0), c0=c0),
        n_modes,
        n_grid,
    )


def test_operator_validation():
    with pytest.raises(ValueError):
        EllipticOperator(-1.0)
    with pytest.raises(ValueError):
        EllipticOperator(1.0, sigma=(-0.5, 0.0))
    with pytest.raises(ValueError):
        EllipticOperator(1.0, c0=-2.0)
    with pytest.raises(ValueError):
        eigendecompose(EllipticOperator(1.0, p=0.0), 4, 32)
    with pytest.raises(ValueError):
        eigendecompose(EllipticOperator(1.0, c=1.0), 4, 32)
    with pytest.raises(ValueError):
        eigendecompose(EllipticOperator(1.0), 33, 32)


def test_neumann_laplacian_eigenvalues():
    b = neumann_basis()
    exact = np.arange(8, dtype=float) ** 2
    h = math.pi / 800
    assert np.max(np.abs(b.lambdas - exact)) < 5.0 * h**2 * max(exact) ** 1.0
    # lambda_1 = 0 is legal for pure Neumann with zero shift
    assert abs(b.lambdas[0]) < 1e-10


def test_neumann_modes():
    b = neumann_basis()
    x = b.grid
    np.testing.assert_allclose(b.modes[:, 0], 1.0 / math.sqrt(math.pi), atol=1e-8)
    for n in (1, 3):
        want = math.sqrt(2.0 / math.pi) * np.cos(n * x)
        got = b.modes[:, n] * np.sign(b.modes[0, n])
        assert np.max(np.abs(got - want)) < 1e-4


def test_shift_identity():
    b0 = neumann_basis(c0=0.0)
    b1 = neumann_basis(c0=1.0)
    np.testing.assert_allclose(b1.lambdas, b0.lambdas + 1.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(np.abs(b1.modes), np.abs(b0.modes), atol=1e-9)


def test_default_shift_gives_positive_lambda1():
    op = EllipticOperator(1.0, c=lambda x: -x, sigma=(0.5, 0.0))
    b = eigendecompose(op, 4, 201)
    assert b.lambdas[0] > 0.9  # default shift is at least 1


def test_robin_eigenvalues_vs_bisection_oracle():
    op = EllipticOperator(1.0, p=1.0, c=0.0, sigma=(1.0, 1.0), c0=0.0)
    lam_h = eigendecompose(op, 4, 2001).lambdas
    lam_h2 = eigendecompose(op, 4, 4001).lambdas
    richardson = (4.0 * lam_h2 - lam_h) / 3.0
    want = robin_eigenvalues_oracle(4)
    assert np.max(np.abs(richardson - want)) < 1e-6


OPERATORS = {
    "robin": EllipticOperator(math.pi, p=lambda x: 1.0 + 0.5 * np.sin(x), c=lambda x: -x,
                              sigma=(0.5, 0.0)),
    "neumann": EllipticOperator(math.pi, c0=0.0),  # lambda_1 = 0
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("n_grid, n_modes", [
    (17, 17), (33, 33), (129, 129), (513, 513),
    (301, 8), (501, 16), (801, 8), (1001, 16), (2001, 4), (4001, 4),
])
def test_eigensolver_matches_eigh_tridiagonal(monkeypatch, name, n_grid, n_modes):
    """The numpy eigensolver (one dense eigh up to 16 (2M + 8) nodes, the
    block iteration above) against scipy's eigh_tridiagonal on the same
    tridiagonal B: eigenvalues within 1e-12 |B|, modes within 1e-10 in the
    W-norm they are orthonormal in, each made positive at its first entry
    above 1e-3 of its largest, and W-orthonormal to 1e-13."""
    from scipy.linalg import eigh_tridiagonal

    op = OPERATORS[name]
    basis = eigendecompose(op, n_modes, n_grid)
    norms = []

    def reference(d, e, m, floor):
        norms.append(float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e))))
        return eigh_tridiagonal(d, e, select="i", select_range=(0, m - 1))

    monkeypatch.setattr(spectral, "_lowest_eigenpairs", reference)
    ref = eigendecompose(op, n_modes, n_grid)
    w = basis.weights[:, None]
    assert np.max(np.abs(basis.lambdas - ref.lambdas)) <= 1e-12 * norms[0]
    big = np.abs(basis.modes) > 1e-3 * np.max(np.abs(basis.modes), axis=0)
    assert (basis.modes[np.argmax(big, axis=0), np.arange(n_modes)] > 0.0).all()
    assert np.max(np.sqrt(np.sum(w * (basis.modes - ref.modes) ** 2, axis=0))) <= 1e-10
    gram = basis.modes.T @ (w * basis.modes)
    assert np.max(np.abs(gram - np.eye(n_modes))) <= 1e-13


def test_eigensolver_that_does_not_converge_raises(monkeypatch):
    """The block iteration names the grid and the mode count when its
    residuals do not reach the rounding floor in _MAX_SWEEPS sweeps."""
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError, match="n_grid=2001, M=4"):
        eigendecompose(OPERATORS["robin"], 4, 2001)


def test_eigenvalue_h2_convergence():
    exact = 9.0  # Neumann mode n=4 on (0, pi)
    e1 = abs(neumann_basis(5, 401).lambdas[3] - exact)
    e2 = abs(neumann_basis(5, 801).lambdas[3] - exact)
    assert 3.0 < e1 / e2 < 5.0


def test_orthonormality():
    b = eigendecompose(
        EllipticOperator(2.0, p=lambda x: 1.0 + 0.5 * x, c=lambda x: -x, sigma=(0.3, 2.0)),
        16,
        501,
    )
    G = b.modes.T @ (b.weights[:, None] * b.modes)
    assert np.max(np.abs(G - np.eye(16))) < 1e-10


def test_first_mode_one_signed():
    b = eigendecompose(
        EllipticOperator(1.0, p=lambda x: 1.0 + x * x, c=lambda x: -np.sin(x), sigma=(1.0, 0.0)),
        8,
        301,
    )
    phi1 = b.modes[:, 0]
    mid_sign = np.sign(phi1[phi1.size // 2])
    assert np.min(phi1 * mid_sign) > 0.0


def test_project_synthesize_roundtrip():
    b = neumann_basis(12, 601)
    e3 = np.zeros(12)
    e3[2] = 1.0
    f = synthesize(b, e3)
    np.testing.assert_allclose(project(b, f), e3, atol=1e-10)
    rng = np.random.default_rng(5)
    c = rng.normal(size=12)
    f = synthesize(b, c)
    np.testing.assert_allclose(project(b, f), c, atol=1e-10)


def test_project_of_x_closed_form():
    b = neumann_basis(6, 2001)
    # align mode signs with the cos((n-1)x) convention (phi_n(0) > 0)
    coeffs = project(b, b.grid) * np.sign(b.modes[0, :])
    # (x, phi_1) = pi^(3/2)/2 ; (x, phi_n) = sqrt(2/pi)((-1)^k - 1)/k^2
    want = [math.pi**1.5 / 2.0]
    for k in range(1, 6):
        want.append(math.sqrt(2.0 / math.pi) * ((-1.0) ** k - 1.0) / k**2)
    np.testing.assert_allclose(coeffs, want, atol=5e-6)


def test_self_adjointness():
    b = eigendecompose(
        EllipticOperator(1.0, p=lambda x: 1.0 + x, c=-1.0, sigma=(0.7, 0.2)),
        31,
        32,
    )
    rng = np.random.default_rng(9)
    u, v = rng.normal(size=32), rng.normal(size=32)

    def a0(f):
        return synthesize(b, b.lambdas * project(b, f))

    lhs = b.inner(a0(u), v)
    rhs = b.inner(u, a0(v))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_fractional_power():
    b = neumann_basis(6, 301, c0=1.0)
    c = np.zeros(6)
    c[1] = 1.0
    np.testing.assert_allclose(apply_fractional_power(b, 0.0, c), c)
    np.testing.assert_allclose(
        apply_fractional_power(b, 1.0, c), b.lambdas[1] * c, rtol=1e-14
    )
    rng = np.random.default_rng(2)
    v = rng.normal(size=6)
    out = apply_fractional_power(b, 0.5, v)
    assert np.linalg.norm(out) == pytest.approx(
        math.sqrt(float(np.sum(b.lambdas * v**2))), rel=1e-13
    )
    with pytest.raises(ValueError):
        apply_fractional_power(b, -0.5, v)


def test_negative_lambda_raises():
    # large positive reaction forced through a negative shift is rejected at
    # validation; instead drive lambda_1 < 0 with large Robin... not possible
    # (sigma >= 0 keeps A_0 nonnegative), so check the c <= 0 guard instead
    with pytest.raises(ValueError):
        eigendecompose(EllipticOperator(1.0, c=0.5, c0=0.0), 4, 64)


@pytest.mark.parametrize("p", [float("nan"), lambda x: np.nan * x, lambda x: np.inf + 0 * x],
                         ids=["nan", "nan-callable", "inf-callable"])
def test_non_finite_p_is_refused_by_name(p):
    """A NaN or infinite p passes the positivity check (p <= 0 is False for
    NaN): it is refused as a ValueError that names p, not an overflow of
    the stiffness."""
    with pytest.raises(ValueError, match="diffusion coefficient p must be finite"):
        eigendecompose(EllipticOperator(1.0, p=p), 4, 9)


def test_p_and_c_are_called_once_on_their_points():
    """The calling rule: one call of p on the midpoints and one of c on the
    nodes, each with a 1-D array, per decomposition."""
    calls = {"p": [], "c": []}

    def p(x):
        calls["p"].append(np.shape(x))
        return 1.0 + 0.5 * np.sin(x)

    def c(x):
        calls["c"].append(np.shape(x))
        return -x

    b = eigendecompose(EllipticOperator(math.pi, p=p, c=c), 4, 9)
    assert calls == {"p": [(8,)], "c": [(9,)]}
    want = eigendecompose(
        EllipticOperator(math.pi, p=p(0.5 * (b.grid[:-1] + b.grid[1:])), c=c(b.grid)), 4, 9
    )
    np.testing.assert_array_equal(b.lambdas, want.lambdas)


def test_dimension_mismatch_and_csv(tmp_path):
    b = neumann_basis(4, 101)
    with pytest.raises(ValueError):
        project(b, np.zeros(50))
    with pytest.raises(ValueError):
        synthesize(b, np.zeros(5))
    path = tmp_path / "basis.csv"
    basis_to_csv(b, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "n,lambda" and len(rows) == 5
    n, lam = rows[1].split(",")
    assert n == "1" and abs(float(lam) - b.lambdas[0]) == 0.0


def test_tail_energy():
    b = neumann_basis(4, 401)
    in_span = synthesize(b, np.array([1.0, -2.0, 0.5, 0.0]))
    assert b.tail_energy(in_span) < 1e-10
    assert b.tail_energy(np.cos(7 * b.grid)) > 0.9


def test_transforms_act_on_the_last_axis():
    """project, synthesize and apply_a0 act on the last axis of any stack:
    each row of a (2, 3, n_grid) stack gets what it gets alone."""
    b = eigendecompose(
        EllipticOperator(2.0, p=lambda x: 1.0 + x, c=-0.5, sigma=(0.7, 0.2)), 9, 17
    )
    rng = np.random.default_rng(3)
    U = rng.normal(size=(2, 3, 17))
    C = project(b, U)
    assert C.shape == (2, 3, 9) and synthesize(b, C).shape == U.shape
    np.testing.assert_allclose(C[1, 2], project(b, U[1, 2]), rtol=0, atol=1e-14)
    np.testing.assert_allclose(synthesize(b, C)[1, 2], synthesize(b, C[1, 2]), atol=1e-14)
    np.testing.assert_allclose(apply_a0(b, U)[1, 2], apply_a0(b, U[1, 2]), atol=1e-13)
    with pytest.raises(ValueError, match="field has 16 samples, grid has 17"):
        project(b, U[..., :16])
    with pytest.raises(ValueError, match="got 8 coefficients for 9 modes"):
        synthesize(b, C[..., :8])


def test_apply_a0_is_the_operator_and_c0_its_shift():
    """A_0 of the identity is its dense matrix (transposed): it maps each
    mode to lambda times the mode, and the basis carries the shift c0 that
    the operator's sampler gives."""
    op = EllipticOperator(1.0, p=lambda x: 1.0 + x * x, c=lambda x: -np.sin(x),
                          sigma=(1.0, 0.0))
    b = eigendecompose(op, 12, 40)
    A0 = apply_a0(b, np.eye(40)).T
    np.testing.assert_allclose(A0 @ b.modes, b.modes * b.lambdas, atol=1e-9 * b.lambdas[-1])
    assert b.c0 == op.coefficients(b.grid)[2]
    assert eigendecompose(EllipticOperator(1.0, c0=0.25), 4, 9).c0 == 0.25


def test_derivative_stencil():
    """Central differences inside, first-order one-sided differences at the
    two ends, on every row of a stack; exact on a linear function."""
    x = np.linspace(0.0, 2.0, 9)
    h = x[1] - x[0]
    u = np.stack([x**2, 3.0 * x - 1.0])
    du = derivative(x, u)
    np.testing.assert_allclose(du[0, 1:-1], (u[0, 2:] - u[0, :-2]) / (2 * h), rtol=1e-14)
    np.testing.assert_allclose(du[0, [0, -1]], [(u[0, 1] - u[0, 0]) / h,
                                                (u[0, -1] - u[0, -2]) / h], rtol=1e-14)
    np.testing.assert_allclose(du[1], 3.0, rtol=1e-14)
