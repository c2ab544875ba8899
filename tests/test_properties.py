"""Property tests (hypothesis) for invariants the solvers rely on."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdiff.fracops import TimeGrid
from fracdiff.linsolve import ModalPropagator
from fracdiff.mlf import ml_neg_vec
from fracdiff.semilinear import SemilinearProblem, SemilinearTerm, monotone_step
from fracdiff.spectral import EllipticOperator, eigendecompose

SETTINGS = settings(max_examples=15, deadline=None, database=None)


def full_basis(n_grid):
    return eigendecompose(EllipticOperator(math.pi, c0=0.0), n_grid, n_grid)


@SETTINGS
@given(
    alpha=st.floats(0.3, 0.9),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 1.0),
)
def test_monotone_step_preserves_order(alpha, seed, spread):
    """On a full basis the shifted sweep map is order-preserving: lower <=
    upper node-wise gives L lower <= L upper to rounding, for arbitrary
    (even non-smooth) histories inside the working box."""
    b = full_basis(17)
    prob = SemilinearProblem(b, alpha, 1.0 + 0.1 * np.cos(b.grid),
                             SemilinearTerm.enzyme())
    grid = TimeGrid.uniform(1.0, 12)
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, (len(grid), b.grid.size))
    upper = lower + spread * rng.uniform(0.0, 1.0, lower.shape)
    gap = (monotone_step(upper, prob, grid).fields()
           - monotone_step(lower, prob, grid).fields())
    assert float(np.min(gap)) >= -1e-12


@SETTINGS
@given(
    alpha=st.floats(0.05, 1.0),
    xs=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40),
)
def test_ml_neg_vec_non_increasing(alpha, xs):
    """E_{alpha,1}(-x) is completely monotone, hence non-increasing in x;
    the regimes agree to ~1e-11 relative at their seams."""
    x = np.sort(np.array(xs))
    e = ml_neg_vec(alpha, x)
    assert np.all(np.diff(e) <= 1e-11 * np.abs(e[:-1]))


@SETTINGS
@given(n=st.integers(1, 24), T=st.floats(0.1, 10.0), r=st.floats(1.0, 3.0))
def test_propagator_tables_match_grid(n, T, r):
    """A propagator's tables are those of its own grid: for any graded grid
    E is e_values at the grid's nodes, bit for bit, and the row weights of
    every node sum to the kernel moments over [0, t_i]."""
    grid = TimeGrid.graded(T, n, r)
    prop = ModalPropagator(full_basis(9), 0.6, grid)
    np.testing.assert_array_equal(prop.E, prop.e_values(grid.nodes))
    assert prop.weight_sum_check() < 1e-10
