import math

import numpy as np
import pytest

from fracdiff.fracops import (
    SampledSignal,
    TimeGrid,
    caputo_l1,
    halpha_seminorm,
    rl_integral,
)
from fracdiff.mlf import ml_neg_vec


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid([0.0])
    with pytest.raises(ValueError):
        TimeGrid([0.1, 0.5, 1.0])  # must start at 0
    with pytest.raises(ValueError):
        TimeGrid([0.0, 0.5, 0.5])  # strictly increasing
    with pytest.raises(ValueError):
        TimeGrid.graded(1.0, 8, 0.5)  # r >= 1
    g = TimeGrid.graded(2.0, 16, 2.0)
    assert g.kind == "graded" and g.T == 2.0 and g.N == 16
    assert g.nodes[8] == pytest.approx(2.0 * 0.25)


def test_uniform_label_needs_uniform_steps():
    """A uniform grid's solve reads one lag table and one FFT, which hold
    only when every step is T/N: graded nodes labelled uniform are refused
    (a 9-mode solve forced by cos 6t was off by 1.08 on them, on fields of
    size 0.43), while linspace grids and their [::2] subgrids keep the label."""
    with pytest.raises(ValueError, match="labelled uniform"):
        TimeGrid(TimeGrid.graded(1, 32, 3).nodes, kind="uniform")
    with pytest.raises(ValueError, match="labelled uniform"):
        TimeGrid([0.0, 0.5, 0.5 + 1e-9, 1.0], kind="uniform")
    for T in (0.1, 1.0, 2.0, 7.3, 30.335722430601326, 100.0):
        for N in (2, 3, 64, 482, 1000, 4096):
            fine = TimeGrid.uniform(T, N)
            assert TimeGrid(fine.nodes, kind="uniform").kind == "uniform"
            if N % 2 == 0:
                assert TimeGrid(fine.nodes[::2], kind="uniform").N == N // 2


def test_signal_validation():
    g = TimeGrid.uniform(1.0, 4)
    with pytest.raises(ValueError):
        SampledSignal(g, np.zeros(4))
    s = SampledSignal(g, np.zeros((5, 3)))
    assert s.values.shape == (5, 3)


def test_alpha_domains():
    g = TimeGrid.uniform(1.0, 8)
    s = SampledSignal(g, np.ones(9))
    for bad in (0.0, 2.0, -0.3):
        with pytest.raises(ValueError):
            rl_integral(bad, s)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            caputo_l1(bad, s)


def test_rl_constant_exact():
    g = TimeGrid.uniform(1.0, 64)
    s = SampledSignal(g, np.ones(65))
    out = rl_integral(0.5, s).values
    want = g.nodes**0.5 / math.gamma(1.5)
    np.testing.assert_allclose(out, want, atol=1e-13)


def test_rl_linear_exact():
    g = TimeGrid.graded(1.0, 64, 2.0)
    s = SampledSignal(g, g.nodes.copy())
    out = rl_integral(0.7, s).values
    want = g.nodes**1.7 / math.gamma(2.7)
    np.testing.assert_allclose(out, want, atol=1e-13)


def test_rl_semigroup_n2048():
    g = TimeGrid.uniform(1.0, 2048)
    sig = SampledSignal(g, np.sin(g.nodes))
    ab = rl_integral(0.4, rl_integral(0.6, sig)).values
    whole = rl_integral(1.0, sig).values
    assert np.max(np.abs(ab - whole)) < 1e-6


def test_rl_positivity_and_monotone_dependence():
    rng = np.random.default_rng(11)
    g = TimeGrid.graded(1.5, 128, 2.5)
    s1 = rng.uniform(0.0, 1.0, 129)
    s2 = s1 + rng.uniform(0.0, 1.0, 129)
    for alpha in (0.3, 0.9, 1.7):
        j1 = rl_integral(alpha, SampledSignal(g, s1)).values
        j2 = rl_integral(alpha, SampledSignal(g, s2)).values
        assert (j1 >= 0.0).all()
        assert (j2 - j1 >= 0.0).all()


def test_rl_vector_signal():
    g = TimeGrid.uniform(1.0, 32)
    vals = np.column_stack([np.ones(33), g.nodes])
    out = rl_integral(0.5, SampledSignal(g, vals)).values
    np.testing.assert_allclose(out[:, 0], g.nodes**0.5 / math.gamma(1.5), atol=1e-13)
    np.testing.assert_allclose(out[:, 1], g.nodes**1.5 / math.gamma(2.5), atol=1e-13)


def test_caputo_constant_zero():
    g = TimeGrid.uniform(1.0, 64)
    out = caputo_l1(0.5, SampledSignal(g, np.full(65, 3.7))).values
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_caputo_talpha_identity(alpha):
    g = TimeGrid.uniform(1.0, 2048)
    d = caputo_l1(alpha, SampledSignal(g, g.nodes**alpha)).values
    mask = g.nodes >= 0.1
    assert np.max(np.abs(d[mask] - math.gamma(1.0 + alpha))) < 3e-4


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_caputo_mittag_leffler_identity(alpha):
    # d_t^a E_{a,1}(-t^a) = -E_{a,1}(-t^a); graded grid resolves the t^a layer
    g = TimeGrid.graded(1.0, 2048, 2.0 / alpha)
    E = ml_neg_vec(alpha, g.nodes**alpha)
    d = caputo_l1(alpha, SampledSignal(g, E)).values
    mask = g.nodes >= 0.1
    assert np.max(np.abs(d[mask] + E[mask])) < 5e-4


def test_caputo_inverts_rl():
    g = TimeGrid.uniform(1.0, 1024)
    sig = g.nodes**2
    rec = caputo_l1(0.5, rl_integral(0.5, SampledSignal(g, sig))).values
    assert np.max(np.abs(rec - sig)) < 1e-4


def test_halpha_zero_signal():
    g = TimeGrid.uniform(1.0, 32)
    assert halpha_seminorm(0.5, SampledSignal(g, np.zeros(33))) == 0.0
    assert halpha_seminorm(0.5, SampledSignal(g, 1e-6 * g.nodes)) > 0.0


def test_halpha_precondition():
    g = TimeGrid.uniform(1.0, 32)
    with pytest.raises(ValueError):
        halpha_seminorm(0.5, SampledSignal(g, np.ones(33)))


def test_halpha_of_rl_of_one():
    g = TimeGrid.uniform(1.0, 2048)
    ja = rl_integral(0.6, SampledSignal(g, np.ones(2049)))
    assert halpha_seminorm(0.6, ja) == pytest.approx(math.sqrt(g.T), abs=5e-4)


def test_halpha_of_t():
    g = TimeGrid.uniform(1.0, 2048)
    alpha = 0.4
    got = halpha_seminorm(alpha, SampledSignal(g, g.nodes.copy()))
    want = math.sqrt(1.0 / (3.0 - 2.0 * alpha)) / math.gamma(2.0 - alpha)
    assert got == pytest.approx(want, rel=1e-6)
