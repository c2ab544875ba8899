import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fracdiff import mlf
from fracdiff.mlf import (
    TAYLOR_CUT,
    MLParams,
    deep_cut,
    kernel_weights_from_e,
    ml,
    ml_e1_bound_check,
    ml_neg_vec,
)
from oracles import ml_oracle, quad_kernel_moment


def test_params_validation():
    with pytest.raises(ValueError):
        MLParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MLParams(1.5, 1.0)
    with pytest.raises(ValueError):
        MLParams(0.5, 0.0)
    with pytest.raises(ValueError):
        ml(MLParams(0.5, 1.0), float("nan"))


def test_ml_at_zero():
    assert ml(MLParams(0.5, 1.0), 0.0) == 1.0


def test_ml_exp_case():
    assert ml(MLParams(1.0, 1.0), -2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_ml_erfc_identity():
    # E_{1/2,1}(-x) = exp(x^2) erfc(x)
    expected = math.exp(1.0) * math.erfc(1.0)  # 0.42758357615580705...
    assert ml(MLParams(0.5, 1.0), -1.0) == pytest.approx(expected, rel=1e-12)


def test_ml_deep_negative_vs_oracle():
    val = ml(MLParams(0.5, 0.5), -10.0)
    assert val == pytest.approx(ml_oracle(0.5, 0.5, -10.0), rel=1e-12)


def test_exp_agreement_range():
    for z in np.linspace(-30.0, 5.0, 36):
        assert ml(MLParams(1.0, 1.0), float(z)) == pytest.approx(
            math.exp(z), rel=1e-12, abs=1e-12
        )


def test_overflow_positive():
    with pytest.raises(OverflowError):
        ml(MLParams(0.5, 1.0), 1.0e6)


def test_monotone_decreasing_on_negative_axis():
    xs = np.concatenate([[0.0], np.logspace(-4, 5, 300)])
    for alpha in (0.3, 0.5, 0.8):
        vals = ml_neg_vec(alpha, xs)
        assert (vals > 0.0).all()
        assert (np.diff(vals) < 0.0).all()


def test_seam_continuity():
    # values just below/above each regime switch agree to 1e-10
    for alpha, beta in ((0.35, 1.0), (0.6, 0.7), (0.9, 1.2), (0.5, 1.0), (0.25, 0.5)):
        for cut in (TAYLOR_CUT, deep_cut(alpha)):
            lo = ml(MLParams(alpha, beta), -(cut * (1.0 - 1e-12)))
            hi = ml(MLParams(alpha, beta), -(cut * (1.0 + 1e-12)))
            assert lo == pytest.approx(hi, rel=1e-10)


@pytest.mark.parametrize(
    "alpha,beta",
    [(0.05, 1.0), (0.3, 1.0), (0.5, 1.0), (0.9, 1.0), (0.99, 1.0),
     (0.3, 0.3), (0.75, 0.75), (0.5, 1.5), (0.25, 0.5), (0.5, 2.0)],
)
def test_asymptotic_regime_vs_oracle(alpha, beta):
    # the Horner sum's length is fixed at deep_cut; 1/Gamma(beta - alpha k)
    # vanishes at a pole for every pair but (0.3, 1), (0.9, 1) and (0.99, 1)
    xs = np.array([deep_cut(alpha) * (1.0 + 1e-9), 1.5 * deep_cut(alpha), 1e3, 1e5])
    for x, got in zip(xs, ml_neg_vec(alpha, xs, beta)):
        assert got == pytest.approx(ml_oracle(alpha, beta, -float(x)), rel=1e-13)


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_contour_regime_vs_oracle(alpha):
    # just above the Taylor cut, mid-range and just below the deep cut, for
    # beta = alpha, 1 and 2 (the hat-weight transform) to 1e-13, and for
    # beta = 3, the accuracy the docs state, to 1e-12; relative to max(1, |E|)
    cut = deep_cut(alpha)
    xs = np.array([TAYLOR_CUT * (1.0 + 1e-9), 0.5 * (TAYLOR_CUT + cut), cut * (1.0 - 1e-9)])
    for beta, bound in ((alpha, 1e-13), (1.0, 1e-13), (2.0, 1e-13), (3.0, 1e-12)):
        for x, got in zip(xs, ml_neg_vec(alpha, xs, beta)):
            want = ml_oracle(alpha, beta, -float(x))
            assert abs(got - want) <= bound * max(1.0, abs(want)), (beta, x, got, want)


def test_blocked_contour_equals_one_evaluation():
    """The contour regime taken block by block is bitwise one evaluation of
    all points, below one block and for several blocks plus a remainder.
    It runs with BLAS on one thread, whose sums do not depend on how the
    points are split."""
    code = textwrap.dedent("""
        import numpy as np
        from fracdiff import mlf

        block = mlf._CONTOUR_BLOCK
        for n in (1, block // 2, 3 * block + 17):
            x = np.random.default_rng(n).uniform(mlf.TAYLOR_CUT, mlf.deep_cut(0.4), n)
            blocked = mlf._contour(0.4, 0.7, x)
            mlf._CONTOUR_BLOCK = n
            assert np.array_equal(blocked, mlf._contour(0.4, 0.7, x)), n
            mlf._CONTOUR_BLOCK = block
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlf.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    one = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, **one, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr


def test_contour_one_point_blocks_equal_one_evaluation(monkeypatch):
    # blocks of a single point, as a remainder of one leaves, sum their nodes
    # in the order of a wide block, whatever the BLAS thread count
    x = np.random.default_rng(5).uniform(TAYLOR_CUT, deep_cut(0.4), 2 * mlf._CONTOUR_BLOCK + 1)
    whole = mlf._contour(0.4, 0.7, x)
    monkeypatch.setattr(mlf, "_CONTOUR_BLOCK", 1)
    assert np.array_equal(mlf._contour(0.4, 0.7, x), whole)


def test_taylor_term_limit():
    # about 1.8e5 terms would be needed at alpha = 1e-4: raise instead of
    # returning the unconverged partial sum
    with pytest.raises(ValueError, match=r"E_\(0\.0001,1\.0\).*x_max=1\.0"):
        ml_neg_vec(1e-4, np.array([1.0]))
    got = ml_neg_vec(2e-3, np.array([1.0]))[0]
    assert got == pytest.approx(ml_oracle(2e-3, 1.0, -1.0), rel=1e-12)


def test_vec_matches_scalar():
    xs = np.concatenate([[0.0], np.logspace(-3, 6, 40)])
    for alpha, beta in ((0.3, 1.0), (0.75, 0.75)):
        vals = ml_neg_vec(alpha, xs, beta)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(ml(MLParams(alpha, beta), -float(x)), rel=5e-14)


def test_bound_check():
    w = ml_e1_bound_check(0.5, 0.0)
    assert w["value"] == 1.0 and w["bound"] >= 1.0 and w["ok"]
    w = ml_e1_bound_check(0.3, 100.0)
    assert w["ok"] and w["value"] <= w["C"] / 101.0
    w = ml_e1_bound_check(0.9, 1.0)
    assert 0.0 < w["value"] < 1.0 and w["ok"]
    with pytest.raises(ValueError):
        ml_e1_bound_check(1.0, 1.0)
    with pytest.raises(ValueError):
        ml_e1_bound_check(0.5, -1.0)


def moments(alpha, lam, taus):
    """The kernel moments over the consecutive intervals of taus, as the
    propagators compute them: kernel_weights_from_e over ml_neg_vec."""
    taus = np.asarray(taus, dtype=float)
    E = ml_neg_vec(alpha, lam * taus**alpha)
    return kernel_weights_from_e(alpha, lam, taus, E)


def test_kernel_weight_lambda_zero():
    alpha, t = 0.7, 1.3
    assert moments(alpha, 0.0, [0.0, t])[0] == pytest.approx(
        t**alpha / math.gamma(alpha + 1.0), rel=1e-14
    )


def test_kernel_weight_closed_form():
    got = moments(0.5, 1.0, [0.0, 1.0])[0]
    want = 1.0 - ml(MLParams(0.5, 1.0), -1.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert abs(got - 0.5724164038) < 5e-8


@pytest.mark.parametrize(
    "alpha,lam,a,b",
    [(0.5, 1.0, 0.0, 1.0), (0.3, 4.0, 0.2, 0.9), (0.8, 0.5, 0.0, 2.5), (0.6, 20.0, 0.1, 0.4)],
)
def test_kernel_weight_vs_quadrature(alpha, lam, a, b):
    got = moments(alpha, lam, [a, b])[0]
    want = quad_kernel_moment(alpha, lam, a, b)
    assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_kernel_weight_additivity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        alpha = rng.uniform(0.1, 1.0)
        lam = rng.uniform(0.0, 50.0)
        a, b, c = np.sort(rng.uniform(0.0, 3.0, size=3))
        if b - a < 1e-6 or c - b < 1e-6:
            continue
        w_ab = moments(alpha, lam, [a, b])[0]
        w_bc = moments(alpha, lam, [b, c])[0]
        w_ac = moments(alpha, lam, [a, c])[0]
        assert w_ab + w_bc == pytest.approx(w_ac, rel=1e-12, abs=1e-15)


def test_kernel_weight_vec_consistency():
    """The moments of a table of intervals are those of each interval
    alone, and nonnegative."""
    taus = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    w = moments(0.6, 3.0, taus)
    for i in range(4):
        assert w[i] == pytest.approx(moments(0.6, 3.0, taus[i:i + 2])[0])
    assert (w >= 0.0).all()


def test_gamma_helpers_match_scipy():
    """mlf's 1/Gamma and log Gamma from the math module agree with
    scipy.special to rounding, with 1/Gamma = 0 at the poles and where
    Gamma overflows, and the cached coefficient vectors are read-only."""
    from scipy.special import gammaln, rgamma

    x = np.concatenate([np.linspace(-127.75, 19.25, 1001), [0.0, -1.0, -50.0, 171.5, 200.0]])
    np.testing.assert_allclose(mlf._rgamma(x), rgamma(x), rtol=1e-13, atol=0.0)
    y = np.linspace(0.01, 150.0, 1000)
    np.testing.assert_allclose(mlf._lgamma(y), gammaln(y), rtol=1e-13, atol=1e-15)
    k, c = mlf._taylor_coefficients(0.5, 1.0)
    assert not (k.flags.writeable or c.flags.writeable)
    assert not mlf._asymptotic_coefficients(0.5, 1.0).flags.writeable
