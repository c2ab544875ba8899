"""Seeded steps and rounds of the three benchmark workloads.

Every call into fracdiff is a ``Step``: ``prepare()`` writes its inputs
(untimed), ``run()`` is the timed call, and ``check(output)`` verifies the
result (untimed) and raises ``CheckFailed`` on a wrong answer.  Step ``i`` of
a workload depends only on ``(seed, i)``.  One benchmark operation is a
round: one step of each kind of the workload's fixed cycle, so every
operation does the same mix of work and its time does not jump between the
costs of single kinds.  Round ``r`` depends only on ``(seed, r)``, so a run
can be replayed exactly, which the traced phase does.

Costs depend mostly on the fractional order alpha, so alpha follows a
Kronecker (golden-ratio) sequence with a seeded offset: every prefix of the
step stream covers its alpha range evenly, and two seeds differ only in
where the sequence starts.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from fracdiff import cli
from fracdiff.fracops import TimeGrid
from fracdiff.linsolve import LinearProblem, solve_linear
from fracdiff.mlf import TAYLOR_CUT, deep_cut, ml_neg_vec
from fracdiff.semilinear import (
    BracketPair,
    SemilinearProblem,
    SemilinearTerm,
    monotone_iterate,
    picard_solve,
)
from fracdiff.spectral import EllipticOperator, eigendecompose, project
from fracdiff.systems import (
    MultiOrderSystem,
    SemilinearPair,
    nonneg_verify,
    pair_nonneg_verify,
    picard_system_solve,
    semilinear_pair_solve,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class CheckFailed(Exception):
    """A step returned, but its output is wrong."""


@dataclass
class Step:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Callable[[], None] = lambda: None


def _kronecker(seed, salt, i, lo, hi):
    offset = np.random.default_rng([seed, salt]).uniform()
    return lo + (hi - lo) * ((offset + i * _GOLDEN) % 1.0)


def _ml_reference(alpha, x):
    """E_{alpha,1}(-x) by mpmath Talbot inversion of s^(alpha-1)/(s^alpha + x)
    at t = 1: another contour and other arithmetic than fracdiff.mlf, so it
    is independent evidence for each of its regimes."""
    if x == 0.0:
        return 1.0
    with mpmath.mp.workdps(30):
        a, mx = mpmath.mpf(alpha), mpmath.mpf(x)
        return float(mpmath.invertlaplace(
            lambda s: s ** (a - 1) / (s**a + mx), 1, method="talbot"
        ))


def _full_basis(n_grid, c0=None):
    return eigendecompose(EllipticOperator(math.pi, c0=c0), n_grid, n_grid)


# -- graded ------------------------------------------------------------------

GRADED_SIZES = {"n_grid": 17, "N": (64, 88, 112), "T": 1.0, "alpha": (0.3, 0.9)}


def _graded_step(seed, i):
    rng = np.random.default_rng([seed, 1, i])
    # step k of round r takes its alpha from the k-th third of the range, so
    # every round does the same mix of work and costs about the same
    r, k = divmod(i, len(GRADED_SIZES["N"]))
    lo, hi = GRADED_SIZES["alpha"]
    alpha = _kronecker(seed, 1, r, lo + (hi - lo) * k / 3, lo + (hi - lo) * (k + 1) / 3)
    N = GRADED_SIZES["N"][k]
    n_grid = GRADED_SIZES["n_grid"]
    a0, a1, a2 = rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)
    f0, f1 = rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.5)

    def initial(x):
        return a0 + a1 * np.cos(x) + a2 * np.cos(2.0 * x)

    def forcing(x, t=0.0):  # constant in time
        return f0 + f1 * np.cos(x)

    def run():
        basis = _full_basis(n_grid)
        prob = LinearProblem(basis, alpha, initial(basis.grid), forcing=forcing)
        grid = TimeGrid.graded(GRADED_SIZES["T"], N, (2.0 - alpha) / alpha)
        return solve_linear(prob, grid)

    def check(traj):
        basis = traj.basis
        lam = basis.lambdas
        a_m, f_m = project(basis, initial(basis.grid)), project(basis, forcing(basis.grid))
        args = np.outer(traj.grid.nodes**alpha, lam)
        E = ml_neg_vec(alpha, args)
        exact = E * a_m + (1.0 - E) / lam * f_m
        err = float(np.max(np.abs(traj.modal - exact)))
        scale = max(1.0, float(np.max(np.abs(traj.modal))))
        if not err <= 1e-9 * scale:
            raise CheckFailed(f"closed-form modal error {err:.3e} > {1e-9 * scale:.3e}")
        # every eighth step: mpmath spot check of one argument it used,
        # taking the Taylor, contour and asymptotic regimes in turn
        if i % 8:
            return
        flat = args.ravel()
        regime = (
            flat <= TAYLOR_CUT,
            (flat > TAYLOR_CUT) & (flat < deep_cut(alpha)),
            flat >= deep_cut(alpha),
        )[(i // 8) % 3]
        vals = flat[regime] if regime.any() else flat
        z = float(vals[rng.integers(vals.size)])
        got = float(ml_neg_vec(alpha, np.array([z]))[0])
        want = _ml_reference(alpha, z)
        if not abs(got - want) <= 1e-10:
            raise CheckFailed(f"E_{alpha:.4f},1(-{z:.6g}) = {got!r}, mpmath {want!r}")

    return Step("graded_solve_linear", run, check)


# -- fixed_point ----------------------------------------------------------------

FIXED_POINT_SIZES = {
    "system": {"n_grid": 33, "N": 64, "T": 1.0, "components": 3},
    "picard": {"n_grid": 33, "N": 96, "T": 1.0},
    "monotone": {"n_grid": 21, "N": 40, "T": 1.0, "k_max": 60},
    "pair": {"n_grid": 33, "N": 64, "T": 0.5},
}

# cooperative pair reactions of the four sign cases (coefficients seeded)
_PAIR_CASES = (
    lambda c, d: (lambda u, v: c * v**2, lambda u, v: d * u**2),
    lambda c, d: (lambda u, v: c * v**2, lambda u, v: d * u * (1.0 + v**2)),
    lambda c, d: (lambda u, v: c * v * (1.0 + u**2), lambda u, v: d * u**2),
    lambda c, d: (lambda u, v: c * v * (1.0 + u**2), lambda u, v: d * u * (1.0 + v**2)),
)


def _system_step(seed, i, rng):
    s = FIXED_POINT_SIZES["system"]
    n = s["components"]
    alphas = sorted([rng.uniform(0.88, 0.92), rng.uniform(0.93, 0.95), rng.uniform(0.96, 0.99)])
    bases = [rng.uniform(0.2, 1.0) for _ in range(n)]
    wiggles = [rng.uniform(0.0, 0.8) for _ in range(n)]
    couplings = [
        [rng.uniform(0.5, 1.5) if j != k else -rng.uniform(0.0, 0.02) for k in range(n)]
        for j in range(n)
    ]

    def run():
        basis = _full_basis(s["n_grid"])
        initials = [
            b + b * w * np.cos((j + 1) * basis.grid)
            for j, (b, w) in enumerate(zip(bases, wiggles))
        ]
        system = MultiOrderSystem(basis, alphas, initials, couplings=couplings)
        grid = TimeGrid.uniform(s["T"], s["N"])
        return system, grid, picard_system_solve(system, grid, M1=0.1, tol=1e-12,
                                                 max_sweeps=400)

    def check(out):
        system, grid, res = out
        verdict = nonneg_verify(system, res["trajectories"], grid)
        if verdict["verdict"] != "PASS":
            raise CheckFailed(f"system nonneg verdict {verdict}")

    return Step("picard_system_solve", run, check)


def _picard_step(seed, i, rng):
    s = FIXED_POINT_SIZES["picard"]
    alpha = _kronecker(seed, 2, i // 4, 0.4, 0.8)
    c = rng.uniform(0.05, 0.3)

    def run():
        basis = _full_basis(s["n_grid"], c0=0.0)
        prob = SemilinearProblem(basis, alpha, 1.0 + c * np.cos(basis.grid),
                                 SemilinearTerm.enzyme())
        return picard_solve(prob, TimeGrid.uniform(s["T"], s["N"]), shift=2.0)

    def check(traj):
        # enzyme kinetics from a >= 0 keeps u >= 0; shift 2 >= Lipschitz 1
        # makes that exact on the full-basis grid
        mn = float(np.min(traj.fields()))
        if not mn >= -1e-8:
            raise CheckFailed(f"enzyme solution min {mn:.3e} < -1e-8")

    return Step("picard_solve", run, check)


def _monotone_step(seed, i, rng):
    s = FIXED_POINT_SIZES["monotone"]
    alpha = _kronecker(seed, 3, i // 4, 0.4, 0.7)
    c = rng.uniform(0.05, 0.2)

    def build():
        basis = _full_basis(s["n_grid"], c0=0.0)
        prob = SemilinearProblem(basis, alpha, 1.0 + c * np.cos(basis.grid),
                                 SemilinearTerm.enzyme())
        return prob, TimeGrid.uniform(s["T"], s["N"])

    # a + rho t^alpha is an upper solution once Gamma(alpha+1) rho >= max a''
    rho = c / math.gamma(alpha + 1.0)

    def run():
        prob, grid = build()
        pair = BracketPair(
            lambda x, t: np.zeros_like(x),
            lambda x, t: (1.0 + c * np.cos(x)) + rho * t**alpha,
        )
        return monotone_iterate(pair, prob, grid, k_max=s["k_max"], gap_tol=1e-6)

    def check(out):
        if not out["converged"]:
            raise CheckFailed(f"bracket did not close in {out['sweeps']} sweeps")
        prob, grid = build()
        ref = picard_solve(prob, grid, shift=out["M"] + 1.0)
        err = float(np.max(np.abs(out["u_star"].fields() - ref.fields())))
        if not err < 1e-6:
            raise CheckFailed(f"monotone limit differs from picard by {err:.3e}")

    return Step("monotone_iterate", run, check)


def _pair_step(seed, i, rng):
    s = FIXED_POINT_SIZES["pair"]
    case = (i // 4) % 4
    alpha = _kronecker(seed, 4, i // 4, 0.4, 0.8)
    c, d = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    au, av = rng.uniform(0.2, 0.4), rng.uniform(0.1, 0.3)

    def run():
        basis = _full_basis(s["n_grid"])
        x = basis.grid
        f, g = _PAIR_CASES[case](c, d)
        pair = SemilinearPair(basis, alpha, f, g, au + 0.1 * np.cos(x),
                              av + 0.1 * np.cos(2.0 * x))
        return pair, semilinear_pair_solve(pair, TimeGrid.uniform(s["T"], s["N"]),
                                           shift=2.0)

    def check(out):
        pair, solution = out
        verdict = pair_nonneg_verify(pair, solution)
        if verdict["verdict"] != "PASS":
            raise CheckFailed(f"pair nonneg verdict {verdict['verdict']}: {verdict}")

    return Step("semilinear_pair_solve", run, check)


_FIXED_POINT_CYCLE = (_system_step, _picard_step, _monotone_step, _pair_step)


def _fixed_point_step(seed, i):
    rng = np.random.default_rng([seed, 2, i])
    return _FIXED_POINT_CYCLE[i % len(_FIXED_POINT_CYCLE)](seed, i, rng)


# -- scenarios ---------------------------------------------------------------

SCENARIO_SIZES = {
    "converge_levels": 3,
    "linear": {"n_grid": 25, "N": 48, "T": 1.0},
    "semilinear": {"n_grid": 17, "N": 24, "T": 1.0, "converge_N": 12},
    "system": {"n_grid": 17, "N": 24, "T": 1.0},
    "pair": {"n_grid": 25, "N": 40, "T": 0.5},
    "envelope": {"n_grid": 41, "N": 256, "T": (120.0, 180.0)},
}


def _f(v):
    return f"{v:.6f}"


def _ini(name, kind, space, time, problem, properties):
    lines = [f"[scenario]\nname = {name}\nkind = {kind}\nseed = 42\n"]
    for title, body in (("space", space), ("time", time), ("problem", problem)):
        lines.append(f"[{title}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
        lines.append("")
    for pname, body in properties.items():
        lines.append(f"[property:{pname}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
        lines.append("")
    return "\n".join(lines)


def _space(n_grid, **extra):
    return {"length": repr(math.pi), "n_grid": n_grid, "n_modes": n_grid, **extra}


def _linear_ini(name, seed, cycle, rng):
    s = SCENARIO_SIZES["linear"]
    q = rng.uniform(0.1, 0.5)
    a0 = rng.uniform(0.5, 1.0)
    # reaction -q (1 + cos x / 2) with shift 1.5 q keeps (Q + shift) u >= 0
    # for u >= 0, so the full-basis march preserves the sign exactly
    problem = {
        "alpha": _f(_kronecker(seed, 5, cycle, 0.3, 0.9)),
        "initial": f"{_f(a0)} + {_f(rng.uniform(0.0, 0.9) * a0)}*cos(x)",
        "reaction": f"-{_f(q)}*(1 + 0.5*cos(x))",
        "forcing": f"{_f(rng.uniform(0.1, 0.5))}*(1 + cos({1 + cycle % 2}*x))*exp(-t)",
        "shift": _f(1.5 * q),
    }
    return _ini(name, "linear", _space(s["n_grid"]), {"T": s["T"], "N": s["N"]}, problem,
                {"positivity": {"type": "nonneg", "tol": "1e-8"}})


def _semilinear_ini(name, seed, cycle, rng, N):
    s = SCENARIO_SIZES["semilinear"]
    k = rng.uniform(0.5, 1.5)
    c = rng.uniform(0.05, 0.2)
    problem = {
        "alpha": _f(_kronecker(seed, 6, cycle, 0.4, 0.8)),
        "initial": f"1 + {_f(c)}*cos(x)",
        "term": f"{_f(k)}*enzyme(u)",
        "solver_shift": _f(1.0 + 1.1 * k),
    }
    props = {
        "positivity": {"type": "nonneg", "tol": "1e-8"},
        "barrier": {"type": "bracket", "lower": "0", "upper_mode": "power_barrier",
                    "tol": "1e-8"},
        # f - e <= f and a smaller initial state: the comparison hypotheses hold
        "ordering": {"type": "comparison",
                     "initial2": f"{_f(1.0 - rng.uniform(0.0, 0.5))} + {_f(c)}*cos(x)",
                     "term2": f"{_f(k)}*enzyme(u) - {_f(rng.uniform(0.0, 0.5))}",
                     "tol": "1e-8"},
    }
    return _ini(name, "semilinear", _space(s["n_grid"]), {"T": s["T"], "N": N},
                problem, props)


def _system_ini(name, seed, cycle, rng):
    s = SCENARIO_SIZES["system"]
    alphas = sorted([rng.uniform(0.88, 0.92), rng.uniform(0.93, 0.95), rng.uniform(0.96, 0.99)])
    initials = []
    for j in range(3):
        b = rng.uniform(0.2, 1.0)
        initials.append(f"{_f(b)} + {_f(b * rng.uniform(0.0, 0.8))}*cos({j + 1}*x)")
    rows = [
        ",".join(_f(rng.uniform(0.5, 1.5) if j != k else -rng.uniform(0.0, 0.1))
                 for k in range(3))
        for j in range(3)
    ]
    forcings = [f"{_f(rng.uniform(0.0, 0.3))}*(1 + cos(x))*exp(-t)" for _ in range(3)]
    problem = {
        "alphas": ",".join(_f(a) for a in alphas),
        "initials": "; ".join(initials),
        "couplings": "; ".join(rows),
        "forcings": "; ".join(forcings),
    }
    return _ini(name, "system", _space(s["n_grid"]), {"T": s["T"], "N": s["N"]}, problem,
                {"positivity": {"type": "nonneg", "tol": "1e-8"}})


_PAIR_TEXT = (
    ("{c}*v^2", "{d}*u^2"),
    ("{c}*v^2", "{d}*u*(1 + v^2)"),
    ("{c}*v*(1 + u^2)", "{d}*u^2"),
    ("{c}*v*(1 + u^2)", "{d}*u*(1 + v^2)"),
)


def _pair_ini(name, seed, cycle, rng):
    s = SCENARIO_SIZES["pair"]
    f, g = _PAIR_TEXT[cycle % 4]
    c, d = _f(rng.uniform(0.5, 1.5)), _f(rng.uniform(0.5, 1.5))
    problem = {
        "alpha": _f(_kronecker(seed, 7, cycle, 0.4, 0.8)),
        "f": f.format(c=c, d=d),
        "g": g.format(c=c, d=d),
        "initial_u": f"{_f(rng.uniform(0.2, 0.4))} + 0.1*cos(x)",
        "initial_v": f"{_f(rng.uniform(0.1, 0.3))} + 0.1*cos(2*x)",
        "solver_shift": "2.0",
    }
    return _ini(name, "pair", _space(s["n_grid"]), {"T": s["T"], "N": s["N"]}, problem,
                {"positivity": {"type": "nonneg", "tol": "1e-8"}})


def _envelope_ini(name, seed, cycle, rng):
    s = SCENARIO_SIZES["envelope"]
    a0 = rng.uniform(0.3, 0.7)
    problem = {
        "alpha": _f(_kronecker(seed, 8, cycle, 0.55, 0.8)),
        "initial": f"{_f(a0)} + {_f(rng.uniform(0.0, 0.5) * a0)}*cos(x)",
    }
    time = {"T": _f(rng.uniform(*s["T"])), "N": s["N"]}
    space = _space(s["n_grid"], c0=_f(rng.uniform(1.0, 2.0)))
    props = {"envelope": {"type": "envelope", "u_inf": "0", "tol": "1e-8",
                          "slope_tol": "0.15"}}
    return _ini(name, "linear", space, time, problem, props)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class _CliFailed(Exception):
    """The CLI reported an error (exit code 2)."""


def _cli_op(kind, path, text, argv, check_stdout):
    def prepare():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def run():
        code, out, err = _cli(argv)
        if code == 2:
            raise _CliFailed(err.strip())
        return code, out

    def check(result):
        code, out = result
        if code != 0:
            raise CheckFailed(f"exit code {code}: {out.strip().splitlines()[-1:]}")
        check_stdout(out)

    return Step(kind, run, check, prepare)


def _check_report(out):
    verdicts = [line for line in out.splitlines() if line.startswith("property ")]
    if not verdicts:
        raise CheckFailed("report lists no property verdicts")
    for line in verdicts:
        verdict = line.split("]: ", 1)[1].split(" ", 1)[0]
        if verdict not in ("PASS", "NOT-APPLICABLE"):
            raise CheckFailed(line)


def _check_converge(out):
    rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
    errors = [float(r[1]) for r in rows]
    if len(errors) < 3 or not all(b < a for a, b in zip(errors, errors[1:])):
        raise CheckFailed(f"converge errors do not decrease: {errors}")


def _semilinear_coarse_ini(name, seed, cycle, rng):
    return _semilinear_ini(name, seed, cycle, rng, SCENARIO_SIZES["semilinear"]["converge_N"])


def _semilinear_fine_ini(name, seed, cycle, rng):
    return _semilinear_ini(name, seed, cycle, rng, SCENARIO_SIZES["semilinear"]["N"])


# (step kind, file generator) in cycle order; a converge step follows the
# run of the same problem.  There is no linear converge step: the id(grid)
# table-cache defect (see grid_cache_probe) makes it raise at random.
_SCENARIO_CYCLE = (
    ("run_linear", _linear_ini),
    ("run_semilinear", _semilinear_fine_ini),
    ("converge_semilinear", _semilinear_coarse_ini),
    ("run_system", _system_ini),
    ("run_pair", _pair_ini),
    ("run_envelope", _envelope_ini),
)


def _scenario_step(seed, i, workdir):
    kind, make_ini = _SCENARIO_CYCLE[i % len(_SCENARIO_CYCLE)]
    cycle = i // len(_SCENARIO_CYCLE)
    # a converge step draws the parameters of the run before it
    j = i - 1 if kind.startswith("converge") else i
    name = f"s{i:05d}"
    text = make_ini(name, seed, cycle, np.random.default_rng([seed, 3, j]))
    path = os.path.join(workdir, f"{name}.ini")
    if kind.startswith("converge"):
        levels = str(SCENARIO_SIZES["converge_levels"])
        return _cli_op(kind, path, text, ["converge", path, "--levels", levels],
                       _check_converge)
    return _cli_op(kind, path, text, ["run", path, "--outdir", workdir], _check_report)


SIZES = {"scenarios": SCENARIO_SIZES, "graded": GRADED_SIZES,
         "fixed_point": FIXED_POINT_SIZES}

# steps per round: one of each kind of the workload's cycle
ROUND = {"scenarios": len(_SCENARIO_CYCLE), "graded": len(GRADED_SIZES["N"]),
         "fixed_point": len(_FIXED_POINT_CYCLE)}


def _step(workload, seed, i, workdir):
    if workload == "graded":
        return _graded_step(seed, i)
    if workload == "fixed_point":
        return _fixed_point_step(seed, i)
    if workload == "scenarios":
        return _scenario_step(seed, i, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload, seed, r, workdir):
    """The steps of round ``r`` of ``workload`` for ``seed``; scenario files
    go to workdir."""
    n = ROUND[workload]
    return [_step(workload, seed, n * r + k, workdir) for k in range(n)]


def grid_cache_probe():
    """Whether ``ModalPropagator.tables`` serves a grid the tables of another.

    The cache is keyed by ``id(grid)``, so a grid allocated at the address of
    a freed one gets the freed grid's tables.  Inside ``convergence_study``
    that happens only when the allocator happens to reuse the address; here
    the reuse is made on purpose, through the public API, so the answer is
    the same on every run.  Returns a short verdict and the evidence."""
    basis = _full_basis(9)
    prob = LinearProblem(basis, 0.6, np.ones(basis.grid.size))
    coarse = TimeGrid.uniform(1.0, 8)
    solve_linear(prob, coarse)
    freed = id(coarse)
    del coarse
    kept = []  # grids at other addresses stay alive, so each try is new
    for _ in range(1000):
        grid = TimeGrid.uniform(1.0, 16)
        if id(grid) == freed:
            break
        kept.append(grid)
    else:
        return {"verdict": "NOT-REPRODUCED", "detail": "no grid reused a freed address"}
    try:
        got = solve_linear(prob, grid).modal
    except Exception as exc:  # the defect shows as an exception or a wrong value
        return {"verdict": "DEFECT", "detail": f"{type(exc).__name__}: {exc}"}
    want = solve_linear(LinearProblem(basis, 0.6, np.ones(basis.grid.size)), grid).modal
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-12):
        return {"verdict": "DEFECT", "detail": "solution differs from a fresh problem's"}
    return {"verdict": "PASS", "detail": "a reused grid address got fresh tables"}
