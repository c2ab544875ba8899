"""Scenario ingestion, property verification, reports, convergence studies.

Scenario files are flat INI text (configparser).  Layout::

    [scenario]
    name = relaxation_bound
    kind = semilinear            # linear | semilinear | system | pair
    comment = free text
    seed = 42                    # used by randomized scenarios

    [space]
    length = 3.141592653589793
    n_grid = 65
    n_modes = 65                 # default n_grid (full basis)
    # optional: p, c (expression of x), sigma0, sigmaL, c0

    [time]
    T = 1.0
    N = 256
    grading = 1.0                # 1.0 = uniform, r > 1 = graded

    [problem]                    # keys depend on kind, values are expressions
    alpha = 0.5
    initial = 1 + 0.1*cos(x)
    term = enzyme(u)

    [property:barrier]           # any number of property:<name> sections
    type = bracket               # comparison|nonneg|envelope|bracket|convergence
    lower = 0
    upper_mode = power_barrier
    tol = 1e-8

Loading validates the whole file: every required key and every expression
of [problem], of the property sections and of an optional [monotone]
section (lower, upper in x, t) is checked up front, and a fault raises
ScenarioError naming the file, the section and the key.

Reports are deterministic: for a fixed scenario file and seed the report
body is byte-identical across runs (runtime lives outside the body).
"""

from __future__ import annotations

import configparser
import math
import os
import time

import numpy as np

from .expressions import ExpressionError, expression_parse
from .fracops import TimeGrid
from .linsolve import LinearProblem, sample_history, solve_linear
from .semilinear import (
    SemilinearProblem,
    SemilinearTerm,
    compare_solutions,
    decay_envelope_check,
    picard_solve,
    power_barrier_rho,
    steady_state_solve,
)
from .spectral import EllipticOperator, eigendecompose
from .systems import (
    MultiOrderSystem,
    SemilinearPair,
    nonneg_verify,
    pair_nonneg_verify,
    picard_system_solve,
    semilinear_pair_solve,
)

__all__ = [
    "Scenario",
    "Report",
    "ScenarioError",
    "run_scenario",
    "run_bundle",
    "convergence_study",
    "OUTPUT_DIR_ENV",
]

OUTPUT_DIR_ENV = "FRACDIFF_OUTPUT_DIR"

_KINDS = ("linear", "semilinear", "system", "pair")
_PROPERTY_TYPES = ("comparison", "nonneg", "envelope", "bracket", "convergence")
# property types that need particular kinds; the others apply to every kind
_PROPERTY_KINDS = {
    "bracket": ("linear", "semilinear"),
    "envelope": ("linear", "semilinear"),
    "comparison": ("semilinear",),
    "convergence": ("linear", "semilinear"),
}
_XT = {"x", "t"}


def _fmt(v) -> str:
    return f"{float(v):.6e}"


class ScenarioError(ValueError):
    """Scenario file problem, annotated with file and section context."""


class Scenario:
    """Parsed scenario file; use :meth:`load`, then :meth:`basis`/:meth:`grid`
    and :meth:`build_problem` to materialize the solver inputs."""

    def __init__(self, path, parser):
        self.path = str(path)
        self._cp = parser
        sc = self._section("scenario")
        self.name = sc.get("name")
        if not self.name:
            raise ScenarioError(f"{self.path}: [scenario] needs a name")
        self.kind = sc.get("kind", "linear")
        if self.kind not in _KINDS:
            raise ScenarioError(
                f"{self.path}: unknown kind {self.kind!r} (one of {_KINDS})"
            )
        self.comment = sc.get("comment", "")
        self.seed = int(sc.get("seed", "42"))
        self.space = dict(self._section("space"))
        self.time = dict(self._section("time"))
        self.problem = dict(self._section("problem"))
        self._validate()
        self.properties = [
            self._property(section, dict(parser[section]))
            for section in parser.sections()
            if section.startswith("property:")
        ]
        self.monotone = None  # the [monotone] bracket, expressions parsed
        if parser.has_section("monotone"):
            self.monotone = self._parse_exprs(
                "monotone", dict(parser["monotone"]),
                {"lower": ("0", _XT), "upper": (None, _XT)},
            )

    @classmethod
    def load(cls, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        return cls(path, parser)

    # -- parsing helpers ---------------------------------------------------

    def _section(self, name):
        if not self._cp.has_section(name):
            raise ScenarioError(f"{self.path}: missing [{name}] section")
        return self._cp[name]

    def _expr(self, text, where, allowed):
        try:
            ev = expression_parse(text)
        except ExpressionError as exc:
            raise ScenarioError(
                f"{self.path}: in {where}, cannot parse {text!r}: {exc}"
            ) from exc
        extra = ev.names - set(allowed)
        if extra:
            raise ScenarioError(
                f"{self.path}: in {where}, {text!r} uses "
                f"{sorted(extra)} but only {sorted(allowed)} are allowed"
            )
        return ev

    def _need(self, section, key):
        """The text of a required key, or a ScenarioError naming the file,
        the section and the key."""
        if key not in self._cp[section]:
            raise ScenarioError(f"{self.path}: [{section}] needs {key}")
        return self._cp[section][key]

    def _parse_exprs(self, section, params, specs):
        """Replace the text of each key in specs, {key: (default, allowed
        names)} with default None for a required key, by its evaluator."""
        for key, (default, allowed) in specs.items():
            text = params.get(key, default) or self._need(section, key)
            params[key] = self._expr(text, f"[{section}] {key}", allowed)
        return params

    def _property(self, section, params):
        """(name, type, params) of a property section, checked against the
        scenario kind, with its expressions parsed."""
        ptype = params.pop("type", None)
        if ptype not in _PROPERTY_TYPES:
            raise ScenarioError(
                f"{self.path}: [{section}] has type {ptype!r}, "
                f"expected one of {_PROPERTY_TYPES}"
            )
        kinds = _PROPERTY_KINDS.get(ptype, _KINDS)
        if self.kind not in kinds:
            raise ScenarioError(
                f"{self.path}: [{section}] {ptype} properties need kind "
                + " or ".join(kinds)
            )
        specs = {}
        if ptype == "bracket":
            specs["lower"] = ("0", _XT)
            if params.get("upper_mode", "") != "power_barrier":
                specs["upper"] = (None, _XT)
        elif ptype == "envelope" and params.get("u_inf_mode", "") != "steady":
            specs["u_inf"] = ("0", {"x"})
        elif ptype == "comparison":
            specs["initial2"] = (self.problem["initial"], {"x"})
            specs["term2"] = (self.problem["term"], {"x", "u"})
        self._parse_exprs(section, params, specs)
        return section.split(":", 1)[1], ptype, params

    def _exprs(self, text, where, allowed):
        return [
            self._expr(part.strip(), where, allowed)
            for part in text.split(";")
        ]

    def _validate(self):
        float(self._need("space", "length"))
        if int(self._need("space", "n_grid")) < 3:
            raise ScenarioError(f"{self.path}: n_grid must be at least 3")
        T, N = self._need("time", "t"), self._need("time", "n")
        if float(T) <= 0 or int(N) < 1:
            raise ScenarioError(f"{self.path}: invalid time grid")
        self.build_problem(self.basis())  # parse all expressions eagerly

    # -- builders ----------------------------------------------------------

    def basis(self):
        n_grid = int(self.space["n_grid"])
        n_modes = int(self.space.get("n_modes", n_grid))
        c = self.space.get("c")
        if c is not None:
            c_ev = self._expr(c, "[space] c", {"x"})
            c = lambda x: c_ev(x=x)
        op = EllipticOperator(
            float(self.space["length"]),
            p=float(self.space.get("p", 1.0)),
            c=0.0 if c is None else c,
            sigma=(
                float(self.space.get("sigma0", 0.0)),
                float(self.space.get("sigmal", 0.0)),
            ),
            c0=(float(self.space["c0"]) if "c0" in self.space else None),
        )
        return eigendecompose(op, n_modes, n_grid)

    def grid(self, n_override=None):
        T = float(self.time["t"])
        N = int(n_override if n_override is not None else self.time["n"])
        r = float(self.time.get("grading", 1.0))
        if r == 1.0:
            return TimeGrid.uniform(T, N)
        return TimeGrid.graded(T, N, r)

    def _xt(self, key, default=None):
        text = self.problem.get(key, default)
        if text is None:
            return None
        ev = self._expr(text, f"[problem] {key}", {"x", "t"})
        return lambda x, t: ev(x=x, t=t)

    def _problem_expr(self, key, allowed):
        """A required [problem] expression, parsed."""
        text = self._need("problem", key)
        return self._expr(text, f"[problem] {key}", allowed)

    def build_problem(self, basis):
        x = basis.grid
        kind = self.kind
        if kind in ("linear", "semilinear"):
            alpha = float(self._need("problem", "alpha"))
            a = self._problem_expr("initial", {"x"})(x=x)
            drift = self._xt("drift")
            reaction = self._xt("reaction")
            forcing = self._xt("forcing")
            if kind == "linear":
                return LinearProblem(
                    basis, alpha, a,
                    drift=drift, reaction=reaction, forcing=forcing,
                    shift=float(self.problem.get("shift", 0.0)),
                )
            term_ev = self._problem_expr("term", {"x", "u"})
            term = SemilinearTerm(lambda xx, u: term_ev(x=xx, u=u))
            m = self.problem.get("m")
            return SemilinearProblem(
                basis, alpha, a, term,
                drift=drift, reaction=reaction, forcing=forcing,
                m=(float(m) if m is not None else None),
            )
        if kind == "system":
            alphas = [float(s) for s in self._need("problem", "alphas").split(",")]
            initials = [
                ev(x=x)
                for ev in self._exprs(
                    self._need("problem", "initials"), "[problem] initials", {"x"}
                )
            ]
            n = len(alphas)
            couplings = self.problem.get("couplings")
            if couplings is not None and couplings.strip() == "random":
                lo = float(self.problem.get("coupling_lo", 0.0))
                hi = float(self.problem.get("coupling_hi", 0.5))
                rng = np.random.default_rng(self.seed)
                couplings = [
                    [
                        rng.uniform(lo, hi) if j != k else -rng.uniform(0.0, 0.1)
                        for k in range(n)
                    ]
                    for j in range(n)
                ]
            elif couplings is not None:
                rows = couplings.split(";")
                if len(rows) != n:
                    raise ScenarioError(
                        f"{self.path}: couplings needs {n} rows, got {len(rows)}"
                    )
                couplings = [
                    [float(v) for v in row.split(",")] for row in rows
                ]
            forcings = None
            if "forcings" in self.problem:
                evs = self._exprs(
                    self.problem["forcings"], "[problem] forcings", {"x", "t"}
                )
                forcings = [
                    (lambda ev: lambda xx, t: ev(x=xx, t=t))(ev) for ev in evs
                ]
            return MultiOrderSystem(
                basis, alphas, initials, couplings=couplings, forcings=forcings
            )
        # pair
        alpha = float(self._need("problem", "alpha"))
        f_ev = self._problem_expr("f", {"u", "v"})
        g_ev = self._problem_expr("g", {"u", "v"})
        a = self._problem_expr("initial_u", {"x"})(x=x)
        b = self._problem_expr("initial_v", {"x"})(x=x)
        m = self.problem.get("m")
        return SemilinearPair(
            basis, alpha,
            lambda u, v: f_ev(u=u, v=v),
            lambda u, v: g_ev(u=u, v=v),
            a, b, m=(float(m) if m is not None else None),
        )


class Report:
    """Per-scenario outcome.  ``body`` is deterministic for a fixed scenario
    file and seed; runtime is carried separately and excluded from it."""

    def __init__(self, name, lines, verdicts, runtime):
        self.name = name
        self.lines = list(lines)
        self.verdicts = list(verdicts)  # (property_name, verdict)
        self.runtime = runtime

    @property
    def body(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def ok(self) -> bool:
        return all(v in ("PASS", "NOT-APPLICABLE") for _, v in self.verdicts)

    def render(self) -> str:
        return self.body + f"runtime_seconds: {self.runtime:.3f}\n"


def _write_atomic(path, text):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _solve(scn, basis, prob, grid):
    """Run the kind-appropriate solver; returns (primary_traj, extras)."""
    if scn.kind == "linear":
        return solve_linear(prob, grid), {}
    if scn.kind == "semilinear":
        shift = float(scn.problem.get("solver_shift", 0.0))
        return picard_solve(prob, grid, shift=shift), {}
    if scn.kind == "system":
        out = picard_system_solve(prob, grid)
        return out["trajectories"][0], {"system_result": out}
    shift = float(scn.problem.get("solver_shift", 0.0))
    u, v = semilinear_pair_solve(prob, grid, shift=shift)
    return u, {"pair_solution": (u, v)}


def _check_nonneg(scn, basis, prob, grid, traj, extras, params):
    tol = float(params.get("tol", 1e-8))
    if scn.kind == "system":
        out = nonneg_verify(
            prob, extras["system_result"]["trajectories"], grid, tol=tol
        )
        detail = f"min_value={_fmt(out['min_value'])}" \
            if "min_value" in out else f"reason={out.get('reason', '')}"
        return out["verdict"], detail
    if scn.kind == "pair":
        out = pair_nonneg_verify(prob, extras["pair_solution"], tol=tol)
        if out["verdict"] == "NOT-APPLICABLE":
            return out["verdict"], f"reason={out.get('reason', '')}"
        return out["verdict"], (
            f"min_value={_fmt(out['min_value'])} "
            f"case={out['classification']['case']}"
        )
    # scalar problems: gate on sampled hypotheses a >= 0, F >= 0, f(x,0) >= 0
    x = basis.grid
    if float(np.min(prob.a)) < -1e-12:
        return "NOT-APPLICABLE", "reason=initial data takes negative values"
    F = sample_history(prob.forcing, x, grid.nodes)
    if F is not None and float(np.min(F)) < -1e-12:
        return "NOT-APPLICABLE", "reason=forcing takes negative values"
    if scn.kind == "semilinear":
        z = np.zeros_like(x)
        if float(np.min(prob.term(x, z))) < -1e-12:
            return "NOT-APPLICABLE", "reason=f(x, 0) takes negative values"
    mn = float(np.min(traj.fields()))
    verdict = "PASS" if mn >= -tol else "FAIL"
    return verdict, f"min_value={_fmt(mn)}"


def _check_bracket(scn, basis, prob, grid, traj, extras, params):
    tol = float(params.get("tol", 1e-8))
    x, t = basis.grid, grid.nodes
    lower = sample_history(lambda xx, ti: params["lower"](x=xx, t=ti), x, t)
    detail = []
    if params.get("upper_mode", "") == "power_barrier":
        rho = power_barrier_rho(prob, grid)
        upper = prob.a[None, :] + rho * (t**prob.alpha)[:, None]
        detail.append(f"rho={_fmt(rho)}")
    else:
        upper = sample_history(lambda xx, ti: params["upper"](x=xx, t=ti), x, t)
    fields = traj.fields()
    lo_gap = float(np.min(fields - lower))
    hi_gap = float(np.min(upper - fields))
    verdict = "PASS" if (lo_gap >= -tol and hi_gap >= -tol) else "FAIL"
    detail += [f"lower_gap={_fmt(lo_gap)}", f"upper_gap={_fmt(hi_gap)}"]
    return verdict, " ".join(detail)


def _check_envelope(scn, basis, prob, grid, traj, extras, params):
    tol = float(params.get("tol", 1e-8))
    slope_tol = float(params.get("slope_tol", 0.15))
    if params.get("u_inf_mode", "") == "steady":
        term = prob.term if scn.kind == "semilinear" else (lambda x, u: 0.0 * u)
        u_inf = steady_state_solve(basis, term, prob.a)
    else:
        u_inf = params["u_inf"](x=basis.grid)
        u_inf = np.asarray(u_inf, dtype=float) * np.ones_like(basis.grid)
    out = decay_envelope_check(traj, u_inf, basis, prob.alpha, tol=tol)
    slope_ok = abs(out["fitted_slope"] + prob.alpha) <= slope_tol
    verdict = (
        "PASS"
        if out["envelope_violations"] == 0 and slope_ok and out["tail_ok"]
        else "FAIL"
    )
    detail = (
        f"fitted_slope={_fmt(out['fitted_slope'])} "
        f"violations={out['envelope_violations']} "
        f"M1={_fmt(out['M1'])} tail_ok={out['tail_ok']}"
    )
    return verdict, detail


def _check_comparison(scn, basis, prob, grid, traj, extras, params):
    tol = float(params.get("tol", 1e-8))
    x = basis.grid
    a2 = np.asarray(params["initial2"](x=x), dtype=float) * np.ones_like(x)
    ev2 = params["term2"]
    prob2 = SemilinearProblem(
        basis, prob.alpha, a2,
        SemilinearTerm(lambda xx, u: ev2(x=xx, u=u)),
        drift=prob.drift, reaction=prob.reaction, forcing=prob.forcing,
        m=prob.m,
    )
    out = compare_solutions(prob, prob2, grid, tol=tol)
    if out["verdict"] == "NOT-APPLICABLE":
        return out["verdict"], f"reason={out.get('reason', '')}"
    return out["verdict"], f"min_gap={_fmt(out['min_gap'])}"


def _check_convergence(scn, basis, prob, grid, traj, extras, params):
    levels = int(params.get("levels", 3))
    min_order = float(params.get("min_order", 0.8))
    rows = convergence_study(scn, levels)
    orders = [r[2] for r in rows if r[2] is not None]
    verdict = "PASS" if orders and orders[-1] >= min_order else "FAIL"
    detail = "orders=" + ",".join(_fmt(o) for o in orders)
    return verdict, detail


_CHECKS = {
    "nonneg": _check_nonneg,
    "bracket": _check_bracket,
    "envelope": _check_envelope,
    "comparison": _check_comparison,
    "convergence": _check_convergence,
}


def _output_dir(outdir=None):
    out = outdir or os.environ.get(OUTPUT_DIR_ENV) or os.getcwd()
    os.makedirs(out, exist_ok=True)
    return out


def run_scenario(path, outdir=None, write_files=True, property_types=None):
    """Execute a scenario file: solve, verify every declared property, and
    (by default) write <name>.traj.csv and <name>.report.txt atomically.

    ``property_types`` restricts verification to the given property types
    (an empty tuple solves without checking anything)."""
    t0 = time.perf_counter()
    scn = Scenario.load(path)
    basis = scn.basis()
    grid = scn.grid()
    prob = scn.build_problem(basis)
    traj, extras = _solve(scn, basis, prob, grid)
    properties = scn.properties
    if property_types is not None:
        properties = [p for p in properties if p[1] in property_types]

    lines = [
        f"scenario: {scn.name}",
        f"kind: {scn.kind}",
        (
            f"space: n_grid={basis.grid.size} n_modes={basis.n_modes} "
            f"length={_fmt(basis.operator.L)}"
        ),
        (
            f"time: T={_fmt(grid.T)} N={len(grid) - 1} "
            f"kind={grid.kind}"
        ),
        f"seed: {scn.seed}",
    ]
    if scn.comment:
        lines.append(f"comment: {scn.comment}")
    verdicts = []
    for pname, ptype, params in properties:
        verdict, detail = _CHECKS[ptype](
            scn, basis, prob, grid, traj, extras, params
        )
        verdicts.append((pname, verdict))
        lines.append(f"property {pname} [{ptype}]: {verdict} {detail}".rstrip())
    counts = {
        v: sum(1 for _, got in verdicts if got == v)
        for v in ("PASS", "FAIL", "NOT-APPLICABLE")
    }
    lines.append(
        "summary: {PASS} PASS, {FAIL} FAIL, {n} NOT-APPLICABLE".format(
            PASS=counts["PASS"], FAIL=counts["FAIL"], n=counts["NOT-APPLICABLE"]
        )
    )
    report = Report(scn.name, lines, verdicts, time.perf_counter() - t0)

    if write_files:
        out = _output_dir(outdir)
        if scn.kind == "system":
            for i, tr in enumerate(extras["system_result"]["trajectories"], 1):
                tr.to_csv(os.path.join(out, f"{scn.name}.comp{i}.traj.csv"))
        elif scn.kind == "pair":
            u, v = extras["pair_solution"]
            u.to_csv(os.path.join(out, f"{scn.name}.u.traj.csv"))
            v.to_csv(os.path.join(out, f"{scn.name}.v.traj.csv"))
        traj.to_csv(os.path.join(out, f"{scn.name}.traj.csv"))
        _write_atomic(
            os.path.join(out, f"{scn.name}.report.txt"), report.render()
        )
    return report


def run_bundle(directory, outdir=None):
    """Run every ``*.ini`` scenario in ``directory``; returns the reports."""
    paths = sorted(
        os.path.join(directory, f)
        for f in os.listdir(directory)
        if f.endswith(".ini")
    )
    if not paths:
        raise ScenarioError(f"no .ini scenarios found in {directory}")
    return [run_scenario(p, outdir=outdir) for p in paths]


def convergence_study(scenario, levels):
    """Solve the scenario on ``levels`` nested time grids (N, 2N, 4N, ...),
    measure each level's sup error at its nodes against one reference solve
    on the grid with N * 2**levels steps, and report the observed orders
    log2(e_{k-1} / e_k).  Returns rows (N, error, order-or-None)."""
    if isinstance(scenario, (str, os.PathLike)):
        scenario = Scenario.load(scenario)
    if int(levels) < 3:
        raise ValueError(f"convergence_study needs at least 3 levels, got {levels}")
    if scenario.kind not in ("linear", "semilinear"):
        raise ScenarioError(
            f"{scenario.path}: convergence studies need a scalar problem"
        )
    basis = scenario.basis()
    prob = scenario.build_problem(basis)
    N0 = int(scenario.time["n"])
    Ns = [N0 * 2**k for k in range(int(levels))]
    ref_N = N0 * 2 ** int(levels)
    ref_grid = scenario.grid(ref_N)
    ref = _solve(scenario, basis, prob, ref_grid)[0].fields()
    rows = []
    errors = []
    for N in Ns:
        grid = scenario.grid(N)
        fields = _solve(scenario, basis, prob, grid)[0].fields()
        stride = ref_N // N
        errors.append(float(np.max(np.abs(fields - ref[::stride]))))
    for i, (N, err) in enumerate(zip(Ns, errors)):
        order = None
        if i > 0 and err > 0.0 and errors[i - 1] > 0.0:
            order = math.log2(errors[i - 1] / err)
        rows.append((N, err, order))
    return rows
