"""Scenario ingestion, property verification, reports, convergence studies.

Scenario files are INI text (configparser: keys are case-insensitive,
values literal, ``#`` starts an inline comment).  :meth:`Scenario.load`
alone reads that text: it converts every key through the key tables below,
and the Scenario owns the basis, the time grid and the problem, built once.
An unknown section or key, a missing required key (``*``), a value of the
wrong type or out of range, or an expression that does not parse or uses a
variable the key does not allow raises ScenarioError naming the file, the
section and the key.  Numbers are finite; defaults are in parentheses::

    [scenario]  name*  kind (linear): linear|semilinear|system|pair
                comment  seed (42): integer
    [space]     length* > 0  n_grid*: integer >= 3  p (1) > 0
                n_modes (n_grid): integer from 1 to n_grid
                c: expression of x  sigma0, sigmaL (0) >= 0  c0 >= 0
    [time]      T* > 0  N*: integer >= 1  grading (1: uniform) >= 1
    [problem]   linear, semilinear: alpha* in (0, 1)  initial* of x
                  drift, reaction, forcing of x, t
                linear: shift (0) >= 0
                semilinear: term* of x, u  m > 0  solver_shift (0) >= 0
                system: alphas* in (0, 1), split by ',', may repeat, never decrease
                  initials* of x, forcings of x, t: split by ';'
                  couplings: random, or rows of numbers split by ';'
                  coupling_lo (0), coupling_hi (0.5): range when random
                pair: alpha*  f*, g* of u, v  initial_u*, initial_v* of x
                  m > 0  solver_shift (0) >= 0
    [property:<name>]  type*: nonneg|bracket|envelope|comparison|convergence
                all but convergence: tol (1e-8) >= 0
                bracket: lower (0), upper* of x, t
                  upper_mode (expression): expression|power_barrier (no upper)
                envelope: slope_tol (0.15) >= 0  u_inf (0) of x
                  u_inf_mode (expression): expression|steady
                comparison: initial2 of x, term2 of x, u (the problem's)
                convergence: levels (3): integer >= 3  min_order (0.8)
    [monotone]  lower (0), upper* of x, t  k_max (200): integer >= 1
                gap_tol (1e-6) >= 0

Bracket, envelope and convergence properties need kind linear or
semilinear, comparison semilinear; with n_modes < n_grid the nonneg and
comparison verdicts are NOT-APPLICABLE.  The linear ``shift`` and the
``solver_shift`` are one solve argument, the scheme's spectral shift.  The
working box m, and its default 2 (1 + sup|initial|), must be finite and
hold the initial data.

The fields of x (``initial``, ``initials``, ``initial_u``, ``initial_v``,
``u_inf`` and ``initial2``) are sampled once at load on the basis grid,
a bracket's ``lower`` and ``upper`` at every node of the time grid too,
and a sample that is not finite is a ScenarioError naming the key.  The
steady state of ``u_inf_mode = steady`` (and of ``fracdiff steady``) is
that of the solved equation, A_0 u = f(u) with the operator shift c0 in
A_0; it needs a problem without drift, reaction or forcing.

Reports are deterministic: for a fixed scenario file and seed the report
body is byte-identical across runs (runtime lives outside the body).
"""

from __future__ import annotations

import configparser
import math
import os
import shutil
import time
from types import SimpleNamespace

import numpy as np

from .expressions import ExpressionError, expression_parse
from .fracops import TimeGrid
from .linsolve import LinearProblem, NonFiniteCoefficient, sample_history, solve
from .semilinear import (
    SemilinearProblem,
    SemilinearTerm,
    compare_solutions,
    decay_envelope_check,
    power_barrier_rho,
    steady_state_solve,
)
from .spectral import EllipticOperator, eigendecompose
from .systems import MultiOrderSystem, SemilinearPair, nonneg_verify

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
_SCALAR = ("linear", "semilinear")


def _fmt(v) -> str:
    return f"{float(v):.6e}"


class ScenarioError(ValueError):
    """Scenario file problem, annotated with file and section context."""


# -- key tables: key -> (converter, default text) ------------------------
# A converter turns the text of a key into its typed value or raises
# ValueError saying what it expected.  A default of None leaves an absent
# key None; _REQUIRED makes it an error.

_REQUIRED = object()


def _typed(what, ok, cast=str):
    """Converter of text to cast(text), which must satisfy ok."""

    def convert(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"expected {what}, got {text!r}")
        return value

    return convert


def _number(what, ok=lambda v: True, cast=float):
    return _typed(what, lambda v: math.isfinite(v) and ok(v), cast)


def _at_least(low, cast=float):
    what = "an integer" if cast is int else "a number"
    return _number(f"{what} >= {low}", lambda v: v >= low, cast)


def _choice(*allowed):
    return _typed(f"one of {', '.join(allowed)}", lambda v: v in allowed)


def _expr(*names):
    """Converter of text to a function of the given variables, which it
    takes as positional arguments in that order."""

    def convert(text):
        try:
            ev = expression_parse(text)
        except ExpressionError as exc:
            raise ValueError(f"cannot parse {text!r}: {exc}") from exc
        extra = ev.names - set(names)
        if extra:
            raise ValueError(
                f"{text!r} uses {sorted(extra)} but only {sorted(names)} are allowed"
            )
        return lambda *args: ev(**dict(zip(names, args)))

    return convert


def _split(convert, sep):
    return lambda text: [convert(part.strip()) for part in text.split(sep)]


_REAL = _number("a number")
_POSITIVE = _number("a number > 0", lambda v: v > 0)
_ORDER = _number("a number in (0, 1)", lambda v: 0 < v < 1)
_NONNEG = _at_least(0)
_ROWS = _split(_split(_REAL, ","), ";")

_SCENARIO_KEYS = {
    "name": (_typed("a name", bool), _REQUIRED),
    "kind": (_choice(*_KINDS), "linear"),
    "comment": (str, ""),
    "seed": (_number("an integer", cast=int), "42"),
}
_SPACE_KEYS = {
    "length": (_POSITIVE, _REQUIRED),
    "n_grid": (_at_least(3, int), _REQUIRED),
    "n_modes": (_at_least(1, int), None),
    "p": (_POSITIVE, "1"),
    "c": (_expr("x"), None),
    "sigma0": (_NONNEG, "0"),
    "sigmal": (_NONNEG, "0"),
    "c0": (_NONNEG, None),
}
_TIME_KEYS = {
    "t": (_POSITIVE, _REQUIRED),
    "n": (_at_least(1, int), _REQUIRED),
    "grading": (_at_least(1), "1"),
}
_SCALAR_KEYS = {
    "alpha": (_ORDER, _REQUIRED),
    "initial": (_expr("x"), _REQUIRED),
    "drift": (_expr("x", "t"), None),
    "reaction": (_expr("x", "t"), None),
    "forcing": (_expr("x", "t"), None),
}
_PICARD = {"m": (_POSITIVE, None), "solver_shift": (_NONNEG, "0")}
_PROBLEM_KEYS = {
    "linear": {**_SCALAR_KEYS, "shift": (_NONNEG, "0")},
    "semilinear": {**_SCALAR_KEYS, "term": (_expr("x", "u"), _REQUIRED), **_PICARD},
    "system": {
        "alphas": (_split(_ORDER, ","), _REQUIRED),
        "initials": (_split(_expr("x"), ";"), _REQUIRED),
        "couplings": (lambda text: text if text == "random" else _ROWS(text), None),
        "coupling_lo": (_REAL, "0"),
        "coupling_hi": (_REAL, "0.5"),
        "forcings": (_split(_expr("x", "t"), ";"), None),
    },
    "pair": {
        "alpha": (_ORDER, _REQUIRED),
        "f": (_expr("u", "v"), _REQUIRED),
        "g": (_expr("u", "v"), _REQUIRED),
        "initial_u": (_expr("x"), _REQUIRED),
        "initial_v": (_expr("x"), _REQUIRED),
        **_PICARD,
    },
}
_TYPE = {"type": (str, _REQUIRED)}
_TOL = {**_TYPE, "tol": (_NONNEG, "1e-8")}
# property type -> (scenario kinds it applies to, key table)
_PROPERTIES = {
    "comparison": (("semilinear",), {
        **_TOL, "initial2": (_expr("x"), None), "term2": (_expr("x", "u"), None),
    }),
    "nonneg": (_KINDS, _TOL),
    "envelope": (_SCALAR, {
        **_TOL,
        "slope_tol": (_NONNEG, "0.15"),
        "u_inf": (_expr("x"), "0"),
        "u_inf_mode": (_choice("expression", "steady"), "expression"),
    }),
    "bracket": (_SCALAR, {
        **_TOL,
        "lower": (_expr("x", "t"), "0"),
        "upper": (_expr("x", "t"), None),
        "upper_mode": (_choice("expression", "power_barrier"), "expression"),
    }),
    "convergence": (_SCALAR, {
        **_TYPE, "levels": (_at_least(3, int), "3"), "min_order": (_REAL, "0.8"),
    }),
}
_MONOTONE_KEYS = {
    "lower": (_expr("x", "t"), "0"),
    "upper": (_expr("x", "t"), _REQUIRED),
    "k_max": (_at_least(1, int), "200"),
    "gap_tol": (_NONNEG, "1e-6"),
}
_SECTIONS = ("scenario", "space", "time", "problem", "monotone")


def _time_grid(T, N, grading):
    return TimeGrid.uniform(T, N) if grading == 1.0 else TimeGrid.graded(T, N, grading)


class Scenario:
    """A scenario file read by :meth:`load`.  It owns the solver inputs
    ``basis``, ``grid``, ``problem`` and ``solver_shift`` (the spectral
    shift of the solve, None for a system file, whose solve takes its
    default M1), built once; ``properties`` holds
    (name, type, fields) per property section and ``monotone`` the fields
    of [monotone] or None, fields being namespaces of typed values named by
    their keys (the fields of x, and an envelope's u_inf, as samples on the
    basis grid; the lower and upper of a bracket and of [monotone] as their
    histories on the time grid)."""

    def __init__(self, path, parser):
        self.path = str(path)
        for section in parser.sections():
            if section not in _SECTIONS and not section.startswith("property:"):
                raise ScenarioError(f"{self.path}: unknown section [{section}]")
        # name, kind, comment, seed
        vars(self).update(vars(self._read(parser, "scenario", _SCENARIO_KEYS)))
        self.basis = self._basis(self._read(parser, "space", _SPACE_KEYS))
        tm = self._read(parser, "time", _TIME_KEYS)
        self.grid = self._built("time", "grading", _time_grid, tm.t, tm.n, tm.grading)
        pv = self._read(parser, "problem", _PROBLEM_KEYS[self.kind])
        self.problem = self._problem(pv)
        # a linear file calls its solver shift `shift`; systems have none
        self.solver_shift = getattr(pv, "solver_shift", getattr(pv, "shift", None))
        self.properties = [
            self._property(parser, section, pv)
            for section in parser.sections()
            if section.startswith("property:")
        ]
        self.monotone = None
        if parser.has_section("monotone"):  # the bounds as histories on the grid
            mono = self._read(parser, "monotone", _MONOTONE_KEYS)
            mono.lower = self._history("monotone", "lower", mono.lower)
            mono.upper = self._history("monotone", "upper", mono.upper)
            self.monotone = mono

    @classmethod
    def load(cls, path):
        parser = configparser.ConfigParser(
            inline_comment_prefixes=("#",), interpolation=None
        )
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
        return cls(path, parser)

    # -- reading -----------------------------------------------------------

    def _read(self, parser, section, table):
        """The fields of a section: each key of the table converted from its
        text, or from its default when the section does not give it."""
        if not parser.has_section(section):
            raise ScenarioError(f"{self.path}: missing [{section}] section")
        items = parser[section]
        for key in items:
            if key not in table:
                raise ScenarioError(
                    f"{self.path}: [{section}] {key}: unknown key "
                    f"(known: {', '.join(table)})"
                )
        fields = SimpleNamespace()
        for key, (convert, default) in table.items():
            text = items.get(key, default)
            if text is _REQUIRED:
                raise ScenarioError(f"{self.path}: [{section}] needs {key}")
            setattr(fields, key, None if text is None
                    else self._built(section, key, convert, text))
        return fields

    def _built(self, section, key, build, *args, **kwargs):
        """build(*args, **kwargs), its ValueError a ScenarioError naming the key."""
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise ScenarioError(f"{self.path}: [{section}] {key}: {exc}") from exc

    def _property(self, parser, section, pv):
        """(name, type, fields) of a property section, checked against the
        scenario kind."""
        ptype = parser[section].get("type")
        if ptype not in _PROPERTIES:
            raise ScenarioError(
                f"{self.path}: [{section}] type: expected one of "
                f"{', '.join(_PROPERTIES)}, got {ptype!r}"
            )
        kinds, table = _PROPERTIES[ptype]
        if self.kind not in kinds:
            raise ScenarioError(
                f"{self.path}: [{section}] {ptype} properties need kind "
                + " or ".join(kinds)
            )
        fields = self._read(parser, section, table)
        if ptype == "bracket":  # the bounds as histories on the scenario grid
            fields.lower = self._history(section, "lower", fields.lower)
            if fields.upper_mode == "power_barrier" and self.kind != "semilinear":
                raise ScenarioError(f"{self.path}: [{section}] upper_mode: "
                                    "power_barrier needs kind = semilinear")
            if fields.upper_mode == "expression":
                if fields.upper is None:
                    raise ScenarioError(f"{self.path}: [{section}] needs upper")
                fields.upper = self._history(section, "upper", fields.upper)
        if ptype == "comparison":  # the problem's initial data and term by default
            fields.initial2 = self._field(
                section, "initial2", fields.initial2 or pv.initial
            )
            fields.term2 = fields.term2 or pv.term
        if ptype == "envelope":
            fields.u_inf = (self.steady_state(f"[{section}] u_inf_mode")
                            if fields.u_inf_mode == "steady"
                            else self._field(section, "u_inf", fields.u_inf))
        return section.split(":", 1)[1], ptype, fields

    def _field(self, section, key, fn):
        """The field fn(x) of a key, sampled on the basis grid x; a
        ScenarioError names the key and the first x where it is not finite."""
        x = self.basis.grid
        values = np.asarray(fn(x), dtype=float) * np.ones_like(x)
        bad = ~np.isfinite(values)
        if bad.any():
            raise ScenarioError(
                f"{self.path}: [{section}] {key}: not finite at x={x[np.argmax(bad)]}"
            )
        return values

    def _history(self, section, key, fn):
        """The samples of the function fn(x, t) of a key on the basis grid
        at every node of the scenario grid; a ScenarioError names the key
        and the first t where it is not finite."""
        try:
            return sample_history(fn, self.basis.grid, self.grid.nodes, key)
        except NonFiniteCoefficient as exc:
            raise ScenarioError(
                f"{self.path}: [{section}] {key}: not finite at t={exc.t}"
            ) from exc

    def steady_state(self, where):
        """The steady state of the solved equation, A_0 u = f(u) with the
        operator shift c0 in A_0 (f = 0 for a linear problem):
        steady_state_solve of f(x, u) - c0 u from the initial data.  The
        Newton solve knows only f, so a problem with drift, reaction or
        forcing is a ScenarioError naming where."""
        prob, basis = self.problem, self.basis
        if any(c is not None for c in (prob.drift, prob.reaction, prob.forcing)):
            raise ScenarioError(
                f"{self.path}: {where}: a steady state needs a problem "
                "without drift, reaction or forcing"
            )
        f, c0 = prob.term or (lambda x, u: 0.0), basis.c0
        return steady_state_solve(basis, lambda x, u: f(x, u) - c0 * u, prob.a)

    # -- solver inputs -----------------------------------------------------

    def _basis(self, sp):
        n_modes = sp.n_grid if sp.n_modes is None else sp.n_modes
        if n_modes > sp.n_grid:
            raise ScenarioError(
                f"{self.path}: [space] n_modes: expected an integer from 1 "
                f"to n_grid = {sp.n_grid}, got {n_modes}"
            )
        op = EllipticOperator(
            sp.length, p=sp.p, c=0.0 if sp.c is None else sp.c,
            sigma=(sp.sigma0, sp.sigmal), c0=sp.c0,
        )
        # the key table checks every other key; c is checked where it is
        # sampled, and a stiffness that overflows comes from a tiny length
        try:
            return self._built("space", "c", eigendecompose, op, n_modes, sp.n_grid)
        except OverflowError as exc:
            raise ScenarioError(f"{self.path}: [space] length: {exc}") from exc

    def _problem(self, pv):
        basis = self.basis
        if self.kind in _SCALAR:
            linear = dict(drift=pv.drift, reaction=pv.reaction, forcing=pv.forcing)
            a = self._field("problem", "initial", pv.initial)
            if self.kind == "linear":
                return LinearProblem(basis, pv.alpha, a, **linear)
            return self._built(
                "problem", "m", SemilinearProblem, basis, pv.alpha, a,
                SemilinearTerm(pv.term), m=pv.m, **linear,
            )
        if self.kind == "system":
            n = len(pv.alphas)
            couplings = pv.couplings
            if couplings == "random":
                rng = np.random.default_rng(self.seed)
                couplings = [
                    [
                        rng.uniform(pv.coupling_lo, pv.coupling_hi)
                        if j != k else -rng.uniform(0.0, 0.1)
                        for k in range(n)
                    ]
                    for j in range(n)
                ]
            elif couplings is not None and len(couplings) != n:
                raise ScenarioError(
                    f"{self.path}: [problem] couplings: expected {n} rows, "
                    f"got {len(couplings)}"
                )
            # the orders set the number of components the other keys must match
            return self._built(
                "problem", "alphas", MultiOrderSystem, basis, pv.alphas,
                [self._field("problem", "initials", a) for a in pv.initials],
                couplings=couplings, forcings=pv.forcings,
            )
        return self._built(
            "problem", "m", SemilinearPair, basis, pv.alpha, pv.f, pv.g,
            self._field("problem", "initial_u", pv.initial_u),
            self._field("problem", "initial_v", pv.initial_v), m=pv.m,
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


def _solve(scn, grid):
    """The trajectories of the scenario's march on the grid, one per
    component, the first the report's primary one.  A non-finite coefficient
    sample is a ScenarioError naming its key (a system's p_jk and F_k are
    entries of couplings and forcings), a solve that stops one naming the file."""
    try:
        return solve(scn.problem, grid, scn.solver_shift)
    except NonFiniteCoefficient as exc:
        key = {"p": "couplings", "F": "forcings"}.get(exc.name.split("_")[0], exc.name)
        entry = "" if key == exc.name else f"{exc.name} "
        raise ScenarioError(
            f"{scn.path}: [problem] {key}: {entry}not finite at t={exc.t}"
        ) from exc
    except ArithmeticError as exc:
        raise ScenarioError(f"{scn.path}: {exc}") from exc


def _check_nonneg(scn, trajs, params):
    out = nonneg_verify(scn.problem, trajs, scn.grid, tol=params.tol)
    if out["verdict"] == "NOT-APPLICABLE":
        return out["verdict"], f"reason={out['reason']}"
    case = f" case={out['classification']['case']}" if "classification" in out else ""
    return out["verdict"], f"min_value={_fmt(out['min_value'])}{case}"


def _check_bracket(scn, trajs, params):
    prob, tol, upper = scn.problem, params.tol, params.upper
    detail = []
    if params.upper_mode == "power_barrier":
        rho = power_barrier_rho(prob, scn.grid)
        upper = prob.a[None, :] + rho * (scn.grid.nodes**prob.alpha)[:, None]
        detail.append(f"rho={_fmt(rho)}")
    fields = trajs[0].fields()
    lo_gap = float(np.min(fields - params.lower))
    hi_gap = float(np.min(upper - fields))
    verdict = "PASS" if (lo_gap >= -tol and hi_gap >= -tol) else "FAIL"
    detail += [f"lower_gap={_fmt(lo_gap)}", f"upper_gap={_fmt(hi_gap)}"]
    return verdict, " ".join(detail)


def _check_envelope(scn, trajs, params):
    prob = scn.problem
    out = decay_envelope_check(trajs[0], params.u_inf, scn.basis, prob.alpha,
                               tol=params.tol)
    slope_ok = abs(out["fitted_slope"] + prob.alpha) <= params.slope_tol
    ok = out["envelope_violations"] == 0 and slope_ok and out["tail_ok"]
    verdict = "PASS" if ok else "FAIL"
    detail = (
        f"fitted_slope={_fmt(out['fitted_slope'])} "
        f"violations={out['envelope_violations']} "
        f"M1={_fmt(out['M1'])} tail_ok={out['tail_ok']}"
    )
    return verdict, detail


def _check_comparison(scn, trajs, params):
    prob, a2 = scn.problem, params.initial2
    # the first problem's box, or initial2's default box if initial2 leaves it
    m2 = prob.m if np.max(np.abs(a2)) <= prob.m else None
    prob2 = SemilinearProblem(
        scn.basis, prob.alpha, a2, SemilinearTerm(params.term2),
        drift=prob.drift, reaction=prob.reaction, forcing=prob.forcing, m=m2,
    )
    out = compare_solutions(prob, prob2, scn.grid, tol=params.tol)
    if out["verdict"] == "NOT-APPLICABLE":
        return out["verdict"], f"reason={out.get('reason', '')}"
    return out["verdict"], f"min_gap={_fmt(out['min_gap'])}"


def _check_convergence(scn, trajs, params):
    rows = convergence_study(scn, params.levels)
    orders = [r[2] for r in rows if r[2] is not None]
    verdict = "PASS" if orders and orders[-1] >= params.min_order else "FAIL"
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


def run_scenario(scenario, outdir=None, property_types=None):
    """Execute a scenario (a path or a loaded Scenario): solve, verify every
    declared property, and write <name>.traj.csv and <name>.report.txt
    atomically.

    ``property_types`` restricts verification to the given property types
    (an empty tuple solves without checking anything)."""
    t0 = time.perf_counter()
    scn = scenario if isinstance(scenario, Scenario) else Scenario.load(scenario)
    basis, grid = scn.basis, scn.grid
    trajs = _solve(scn, grid)
    properties = scn.properties
    if property_types is not None:
        properties = [p for p in properties if p[1] in property_types]

    lines = [
        f"scenario: {scn.name}",
        f"kind: {scn.kind}",
        f"space: n_grid={basis.grid.size} n_modes={basis.n_modes} "
        f"length={_fmt(basis.operator.L)}",
        f"time: T={_fmt(grid.T)} N={grid.N} kind={grid.kind}",
        f"seed: {scn.seed}",
    ]
    if scn.comment:
        lines.append(f"comment: {scn.comment}")
    verdicts = []
    for pname, ptype, params in properties:
        verdict, detail = _CHECKS[ptype](scn, trajs, params)
        verdicts.append((pname, verdict))
        lines.append(f"property {pname} [{ptype}]: {verdict} {detail}".rstrip())
    counts = [
        sum(got == v for _, got in verdicts) for v in ("PASS", "FAIL", "NOT-APPLICABLE")
    ]
    lines.append("summary: {} PASS, {} FAIL, {} NOT-APPLICABLE".format(*counts))
    report = Report(scn.name, lines, verdicts, time.perf_counter() - t0)

    out = _output_dir(outdir)
    parts = {"system": [f"comp{i}" for i in range(1, len(trajs) + 1)], "pair": ["u", "v"]}
    names = [f"{scn.name}.{part}.traj.csv" for part in parts.get(scn.kind, [])]
    for name, tr in zip(names or [f"{scn.name}.traj.csv"], trajs):
        tr.to_csv(os.path.join(out, name))
    if names:  # the primary trajectory: component 1's text, formatted once
        shutil.copyfile(os.path.join(out, names[0]),
                        os.path.join(out, f"{scn.name}.traj.csv"))
    _write_atomic(os.path.join(out, f"{scn.name}.report.txt"), report.render())
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
    """Solve the scenario (a path or a loaded Scenario) on ``levels`` nested
    time grids (N, 2N, 4N, ...) of its grid's horizon and grading, measure
    each level's sup error at its nodes against one reference solve on the
    grid with N * 2**levels steps, and report the observed orders
    log2(e_{k-1} / e_k).  Returns rows (N, error, order-or-None)."""
    scn = scenario if isinstance(scenario, Scenario) else Scenario.load(scenario)
    if int(levels) < 3:
        raise ValueError(f"convergence_study needs at least 3 levels, got {levels}")
    if scn.kind not in ("linear", "semilinear"):
        raise ScenarioError(f"{scn.path}: convergence studies need a scalar problem")
    T, N0, grading = scn.grid.T, scn.grid.N, scn.grid.grading or 1.0
    Ns = [N0 * 2**k for k in range(int(levels))]
    ref_N = N0 * 2 ** int(levels)

    def fields(N):
        return _solve(scn, _time_grid(T, N, grading))[0].fields()

    ref = fields(ref_N)
    rows, prev = [], 0.0
    for N in Ns:
        err = float(np.max(np.abs(fields(N) - ref[:: ref_N // N])))
        order = math.log2(prev / err) if prev > 0.0 and err > 0.0 else None
        rows.append((N, err, order))
        prev = err
    return rows
