"""Command-line interface.

Subcommands::

    fracdiff run <scenario.ini>         full property-driven run
    fracdiff bundle [dir]               run every *.ini (default: shipped set)
    fracdiff converge <scenario.ini> --levels k
    fracdiff ml-eval --alpha A --beta B --z Z
    fracdiff solve <scenario.ini>       solve only, skip property checks
    fracdiff compare <scenario.ini>     comparison properties only
    fracdiff envelope <scenario.ini>    envelope properties only
    fracdiff monotone <scenario.ini>    monotone bracket iteration ([monotone])
    fracdiff steady <scenario.ini>      steady-state solve, CSV output
    fracdiff system <scenario.ini>      multi-order system run + verdicts

Exit status is 0 iff every verdict is PASS or NOT-APPLICABLE (monotone: iff
the bracket closes within k_max; else it writes no trajectory).  Output files
go to --outdir, else $FRACDIFF_OUTPUT_DIR, else the working directory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .harness import (
    OUTPUT_DIR_ENV,
    Scenario,
    ScenarioError,
    _output_dir,
    convergence_study,
    run_bundle,
    run_scenario,
)


def _bundled_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "scenarios")


def _add_outdir(p):
    p.add_argument(
        "--outdir",
        default=None,
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or cwd)",
    )


def _load(args, kind=None):
    """The scenario of a command that needs the given kind (None: any)."""
    scn = Scenario.load(args.scenario)
    if kind is not None and scn.kind != kind:
        raise ScenarioError(f"{scn.path}: {args.command} needs kind = {kind}")
    return scn


# report commands: the property types they check (None: all) and the
# scenario kind they need (None: any)
_REPORT_COMMANDS = {
    "run": (None, None),
    "solve": ((), None),
    "compare": (("comparison",), None),
    "envelope": (("envelope",), None),
    "system": (None, "system"),
}


def _cmd_report(args) -> int:
    types, kind = _REPORT_COMMANDS[args.command]
    report = run_scenario(_load(args, kind), outdir=args.outdir, property_types=types)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_bundle(args) -> int:
    directory = args.directory or _bundled_dir()
    reports = run_bundle(directory, outdir=args.outdir)
    code = 0
    for report in reports:
        sys.stdout.write(report.render() + "\n")
        if not report.ok:
            code = 1
    return code


def _cmd_converge(args) -> int:
    rows = convergence_study(args.scenario, args.levels)
    sys.stdout.write(f"{'N':>8} {'error':>14} {'order':>8}\n")
    for N, err, order in rows:
        o = f"{order:8.3f}" if order is not None else " " * 8
        sys.stdout.write(f"{N:8d} {err:14.6e} {o}\n")
    return 0


def _cmd_ml_eval(args) -> int:
    from .mlf import MLParams, ml

    value = ml(MLParams(args.alpha, args.beta), args.z)
    sys.stdout.write(f"{float(value)!r}\n")
    return 0


def _cmd_monotone(args) -> int:
    from .semilinear import BracketPair, monotone_iterate

    scn = _load(args, "semilinear")
    mono = scn.monotone
    if mono is None:
        raise ScenarioError(f"{scn.path}: missing [monotone] section")
    try:
        out = monotone_iterate(BracketPair(mono.lower, mono.upper), scn.problem,
                               scn.grid, k_max=mono.k_max, gap_tol=mono.gap_tol)
    except (ArithmeticError, ValueError) as exc:  # a solver stop or a bad bracket
        raise ScenarioError(f"{scn.path}: {exc}") from exc
    if out["converged"]:
        out["u_star"].to_csv(os.path.join(_output_dir(args.outdir), f"{scn.name}.traj.csv"))
    sys.stdout.write(
        f"scenario: {scn.name}\n"
        f"monotone: converged={out['converged']} sweeps={out['sweeps']} "
        f"final_gap={out['gap_history'][-1]:.6e} M={out['M']:.6e}\n"
    )
    return 0 if out["converged"] else 1


def _cmd_steady(args) -> int:
    scn = _load(args, "semilinear")
    u = scn.steady_state("steady")
    outdir = _output_dir(args.outdir)
    path = os.path.join(outdir, f"{scn.name}.steady.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,u\n")
        for xi, ui in zip(scn.basis.grid, u):
            fh.write(f"{float(xi)!r},{float(ui)!r}\n")
    sys.stdout.write(
        f"scenario: {scn.name}\nsteady: sup={np.max(np.abs(u)):.6e} "
        f"written={path}\n"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built on the first call in a process, then shared."""
    parser = argparse.ArgumentParser(
        prog="fracdiff",
        description="Time-fractional diffusion solvers and property checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    own = {"monotone": _cmd_monotone, "steady": _cmd_steady}
    for name in ("run", "solve", "compare", "envelope", "monotone", "steady", "system"):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="scenario .ini file")
        _add_outdir(p)
        p.set_defaults(fn=own.get(name, _cmd_report))

    p = sub.add_parser("bundle")
    p.add_argument(
        "directory", nargs="?", default=None,
        help="directory of scenarios (default: shipped bundle)",
    )
    _add_outdir(p)
    p.set_defaults(fn=_cmd_bundle)

    p = sub.add_parser("converge")
    p.add_argument("scenario", help="scenario .ini file")
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("ml-eval")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0,
                   help="beta > 0 (default 1); for z <= 0 accurate to 1e-13 up to "
                        "beta = 2, 4.7e-13 at 3, 2.6e-11 at 5 and 4.2e-10 at 8")
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(fn=_cmd_ml_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a solve stops at a non-finite value; NumPy's warnings only repeat it
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ScenarioError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
