"""One sha256 per solver output and per scenario output, for a bitwise
comparison of two checkouts, and the largest difference of each output
between two saved runs.

    python scripts/output_digest.py [--src DIR] [--save FILE.npz] > digest.txt
    python scripts/output_digest.py --compare FIRST.npz SECOND.npz

Prints one ``name sha256`` line per output, imports the package from DIR
(default: the ``src`` next to this script) and uses numpy and the package
only, so two checkouts compare with ``diff`` of their two digests:

* solver outputs, each on ``TimeGrid.uniform(1, 48)`` and on
  ``TimeGrid.graded(1, 40, 2)`` with the full 17-mode basis of 17 nodes:
  ``solve_linear`` at shift 0 and 2 with drift, reaction and forcing,
  ``convolve_K`` of a seeded history, the enzyme ``picard_solve`` at shift
  2, every array of ``monotone_iterate``, ``picard_system_solve`` of a
  3-component system and of a pair, the march of that pair
  (``semilinear_pair_solve``), ``compare_solutions`` (its verdict,
  min_gap, tol and trajectories), the
  ``check_upper_solution`` residual and ``decay_envelope_check``; and
  ``steady_state_solve`` once;
* scenario outputs: the report body (runtime excluded) and every
  ``.traj.csv`` of ``run_scenario`` on each ``tests/data/*.ini`` and each
  bundled scenario.

BLAS and OpenMP run on one thread, so a digest does not depend on the
thread count of the machine or the environment.  An array is hashed with
its dtype and shape, a trajectory as its modal history and diagnostics.
The calls use only API that has been stable across the recent history of
the package.

``--save`` also writes what each line hashes to FILE.npz: every array,
number and string of the output under ``name:path`` (a ``.traj.csv`` as
its table of numbers).  ``--compare`` reads two such files and prints one
line per output: its name, the largest absolute difference over the
numbers both runs hold at the same path and shape (0 when they are
equal), ``path=difference`` for each path that differs (list indices
folded into ``[*]``), then ``text-differs`` and the paths of differing
strings, and ``only-first``/``only-second`` and the paths that one run
lacks or holds at another shape.
"""

import argparse
import glob
import hashlib
import io
import math
import os
import re
import sys
import tempfile

# BLAS and OpenMP on one thread whatever the environment says: multi-threaded
# kernels sum in another order, and the digest must not depend on it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_GRID = 17  # nodes of the spatial grid, and modes of the full basis


def _feed(h, obj):
    """Add obj to the hash h: arrays with dtype and shape, containers item
    by item, dicts in key order, trajectories as modal and diagnostics."""
    if hasattr(obj, "modal") and hasattr(obj, "diagnostics"):
        _feed(h, ("trajectory", obj.modal, obj.diagnostics))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, (key, obj[key]))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, str) or obj is None:
        h.update(repr(obj).encode())
    else:
        arr = np.ascontiguousarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())


def _leaves(obj, path=""):
    """(path, value) of every array, number and string in obj, walked as
    _feed walks it."""
    if hasattr(obj, "modal") and hasattr(obj, "diagnostics"):
        yield from _leaves({"modal": obj.modal, "diagnostics": obj.diagnostics}, path)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(obj, str) or obj is None:
        yield path, np.array(repr(obj))
    else:
        yield path, np.asarray(obj)


def _emitter(saved):
    """emit(name, obj, numbers=None), which prints the line of obj and, when
    saved is a dict, keeps the leaves of obj (of numbers, when given) there
    under name:path."""

    def emit(name, obj, numbers=None):
        h = hashlib.sha256()
        _feed(h, obj)
        print(f"{name} {h.hexdigest()}")
        if saved is not None:
            for path, value in _leaves(obj if numbers is None else numbers):
                saved[f"{name}:{path}"] = value

    return emit


def compare(first, second):
    """One line per output of two --save files: the largest absolute
    difference of the numbers at shared paths, the largest per differing
    path (list indices folded into [*]), then what else differs."""
    runs = [{}, {}]
    for run, path in zip(runs, (first, second)):
        for key, value in np.load(path, allow_pickle=False).items():
            name, leaf = key.split(":", 1)
            run.setdefault(name, {})[leaf] = value
    for name in dict.fromkeys([*runs[0], *runs[1]]):
        paths = [run.get(name, {}) for run in runs]
        gaps, text, only = {}, set(), (set(), set())
        for path in sorted(set(paths[0]) | set(paths[1])):
            a, b = (p.get(path) for p in paths)
            group = re.sub(r"\[\d+\]", "[*]", path) or "."
            if a is None or b is None or a.shape != b.shape:
                for side, value in zip(only, (a, b)):
                    if value is not None:
                        side.add(group)
            elif a.dtype.kind == "U" or b.dtype.kind == "U":
                if not np.array_equal(a, b):
                    text.add(group)
            elif a.size:
                a, b = a.astype(float), b.astype(float)
                same = (a == b) | (np.isnan(a) & np.isnan(b))
                gap = float(np.max(np.where(same, 0.0, np.abs(a - b))))
                if gap:
                    gaps[group] = max(gaps.get(group, 0.0), gap)
        line = [name, f"{max(gaps.values()):.3e}" if gaps else "0"]
        line += [f"{group}={gap:.3e}" for group, gap in gaps.items()]
        line += [f"{label} {','.join(sorted(groups))}" for label, groups in
                 (("text-differs", text), ("only-first", only[0]),
                  ("only-second", only[1])) if groups]
        print(" ".join(line))


def solver_outputs(emit, tag, grid):
    from fracdiff.linsolve import LinearProblem, ModalPropagator, convolve_K, solve_linear
    from fracdiff.semilinear import (
        BracketPair,
        SemilinearProblem,
        SemilinearTerm,
        check_upper_solution,
        compare_solutions,
        decay_envelope_check,
        enzyme_kinetics,
        monotone_iterate,
        picard_solve,
    )
    from fracdiff.spectral import EllipticOperator, eigendecompose
    from fracdiff.systems import (
        MultiOrderSystem,
        SemilinearPair,
        picard_system_solve,
        semilinear_pair_solve,
    )

    basis = eigendecompose(EllipticOperator(math.pi), N_GRID, N_GRID)
    x = basis.grid
    a = 1.0 + 0.5 * np.cos(x)
    linear = LinearProblem(
        basis, 0.6, a,
        drift=lambda x, t: 0.2 * np.sin(x),
        reaction=lambda x, t: -0.3 * (1.0 + 0.5 * np.cos(x)),
        forcing=lambda x, t: 0.2 * (1.0 + np.cos(x)) * np.exp(-t),
    )
    for shift in (0.0, 2.0):
        emit(f"{tag}.solve_linear.shift{shift:g}", solve_linear(linear, grid, shift=shift))

    G = np.random.default_rng(0).standard_normal((len(grid), N_GRID))
    emit(f"{tag}.convolve_K", convolve_K(ModalPropagator(basis, 0.5, grid, 2.0), G))

    a_enz = 1.0 + 0.1 * np.cos(x)
    enzyme = SemilinearProblem(basis, 0.5, a_enz, SemilinearTerm.enzyme())
    emit(f"{tag}.picard_solve.enzyme", picard_solve(enzyme, grid, shift=2.0))

    bracket = BracketPair(lambda x, t: 0.0 * x, lambda x, t: 1.2 + 0.0 * x)
    mono = monotone_iterate(bracket, enzyme, grid)
    for key in sorted(mono):
        emit(f"{tag}.monotone_iterate.{key}", mono[key])

    system = MultiOrderSystem(
        basis, [0.4, 0.6, 0.8],
        [0.5 + 0.2 * np.cos(x), 0.3 + 0.1 * np.cos(2 * x), 0.1 * (1.5 + np.cos(x))],
        couplings=[[-0.05, 0.3, 0.1], [0.2, -0.1, 0.4], [0.5, 0.2, -0.02]],
        forcings=[lambda x, t: 0.1 * np.exp(-t) + 0.0 * x, None,
                  lambda x, t: 0.05 * (1.0 + np.cos(x))],
    )
    emit(f"{tag}.picard_system_solve.system", picard_system_solve(system, grid))
    pair = SemilinearPair(
        basis, 0.6, lambda u, v: 0.8 * v * (1 + u * u), lambda u, v: 1.2 * u * (1 + v * v),
        0.3 + 0.1 * np.cos(x), 0.2 + 0.1 * np.cos(2 * x),
    )
    emit(f"{tag}.picard_system_solve.pair", picard_system_solve(pair, grid, 2.0))
    emit(f"{tag}.semilinear_pair_solve", semilinear_pair_solve(pair, grid, 2.0))

    raised = SemilinearProblem(
        basis, 0.5, a_enz, SemilinearTerm(lambda x, u: enzyme_kinetics(u) + 0.1)
    )
    out = compare_solutions(raised, enzyme, grid)
    emit(f"{tag}.compare_solutions",
         {key: out[key] for key in ("verdict", "min_gap", "tol", "trajectories")})

    rho = 0.1 / math.gamma(1.5)
    upper = check_upper_solution(
        lambda x, t: 1.0 + 0.1 * np.cos(x) + rho * t**0.5, enzyme, grid
    )
    emit(f"{tag}.check_upper_solution", upper)

    decaying = LinearProblem(basis, 0.7, 0.5 + 0.2 * np.cos(x))
    envelope = decay_envelope_check(
        solve_linear(decaying, grid), np.zeros_like(x), basis, 0.7
    )
    emit(f"{tag}.decay_envelope_check", envelope)


def steady_output(emit):
    from fracdiff.semilinear import SemilinearTerm, steady_state_solve
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(math.pi, c=-1.0, c0=2.0), N_GRID, N_GRID)
    x = basis.grid
    emit("steady_state_solve", steady_state_solve(
        basis, SemilinearTerm(lambda x, u: -u + 0.5 * np.cos(x)), np.zeros_like(x)
    ))


def scenario_outputs(emit):
    from fracdiff import harness

    bundled = os.path.join(os.path.dirname(harness.__file__), "scenarios")
    paths = sorted(glob.glob(os.path.join(REPO, "tests", "data", "*.ini")))
    paths += sorted(glob.glob(os.path.join(bundled, "*.ini")))
    for path in paths:
        stem = os.path.basename(path)[: -len(".ini")]
        with tempfile.TemporaryDirectory() as out:
            report = harness.run_scenario(path, outdir=out)
            emit(f"scenario.{stem}.report_body", report.body)
            for csv in sorted(glob.glob(os.path.join(out, "*.traj.csv"))):
                with open(csv, encoding="utf-8") as fh:
                    text = fh.read()
                table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
                emit(f"scenario.{stem}.{os.path.basename(csv)}", text, table)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="directory that holds the fracdiff package")
    parser.add_argument("--save", metavar="FILE.npz",
                        help="also write what every line hashes to FILE.npz")
    parser.add_argument("--compare", nargs=2, metavar="FILE.npz",
                        help="print the largest difference per line of two --save files")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    saved = {} if args.save else None
    emit = _emitter(saved)
    sys.path.insert(0, os.path.abspath(args.src))
    from fracdiff.fracops import TimeGrid

    with np.errstate(all="ignore"):
        for tag, grid in (("uniform", TimeGrid.uniform(1.0, 48)),
                          ("graded", TimeGrid.graded(1.0, 40, 2.0))):
            solver_outputs(emit, tag, grid)
        steady_output(emit)
        scenario_outputs(emit)
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
