"""L0 timings of the Mittag-Leffler evaluator, the propagator tables and
solvers that feed on it, and a fresh process's set-up, written to
BENCH_mlf.json.

    python scripts/bench_mlf.py [--label NAME --src DIR]... [--out FILE]

Measures, in CPU time with BLAS threads capped at 1:

* ns per point of ``ml_neg_vec(alpha, x)`` (beta = 1) in each regime at
  alpha in {0.3, 0.5, 0.9}, on batches of 2048 points, about the size of one
  graded row-weight call before the rows were built in groups: Taylor x in
  [0, 1], contour x in (1, deep_cut), asymptotic x in [deep_cut, 1e4
  deep_cut] (log-uniform); and the contour regime on CONTOUR_POINTS points,
  where its temporaries outgrow the cache unless it is evaluated in blocks;
* L1: the median CPU seconds (of REPEATS) of one propagator build,
  ``ModalPropagator(basis, 0.5, grid, 2.0)`` with 65 modes, on
  ``TimeGrid.uniform(1, 1024)`` (lag table and its spectrum) and on
  ``TimeGrid.graded(1, N, 3)`` for N = 256 and 512 (one row per node), the
  tracemalloc peak and the bytes still held after the constructor (its
  tables), read around the constructor rather than from the tables, so the
  same cell measures checkouts whose table attributes differ, and the
  ``ru_maxrss`` of the process that made these builds;
* the median CPU seconds of a graded-style ``solve_linear`` triple:
  N = 64/88/112 on ``TimeGrid.graded(1, N, (2 - a)/a)`` with a = 0.4/0.6/0.8,
  17 nodes and the full basis, each solve on a fresh problem (every solve
  builds its propagator's tables);
* the median CPU seconds of a graded ``picard_solve`` (L3): enzyme term,
  alpha = 0.5, shift 2, 65 modes, ``TimeGrid.graded(1, N, 3)`` for N = 64 and
  128, each solve building its own tables (every solver makes its shifted
  propagator, tables included, once per call), medians of PICARD_REPEATS
  after one warm-up at N = 8;
* the median CPU seconds of a uniform enzyme ``picard_solve`` (L2/L3):
  alpha = 0.5, shift 2, 33 modes, ``TimeGrid.uniform(1, 96)``, per solve
  (tables built in the solve, as above), medians of REPEATS batches of
  UNIFORM_BATCH solves after one warm-up;
* the crossover of that solve: the median CPU seconds (of PICARD_REPEATS,
  after one warm-up at N = 8) of the enzyme ``picard_solve`` with 65 modes
  on ``TimeGrid.uniform(1, N)`` for N in CROSSOVER_N, where a forward
  march costs O(N^2 M) and FFT sweeps O(sweeps N log N M), so the cells of
  two checkouts show the N at which the one overtakes the other;
* the median CPU seconds of the reaction-system solves (L3) per solve,
  medians of REPEATS batches of SYSTEM_BATCH solves after one warm-up:
  ``picard_system_solve`` of a cooperative 3-component system (orders
  0.9/0.94/0.98, off-diagonal couplings 1, M1 = 0.1, tol 1e-12) on 33
  nodes and ``TimeGrid.uniform(1, 64)``, and ``semilinear_pair_solve`` of
  the case-4 pair f = v (1 + u^2), g = u (1 + v^2) (alpha = 0.6, shift 2)
  on 33 nodes and ``TimeGrid.uniform(0.5, 64)``, the sizes of the
  benchmark's fixed_point system and pair steps;
* the median CPU seconds of ``monotone_iterate`` (L3) per solve, medians of
  REPEATS batches of SYSTEM_BATCH solves after one warm-up: enzyme term,
  alpha = 0.5, a = 1 + 0.1 cos x on 21 nodes (full basis, c0 = 0),
  ``TimeGrid.uniform(1, 40)``, the bracket [0, a + rho t^alpha] with
  rho = 0.1/Gamma(alpha + 1), k_max 60 and gap tolerance 1e-6, the sizes
  of the benchmark's fixed_point monotone step;
* per sweep (the solve divided by its sweeps) only for a solve that
  reports more than one sweep in its diagnostics: a whole-window
  iteration, not a forward march, which is one pass over the grid;
* L3: the CPU microseconds per node of ``linsolve.march`` on that uniform
  solve (its propagator and right-hand side made once, outside the timer),
  medians of REPEATS batches of UNIFORM_BATCH marches;
* L4: the CPU seconds and peak RSS (medians of ROUNDS) of a fresh
  interpreter that imports fracdiff and runs that uniform solve once, as
  the process reports them at its end (interpreter start included);
* L4: the CPU seconds of an in-process ``cli.main(["run", f, "--outdir",
  tmp])`` for each ``tests/data/*.ini`` and each bundled scenario of the
  measured checkout, after one warm call of each, medians of REPEATS
  rounds that take every file once;
* the block sizes, for a checkout that has them: the contour's ns per
  point at alpha = 0.5 on BATCH and on CONTOUR_POINTS points for
  ``mlf._CONTOUR_BLOCK`` in CONTOUR_BLOCKS, and for
  ``linsolve.ROW_GROUP_POINTS`` in ROW_GROUPS the graded solve_linear
  triple and the graded N = 512 build cell (CPU seconds and
  ``ru_maxrss``), which chose the two constants;
* the contour's nodes, for a checkout whose ``mlf._contour_nodes`` takes
  (mu, h, n): for each node count n in SWEEP_N and vertex mu in SWEEP_MU
  the spacing h of SWEEP_H with the smallest worst error
  |E - oracle|/max(1, |oracle|) over the contour-regime rows of
  ``tests/data/ml_oracle_table.csv`` and the points of
  ``tests/test_mlf.py::test_contour_regime_vs_oracle`` (mpmath), and per n
  the ns per point at alpha = 0.5 on CONTOUR_POINTS points with its best
  (mu, h), which chose the parabola of ``mlf._CONTOUR_S``.

Every measurement runs in a fresh worker process: glibc's adaptive mmap
threshold makes the cost of a call's large temporaries depend on what the
process freed before (a contour call ran 2-3 times faster after a call that
had freed a larger block), so cells measured in one process depend on order.
A cell is the median of ROUNDS such processes, and the rounds alternate:
each round runs every timed cell once, in turn, so a slow spell of a
shared host falls on every cell rather than on the few measured in it.  The
contour's accuracy sweep, which times nothing, runs once.

The numbers of each ``--src`` are stored under its ``--label`` in ``--out``;
other labels in that file are kept.  Several checkouts given in one run
(``--label parent --src A/src --label change --src B/src``) are measured in
the same rounds, each cell of one checkout next to the same cell of the
others, so a parent and a change share every spell of the host.
"""

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALPHAS = (0.3, 0.5, 0.9)
REGIMES = ("taylor", "contour", "asymptotic")
BATCH = 2048
CONTOUR_POINTS = 65536
CONTOUR_BLOCKS = (128, 256, 512, 1024, 2048, 4096)
ROW_GROUPS = tuple(2**k for k in range(12, 18))
SWEEP_N = (14, 15, 16, 17, 18)
SWEEP_MU = (3.5, 4.0, 4.5, 4.7, 5.0, 5.5)
SWEEP_H = tuple(round(0.15 + 0.002 * k, 3) for k in range(26))
# alpha of the accuracy test's points, each at beta = alpha, 1 and 2
SWEEP_ALPHAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
REPEATS = 7
PICARD_N = (64, 128)
CROSSOVER_N = (1024, 2048, 4096)
# (kind, N) of the L1 propagator builds
BUILD_GRIDS = (("uniform", 1024), ("graded", 256), ("graded", 512))
PICARD_REPEATS = 3
UNIFORM_BATCH = 20
SYSTEM_BATCH = 10
# fresh-process samples of each timed cell, taken in alternating rounds
ROUNDS = 5
# the uniform solve of the L3 and L4 cells, as source that a fresh
# interpreter runs with nothing else imported
UNIFORM_PICARD = """
import fracdiff
import numpy as np
from fracdiff.fracops import TimeGrid
from fracdiff.semilinear import SemilinearProblem, SemilinearTerm, picard_solve
from fracdiff.spectral import EllipticOperator, eigendecompose

basis = eigendecompose(EllipticOperator(np.pi), 33, 33)
prob = SemilinearProblem(basis, 0.5, 1.0 + 0.1 * np.cos(basis.grid), SemilinearTerm.enzyme())
grid = TimeGrid.uniform(1.0, 96)
traj = picard_solve(prob, grid, shift=2.0)
"""


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median_cpu(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return float(np.median(times))


def ns_per_point(src, alpha, regime, n=BATCH):
    sys.path.insert(0, src)
    from fracdiff import mlf

    rng = np.random.default_rng([ALPHAS.index(alpha), REGIMES.index(regime)])
    cut = mlf.deep_cut(alpha)
    x = {
        "taylor": lambda: rng.uniform(0.0, mlf.TAYLOR_CUT, n),
        "contour": lambda: rng.uniform(np.nextafter(mlf.TAYLOR_CUT, 2.0), cut, n),
        "asymptotic": lambda: cut * np.exp(rng.uniform(0.0, np.log(1e4), n)),
    }[regime]()
    mlf.ml_neg_vec(alpha, x)  # warm-up
    t0 = time.process_time()
    calls = 0
    while time.process_time() - t0 < 0.02:
        mlf.ml_neg_vec(alpha, x)
        calls += 1

    def batch():
        for _ in range(calls):
            mlf.ml_neg_vec(alpha, x)

    return 1e9 * _median_cpu(batch, REPEATS) / (calls * n)


def _max_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def propagator_build(src, kind, N):
    """(median CPU s, tracemalloc peak MB, MB held after, ru_maxrss MB of
    the process) of one ModalPropagator build on the (kind, N) grid of
    BUILD_GRIDS."""
    sys.path.insert(0, src)
    import tracemalloc

    from fracdiff.fracops import TimeGrid
    from fracdiff.linsolve import ModalPropagator
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(np.pi), 65, 65)
    grid = TimeGrid.uniform(1.0, N) if kind == "uniform" else TimeGrid.graded(1.0, N, 3.0)
    ModalPropagator(basis, 0.5, TimeGrid.graded(1.0, 8, 3.0), 2.0)  # warm-up
    seconds = _median_cpu(lambda: ModalPropagator(basis, 0.5, grid, 2.0), REPEATS)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    prop = ModalPropagator(basis, 0.5, grid, 2.0)  # held while measured
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return seconds, (peak - before) / 2**20, (held - before) / 2**20, _max_rss_mb()


def contour_block_ns(src, block, n):
    """ns per point of the alpha = 0.5 contour on n points with
    mlf._CONTOUR_BLOCK = block, or None for a checkout without it."""
    sys.path.insert(0, src)
    from fracdiff import mlf

    if not hasattr(mlf, "_CONTOUR_BLOCK"):
        return None
    mlf._CONTOUR_BLOCK = block
    return ns_per_point(src, 0.5, "contour", n)


def _contour_reference(mlf):
    """(alpha, beta, x, E) rows: the oracle table's contour-regime rows and
    the accuracy test's points, with their mpmath values."""
    import csv

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from oracles import ml_oracle

    with open(os.path.join(ROOT, "tests", "data", "ml_oracle_table.csv"), newline="") as fh:
        rows = [(float(r["alpha"]), float(r["beta"]), -float(r["z"]), float(r["value_50digit"]))
                for r in csv.DictReader(fh)]
    rows = [r for r in rows if mlf.TAYLOR_CUT < r[2] < mlf.deep_cut(r[0])]
    for alpha in SWEEP_ALPHAS:
        cut = mlf.deep_cut(alpha)
        for x in (mlf.TAYLOR_CUT * (1.0 + 1e-9), 0.5 * (mlf.TAYLOR_CUT + cut), cut * (1.0 - 1e-9)):
            rows += [(alpha, beta, x, ml_oracle(alpha, beta, -x)) for beta in (alpha, 1.0, 2.0)]
    return np.array(rows)


def contour_sweep(src):
    """{n: {mu: (h, worst error)}}, the best h of SWEEP_H per (n, mu), or
    None for a checkout whose _contour_nodes takes no (mu, h, n)."""
    sys.path.insert(0, src)
    import inspect

    from fracdiff import mlf

    if list(inspect.signature(mlf._contour_nodes).parameters) != ["mu", "h", "n"]:
        return None
    ref = _contour_reference(mlf)
    pairs = sorted(set(map(tuple, ref[:, :2])))
    masks = [(a, b, (ref[:, 0] == a) & (ref[:, 1] == b)) for a, b in pairs]
    scale = np.maximum(1.0, np.abs(ref[:, 3]))
    sweep = {}
    for n in SWEEP_N:
        for mu in SWEEP_MU:
            errs = []
            for h in SWEEP_H:
                mlf._CONTOUR_S, mlf._CONTOUR_W = mlf._contour_nodes(mu, h, n)
                got = np.empty(len(ref))
                for a, b, m in masks:
                    got[m] = mlf._contour(a, b, ref[m, 2])
                errs.append((float(np.max(np.abs(got - ref[:, 3]) / scale)), h))
            err, h = min(errs)
            sweep.setdefault(n, {})[mu] = (h, err)
    return sweep


def contour_nodes_ns(src, mu, h, n):
    """ns per point of the alpha = 0.5 contour on CONTOUR_POINTS points on
    the parabola (mu, h, n)."""
    sys.path.insert(0, src)
    from fracdiff import mlf

    mlf._CONTOUR_S, mlf._CONTOUR_W = mlf._contour_nodes(mu, h, n)
    return ns_per_point(src, 0.5, "contour", CONTOUR_POINTS)


def row_group_cell(src, points, measure, *args):
    """measure(src, *args) with linsolve.ROW_GROUP_POINTS = points, or None
    for a checkout without it."""
    sys.path.insert(0, src)
    from fracdiff import linsolve

    if not hasattr(linsolve, "ROW_GROUP_POINTS"):
        return None
    linsolve.ROW_GROUP_POINTS = points
    return measure(src, *args)


def graded_triple_s(src):
    sys.path.insert(0, src)
    from fracdiff.fracops import TimeGrid
    from fracdiff.linsolve import LinearProblem, solve_linear
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(np.pi), 17, 17)
    a = 0.75 + 0.2 * np.cos(basis.grid)

    def forcing(x, t=0.0):
        return 0.5 + 0.25 * np.cos(x)

    def triple():
        for alpha, N in ((0.4, 64), (0.6, 88), (0.8, 112)):
            prob = LinearProblem(basis, alpha, a, forcing=forcing)
            solve_linear(prob, TimeGrid.graded(1.0, N, (2.0 - alpha) / alpha))

    triple()  # warm-up
    return _median_cpu(triple, REPEATS)


def graded_picard_s(src, N):
    sys.path.insert(0, src)
    from fracdiff.fracops import TimeGrid
    from fracdiff.semilinear import SemilinearProblem, SemilinearTerm, picard_solve
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(np.pi), 65, 65)
    prob = SemilinearProblem(basis, 0.5, 1.0 + 0.1 * np.cos(basis.grid),
                             SemilinearTerm.enzyme())
    picard_solve(prob, TimeGrid.graded(1.0, 8, 3.0), shift=2.0)  # warm-up
    grid = TimeGrid.graded(1.0, N, 3.0)
    return _median_cpu(lambda: picard_solve(prob, grid, shift=2.0), PICARD_REPEATS)


def _per_sweep(seconds, diagnostics):
    """seconds per sweep of a solve whose diagnostics report sweeps > 1,
    else None (a march is one pass)."""
    sweeps = diagnostics.get("sweeps", 1)
    return seconds / sweeps if sweeps > 1 else None


def uniform_picard_s(src):
    sys.path.insert(0, src)
    ns = {}
    exec(UNIFORM_PICARD, ns)  # warm-up

    def batch():
        for _ in range(UNIFORM_BATCH):
            ns["picard_solve"](ns["prob"], ns["grid"], shift=2.0)

    solve = _median_cpu(batch, REPEATS) / UNIFORM_BATCH
    return solve, _per_sweep(solve, ns["traj"].diagnostics)


def crossover_picard_s(src, N):
    """(median CPU s, sweeps) of the uniform enzyme picard_solve at N."""
    sys.path.insert(0, src)
    from fracdiff.fracops import TimeGrid
    from fracdiff.semilinear import SemilinearProblem, SemilinearTerm, picard_solve
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(np.pi), 65, 65)
    prob = SemilinearProblem(basis, 0.5, 1.0 + 0.1 * np.cos(basis.grid),
                             SemilinearTerm.enzyme())
    picard_solve(prob, TimeGrid.uniform(1.0, 8), shift=2.0)  # warm-up
    grid = TimeGrid.uniform(1.0, N)
    sweeps = picard_solve(prob, grid, shift=2.0).diagnostics.get("sweeps", 1)
    return _median_cpu(lambda: picard_solve(prob, grid, shift=2.0), PICARD_REPEATS), sweeps


def reaction_system_s(src, kind):
    """(CPU s per solve, per sweep or None) of the system or the pair solve."""
    sys.path.insert(0, src)
    from fracdiff.fracops import TimeGrid
    from fracdiff.spectral import EllipticOperator, eigendecompose
    from fracdiff.systems import (
        MultiOrderSystem,
        SemilinearPair,
        picard_system_solve,
        semilinear_pair_solve,
    )

    basis = eigendecompose(EllipticOperator(np.pi), 33, 33)
    x = basis.grid
    if kind == "system":
        initials = [b * (1.0 + 0.5 * np.cos((j + 1) * x)) for j, b in enumerate((0.6, 0.4, 0.8))]
        couplings = [[-0.01 if j == k else 1.0 for k in range(3)] for j in range(3)]
        system = MultiOrderSystem(basis, [0.9, 0.94, 0.98], initials, couplings=couplings)
        grid = TimeGrid.uniform(1.0, 64)

        def solve():
            out = picard_system_solve(system, grid, M1=0.1, tol=1e-12, max_sweeps=400)
            return out["trajectories"][0].diagnostics
    else:
        pair = SemilinearPair(basis, 0.6, lambda u, v: v * (1.0 + u**2),
                              lambda u, v: u * (1.0 + v**2),
                              0.3 + 0.1 * np.cos(x), 0.2 + 0.1 * np.cos(2.0 * x))
        grid = TimeGrid.uniform(0.5, 64)

        def solve():
            return semilinear_pair_solve(pair, grid, shift=2.0)[0].diagnostics

    diagnostics = solve()  # warm-up

    def batch():
        for _ in range(SYSTEM_BATCH):
            solve()

    seconds = _median_cpu(batch, REPEATS) / SYSTEM_BATCH
    return seconds, _per_sweep(seconds, diagnostics)


def monotone_s(src):
    """(CPU s per solve, per sweep) of the monotone sandwich."""
    sys.path.insert(0, src)
    import math

    from fracdiff.fracops import TimeGrid
    from fracdiff.semilinear import (
        BracketPair,
        SemilinearProblem,
        SemilinearTerm,
        monotone_iterate,
    )
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(np.pi, c0=0.0), 21, 21)
    alpha, rho = 0.5, 0.1 / math.gamma(1.5)
    prob = SemilinearProblem(basis, alpha, 1.0 + 0.1 * np.cos(basis.grid),
                             SemilinearTerm.enzyme())
    pair = BracketPair(lambda x, t: np.zeros_like(x),
                       lambda x, t: 1.0 + 0.1 * np.cos(x) + rho * t**alpha)
    grid = TimeGrid.uniform(1.0, 40)

    def solve():
        return monotone_iterate(pair, prob, grid, k_max=60, gap_tol=1e-6)

    out = solve()  # warm-up
    if not out["converged"]:
        raise ArithmeticError(f"bracket did not close in {out['sweeps']} sweeps")

    def batch():
        for _ in range(SYSTEM_BATCH):
            solve()

    seconds = _median_cpu(batch, REPEATS) / SYSTEM_BATCH
    return seconds, _per_sweep(seconds, out)


def _cell(solve, sweep, digits):
    """The JSON cell of a solve: per solve, and per sweep when it has one."""
    cell = {"solve": round(solve, digits)}
    if sweep is not None:
        cell["sweep"] = round(sweep, digits + 1)
    return cell


def _said(solve, sweep):
    per_sweep = "" if sweep is None else f", {sweep:.5f} s per sweep"
    return f"{solve:.4f} s CPU per solve{per_sweep}"


def march_node_us(src):
    """CPU microseconds per node of linsolve.march on the UNIFORM_PICARD
    problem, its propagator and right-hand side closure made once."""
    sys.path.insert(0, src)
    ns = {}
    exec(UNIFORM_PICARD, ns)  # warm-up
    from fracdiff import linsolve

    prob, grid = ns["prob"], ns["grid"]
    shift, rhs = prob.rhs(prob.coefficients(grid.nodes), 2.0)
    props = [linsolve.ModalPropagator(prob.basis, prob.alpha, grid, shift)]

    def batch():
        for _ in range(UNIFORM_BATCH):
            linsolve.march(props, prob.initials, rhs, prob.m)

    return 1e6 * _median_cpu(batch, REPEATS) / (UNIFORM_BATCH * len(grid))


def scenario_files(src):
    """The scenario files of the L4 cli cell: tests/data/*.ini of this
    checkout, then the bundled scenarios of the measured one."""
    import glob

    return (sorted(glob.glob(os.path.join(ROOT, "tests", "data", "*.ini")))
            + sorted(glob.glob(os.path.join(src, "fracdiff", "scenarios", "*.ini"))))


def cli_run_s(src):
    """{file name: median CPU s} of an in-process cli.main run of each of
    scenario_files, after one warm call each; a round runs every file once."""
    sys.path.insert(0, src)
    import contextlib
    import io
    import tempfile

    from fracdiff import cli

    files = scenario_files(src)
    times = {f: [] for f in files}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for f in files:
            cli.main(["run", f, "--outdir", tmp])  # warm-up
        for _ in range(REPEATS):
            for f in files:
                t0 = time.process_time()
                cli.main(["run", f, "--outdir", tmp])
                times[f].append(time.process_time() - t0)
    return {os.path.basename(f): float(np.median(t)) for f, t in times.items()}


def _median(samples):
    """The median of a cell's samples, elementwise through tuples and dicts
    (None stays None, an int count stays an int)."""
    first = samples[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return tuple(_median(list(column)) for column in zip(*samples))
    if isinstance(first, dict):
        return {k: _median([s[k] for s in samples]) for k in first}
    m = float(np.median(samples))
    return int(m) if isinstance(first, int) and m.is_integer() else m


def _alternating(pool, cells):
    """{key: median of ROUNDS samples} of cells {key: (fn, args)}, each
    sample a fresh worker process; every round runs every cell once, in
    reverse order after a forward round."""
    samples = {key: [] for key in cells}
    for r in range(ROUNDS):
        order = list(cells.items())
        for key, (fn, args) in order[::-1] if r % 2 else order:
            samples[key].append(pool.apply(fn, args))
        print(f"round {r + 1} of {ROUNDS}: {len(cells)} cells", flush=True)
    return {key: _median(v) for key, v in samples.items()}


def fresh_process(src):
    """(CPU s, peak RSS MB) of one fresh interpreter running UNIFORM_PICARD."""
    code = (f"import sys\nsys.path.insert(0, {src!r})\n{UNIFORM_PICARD}"
            "import resource\nr = resource.getrusage(resource.RUSAGE_SELF)\n"
            "print(r.ru_utime + r.ru_stime, r.ru_maxrss)\n")
    cpu, kb = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout.split()
    return float(cpu), float(kb) / 1024


def _cells(src):
    """{key: (fn, args)} of every timed cell of the checkout src."""
    cells = {("ns", alpha, r): (ns_per_point, (src, alpha, r))
             for alpha in ALPHAS for r in REGIMES}
    cells.update({("ns", alpha, "contour_big"):
                  (ns_per_point, (src, alpha, "contour", CONTOUR_POINTS)) for alpha in ALPHAS})
    cells.update({("build", k, N): (propagator_build, (src, k, N)) for k, N in BUILD_GRIDS})
    cells["triple"] = (graded_triple_s, (src,))
    cells.update({("graded_picard", N): (graded_picard_s, (src, N)) for N in PICARD_N})
    cells["uniform"] = (uniform_picard_s, (src,))
    cells["march"] = (march_node_us, (src,))
    cells.update({("crossover", N): (crossover_picard_s, (src, N)) for N in CROSSOVER_N})
    cells.update({("system", k): (reaction_system_s, (src, k)) for k in ("system", "pair")})
    cells["monotone"] = (monotone_s, (src,))
    cells["cli"] = (cli_run_s, (src,))
    cells.update({("block", n, b): (contour_block_ns, (src, b, n))
                  for n in (BATCH, CONTOUR_POINTS) for b in CONTOUR_BLOCKS})
    cells.update({("group", p): (row_group_cell, (src, p, graded_triple_s)) for p in ROW_GROUPS})
    cells.update({("group_build", p): (row_group_cell, (src, p, propagator_build, "graded", 512))
                  for p in ROW_GROUPS})
    cells["fresh"] = (fresh_process, (src,))
    return cells


def _result(got, nodes, nodes_ns):
    """The JSON cells of one checkout from its medians got, its contour
    sweep nodes and the ns per point nodes_ns at each n's best (mu, h);
    prints them too."""
    result = {"ns_per_point": {}}
    for alpha in ALPHAS:
        row = {r: round(got["ns", alpha, r], 1) for r in REGIMES}
        row[f"contour_{CONTOUR_POINTS}"] = round(got["ns", alpha, "contour_big"], 1)
        result["ns_per_point"][f"alpha={alpha}"] = row
        print(f"alpha={alpha}: " + ", ".join(f"{r} {v:.0f} ns/pt" for r, v in row.items()))
    builds = {f"{k} N={N}": got["build", k, N] for k, N in BUILD_GRIDS}
    result["graded_solve_linear_triple_cpu_s"] = round(got["triple"], 4)
    result["graded_picard_cpu_s"] = {f"N={N}": round(got["graded_picard", N], 4) for N in PICARD_N}
    solve, sweep = got["uniform"]
    crossover = {N: got["crossover", N] for N in CROSSOVER_N}
    systems = {k: got["system", k] for k in ("system", "pair")}
    monotone = got["monotone"]
    blocks = {(n, b): got["block", n, b] for n in (BATCH, CONTOUR_POINTS) for b in CONTOUR_BLOCKS}
    groups = {p: (got["group", p], got["group_build", p]) for p in ROW_GROUPS}
    if nodes is not None:
        result["contour_nodes_sweep"] = {}
        for n, per_mu in nodes.items():
            row = {f"mu={m}": {"h": v[0], "worst_err": float(f"{v[1]:.3g}")}
                   for m, v in per_mu.items()}
            row["ns_per_point"] = round(nodes_ns[n], 1)
            result["contour_nodes_sweep"][f"n={n}"] = row
    result["propagator_build"] = {
        k: {"cpu_s": round(v[0], 4), "peak_mb": round(v[1], 2), "held_mb": round(v[2], 2),
            "ru_maxrss_mb": round(v[3], 1)}
        for k, v in builds.items()
    }
    if blocks[BATCH, CONTOUR_BLOCKS[0]] is not None:
        result["contour_block_ns_per_point"] = {
            f"n={n}": {str(b): round(blocks[n, b], 1) for b in CONTOUR_BLOCKS}
            for n in (BATCH, CONTOUR_POINTS)
        }
    if groups[ROW_GROUPS[0]][0] is not None:
        result["row_group_points"] = {
            str(p): {"triple_cpu_s": round(triple, 4), "graded_512_cpu_s": round(b[0], 4),
                     "graded_512_ru_maxrss_mb": round(b[3], 1)}
            for p, (triple, b) in groups.items()
        }
    result["uniform_picard_cpu_s"] = _cell(solve, sweep, 4)
    result["crossover_picard_cpu_s"] = {
        f"N={N}": {"solve": round(v, 4), "sweeps": n} for N, (v, n) in crossover.items()
    }
    result["reaction_system_cpu_s"] = {k: _cell(*v, 5) for k, v in systems.items()}
    result["monotone_cpu_s"] = _cell(*monotone, 5)
    result["march_us_per_node"] = round(got["march"], 2)
    result["cli_run_cpu_s"] = {k: round(v, 4) for k, v in got["cli"].items()}
    cpu, rss = got["fresh"]
    result["fresh_process"] = {"cpu_s": round(cpu, 3), "peak_rss_mb": round(rss, 1)}
    for k, v in result["propagator_build"].items():
        print(f"propagator build, {k}: {v['cpu_s']:.4f} s CPU (median of {REPEATS}), "
              f"tracemalloc peak {v['peak_mb']:.2f} MB, held {v['held_mb']:.2f} MB, "
              f"ru_maxrss {v['ru_maxrss_mb']:.1f} MB")
    print(f"graded solve_linear triple: {result['graded_solve_linear_triple_cpu_s']:.3f} s CPU "
          f"(median of {REPEATS})")
    print("graded picard_solve: " + ", ".join(
        f"{k} {v:.3f} s CPU" for k, v in result["graded_picard_cpu_s"].items()
    ) + f" (median of {PICARD_REPEATS})")
    print(f"uniform picard_solve: {_said(solve, sweep)} "
          f"(median of {REPEATS} batches of {UNIFORM_BATCH})")
    print("uniform picard_solve, 65 modes: " + ", ".join(
        f"N={N} {v:.3f} s CPU ({n} sweeps)" for N, (v, n) in crossover.items()
    ) + f" (median of {PICARD_REPEATS})")
    for k, (v, w) in systems.items():
        print(f"{k} solve: {_said(v, w)} (median of {REPEATS} batches of {SYSTEM_BATCH})")
    print(f"monotone_iterate: {_said(*monotone)} (median of {REPEATS} batches of {SYSTEM_BATCH})")
    print(f"march: {got['march']:.2f} us CPU per node (uniform, N = 96, 33 modes)")
    print("cli run: " + ", ".join(f"{k} {v:.4f} s CPU" for k, v in got["cli"].items())
          + f" (median of {REPEATS} rounds)")
    print(f"fresh process (import + uniform solve): {cpu:.3f} s CPU, peak RSS {rss:.1f} MB")
    for n, cells in result.get("contour_block_ns_per_point", {}).items():
        print(f"contour blocks, alpha=0.5, {n} points: "
              + ", ".join(f"{b} {v:.0f} ns/pt" for b, v in cells.items()))
    for n, row in result.get("contour_nodes_sweep", {}).items():
        print(f"contour nodes {n}: {row['ns_per_point']:.0f} ns/pt; " + ", ".join(
            f"{m} h={v['h']} worst {v['worst_err']:.2e}" for m, v in row.items()
            if m != "ns_per_point"))
    for p, v in result.get("row_group_points", {}).items():
        print(f"row group {p} points: triple {v['triple_cpu_s']:.4f} s CPU, graded N=512 "
              f"build {v['graded_512_cpu_s']:.4f} s CPU, ru_maxrss "
              f"{v['graded_512_ru_maxrss_mb']:.1f} MB")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", action="append",
                    help="key of a run in the output file (default: current), once per --src")
    ap.add_argument("--src", action="append",
                    help="directory holding a fracdiff package to measure (default: the src "
                         "next to this script); several are measured in the same rounds")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_mlf.json"))
    args = ap.parse_args(argv)
    labels = args.label or ["current"]
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(ROOT, "src")]]
    if len(labels) != len(srcs):
        ap.error(f"{len(labels)} labels for {len(srcs)} --src directories")
    import scipy

    cells = [_cells(src) for src in srcs]
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        # cell after cell, each checkout in turn, so the checkouts share every spell
        got = _alternating(pool, {(k, key): c[key]
                                  for key in cells[0] for k, c in enumerate(cells)})
        nodes = [pool.apply(contour_sweep, (src,)) for src in srcs]
        best = {(k, n): min(per_mu.items(), key=lambda kv: kv[1][1])
                for k, sweep in enumerate(nodes) if sweep is not None
                for n, per_mu in sweep.items()}
        nodes_ns = _alternating(pool, {(k, n): (contour_nodes_ns, (srcs[k], mu, h, n))
                                       for (k, n), (mu, (h, _)) in best.items()})
    results = {}
    for k, label in enumerate(labels):
        print(f"== {label} ({srcs[k]})")
        results[label] = _result({key: v for (j, key), v in got.items() if j == k}, nodes[k],
                                 {n: v for (j, n), v in nodes_ns.items() if j == k})
    environment = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": _cpu_model(),
    }

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["about"] = (
        "scripts/bench_mlf.py: CPU ns per point of ml_neg_vec per regime "
        f"(beta = 1, batches of {BATCH}, and of the contour also {CONTOUR_POINTS}); L1 "
        f"median CPU seconds of {REPEATS} builds of "
        "ModalPropagator(basis, 0.5, grid, 2.0) with 65 modes on TimeGrid.uniform(1, 1024) "
        "and TimeGrid.graded(1, N, 3), N = 256/512, with the tracemalloc peak and the MB "
        "held after the constructor, and the ru_maxrss of the building process; "
        "median CPU seconds of a graded "
        f"solve_linear triple (N = 64/88/112, 17 nodes), medians of {REPEATS} repeats; "
        "median CPU seconds of a graded enzyme picard_solve (r = 3, shift 2, 65 modes) "
        f"at N = {'/'.join(map(str, PICARD_N))}, medians of {PICARD_REPEATS}; "
        "median CPU seconds of a uniform enzyme picard_solve (N = 96, shift 2, 33 modes) "
        f"per solve, medians of {REPEATS} batches of {UNIFORM_BATCH}; median CPU seconds "
        "of the uniform enzyme picard_solve (shift 2, 65 modes) at N = "
        f"{'/'.join(map(str, CROSSOVER_N))} with its sweeps, medians of {PICARD_REPEATS}; "
        "median CPU seconds of a 3-component picard_system_solve (33 nodes, N = 64) and "
        "a semilinear_pair_solve (33 nodes, N = 64, T = 0.5) per solve; per sweep only "
        "for a solve reporting more than one sweep (a march is one pass), "
        f"medians of {REPEATS} batches of {SYSTEM_BATCH}; "
        "median CPU seconds of an enzyme monotone_iterate (21 nodes, N = 40, bracket "
        "[0, a + rho t^alpha], k_max 60) per solve and per sweep, medians of "
        f"{REPEATS} batches of {SYSTEM_BATCH}; "
        "median CPU seconds and peak RSS of a fresh process that imports fracdiff and "
        "runs that solve once; CPU microseconds per node of linsolve.march on that "
        f"solve, medians of {REPEATS} batches of {UNIFORM_BATCH}; median CPU seconds of an "
        "in-process cli.main(['run', f]) per tests/data/*.ini and bundled scenario after "
        f"one warm call, {REPEATS} rounds over the files; for a checkout with them, "
        "the contour's ns per point "
        f"(alpha = 0.5, {BATCH} and {CONTOUR_POINTS} points) per mlf._CONTOUR_BLOCK and the "
        "triple and "
        "the graded N = 512 build (CPU s, ru_maxrss) per linsolve.ROW_GROUP_POINTS, "
        "and per contour node count n the spacing h with the smallest worst error "
        "|E - oracle|/max(1, |oracle|) per vertex mu (oracle-table contour rows and "
        "the contour accuracy test's points) and the ns per point (alpha = 0.5, "
        f"{CONTOUR_POINTS} points) at the best (mu, h); each timed cell the median of "
        f"{ROUNDS} fresh processes in alternating rounds over every cell and every "
        "checkout measured in the same run"
    )
    for label, result in results.items():
        data[label] = {**result, "environment": environment}
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
