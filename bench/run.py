"""Layered benchmark for fracdiff: one workload, one run, one JSON result.

    python3 bench/run.py --workload scenarios|graded|fixed_point \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.  One closed-loop client in
this process runs the workload's seeded operations (rounds of one step of
each kind) back to back until they have used S seconds of CPU time; each
result is checked after its timer stops.  Times are CPU time of this single
process (of the probe process for set-up): on a shared host they leave out
the time other tenants hold the CPU, which wall time does not.  The wall-time
figures are in the details line.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs the same
untraced loop, then replays a fixed prefix of the rounds with every public
fracdiff function wrapped in a span, and prints the per-layer metrics; the
spans are written to ``.bench_out/``.  The last stdout line is the result
JSON; the line before it holds the details (environment, tail percentile,
failures, the grid-cache probe).  See bench/README.md for the workloads and
metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# the worker is single-threaded: small dense kernels gain nothing from BLAS
# threads, and one thread keeps timings steady on a shared machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAP = "1"

SETUP_PROBES = 3
# rounds replayed under the tracer, so the per-layer counts of one seed
# repeat exactly
TRACE_ROUNDS = {"scenarios": 2, "graded": 8, "fixed_point": 4}
# coarse steps, so the chosen percentile stays put while the round count
# moves within a band (p75 holds from 40 to 99 rounds, p90 to 999)
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 99.0)
TAIL_BEYOND = 10


def _parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _fail(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _setup_probe():
    """(CPU seconds, wall seconds) a fresh interpreter spends until it has
    imported fracdiff and finished the warm-up solve."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return cpu, float(proc.stdout.split()[-1]) - t0


def _environment():
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Loop:
    """Closed-loop runner: runs rounds one after another and keeps their
    times, failures and check results."""

    def __init__(self, workloads, workload, seed, workdir, tracer=None):
        self.w = workloads
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.tracer = tracer
        self.rounds = []  # (cpu seconds, wall seconds, ok) per attempted round
        self.step_cpu = {}  # step kind -> CPU seconds of each of its steps
        self.failures = []
        self.wrong = 0  # steps that returned a wrong answer
        self.timed = 0.0

    def run_round(self, r):
        # start each round without garbage from the last one
        gc.collect()
        cpu = wall = 0.0
        ok = True
        tr = self.tracer
        for step in self.w.make_round(self.workload, self.seed, r, self.workdir):
            step.prepare()
            if tr is not None:
                tr.enabled = True
                span = tr.open(tr.OP_SPAN)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = step.run()
                error = None
            except Exception as exc:  # every exception is a failed step
                error = exc
            dc, dw = time.process_time() - c0, time.perf_counter() - t0
            if tr is not None:
                tr.close(span)
                tr.enabled = False
            cpu += dc
            wall += dw
            self.step_cpu.setdefault(step.kind, []).append(dc)
            if error is None:
                try:
                    step.check(out)
                except Exception as exc:
                    self.wrong += 1
                    error = exc
                    self._record(r, step.kind, "check", exc)
            else:
                self._record(r, step.kind, "run", error)
            ok = ok and error is None
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
        self.timed += cpu
        self.rounds.append((cpu, wall, ok))

    def _record(self, r, kind, stage, exc):
        self.failures.append({
            "round": r, "kind": kind, "stage": stage,
            "error": type(exc).__name__, "message": str(exc)[:300],
        })

    def run_for(self, seconds, min_rounds=0):
        while self.timed < seconds or len(self.rounds) < min_rounds:
            self.run_round(len(self.rounds))

    def ok_times(self, first=None, clock=0):
        return [t[clock] for t in self.rounds[:first] if t[2]]

    def ops_per_s(self, first=None, clock=0):
        total = sum(t[clock] for t in self.rounds[:first])
        return len(self.ok_times(first)) / total if total > 0 else 0.0


def _tail(samples):
    """Highest TAIL_PERCENTILES entry with TAIL_BEYOND samples above it."""
    import numpy as np

    n = len(samples)
    p = max((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= TAIL_BEYOND),
            default=TAIL_PERCENTILES[0])
    value = float(np.percentile(samples, p))
    return value, {"percentile": p, "samples": n,
                   "beyond": sum(1 for s in samples if s > value)}


def main():
    args = _parse_args()
    if not os.path.isfile(os.path.join(SRC, "fracdiff", "__init__.py")):
        _fail(f"no fracdiff sources at {SRC}: run from the root of a checkout")
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    sys.path.insert(0, SRC)

    import fracdiff

    if os.path.dirname(os.path.abspath(fracdiff.__file__)) != os.path.join(SRC, "fracdiff"):
        _fail(f"fracdiff imported from {fracdiff.__file__}, not from {SRC}")
    import setup_probe
    import workloads

    setup_probe.warm_up()
    setup = [] if args.trace else [_setup_probe() for _ in range(SETUP_PROBES)]

    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    k = TRACE_ROUNDS[args.workload]
    try:
        loop = Loop(workloads, args.workload, args.seed, workdir)
        loop.run_for(args.seconds, min_rounds=k if args.trace else 0)
        loops = [loop]
        if args.trace:
            import tracer

            tr = tracer.Tracer()
            tracer.install(tr, rebind=(workloads,))
            traced = Loop(workloads, args.workload, args.seed, workdir, tracer=tr)
            traced.run_for(0.0, min_rounds=k)
            loops.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe = workloads.grid_cache_probe()

    attempted = sum(len(lp.rounds) for lp in loops)
    failed = sum(1 for lp in loops for t in lp.rounds if not t[2])
    samples = loop.ok_times()
    tail, tail_info = _tail(samples) if samples else (0.0, {})
    wall = loop.ok_times(clock=1)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": _environment(),
        "sizes": workloads.SIZES[args.workload],
        "steps_per_round": workloads.ROUND[args.workload],
        "rounds": len(loop.rounds), "timed_cpu_s": loop.timed, "op_tail": tail_info,
        "failed_ratio": failed / attempted,
        "failures": [f for lp in loops for f in lp.failures],
        "grid_cache_probe": probe,
        "setup_samples_cpu_s": [c for c, _ in setup],
        "setup_samples_wall_s": [w for _, w in setup],
        "wall": {
            "ops_per_s": loop.ops_per_s(clock=1),
            "op_p50_s": statistics.median(wall) if wall else 0.0,
        },
        "round_cpu_s": [round(t[0], 6) for t in loop.rounds],
        "per_kind_p50_cpu_s": {
            kind: statistics.median(v) for kind, v in sorted(loop.step_cpu.items())
        },
    }

    if args.trace:
        untraced = loop.ops_per_s(first=k)
        metrics = tracer.layer_metrics(tr, untraced, traced.ops_per_s())
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tr.dump(path)
        details["trace_file"] = os.path.relpath(path, ROOT)
        details["untraced_ops_per_s_same_rounds"] = untraced
        details["traced_rounds"] = k
    else:
        metrics = {
            "setup_s": {"value": statistics.median(c for c, _ in setup), "unit": "s"},
            "ops_per_s": {"value": loop.ops_per_s(), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(samples) if samples else 0.0, "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':40s} {details['failed_ratio']:.6g} 1")
    for f in details["failures"]:
        print(f"failure: round {f['round']} {f['kind']} [{f['stage']}] "
              f"{f['error']}: {f['message']}")
    print(f"grid cache probe: {probe['verdict']} ({probe['detail']})")
    print(json.dumps(details))
    print(json.dumps({
        "correct": all(lp.wrong == 0 for lp in loops),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
