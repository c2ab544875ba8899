"""The benchmark's steps against the package as it is.

bench/workloads.py calls the package API with fixed signatures and result
shapes.  Here the first round of each workload prepares, runs and checks
every step, and the grid-cache probe passes, and every name that
bench/tracer.py wraps resolves, so an API change that breaks the benchmark
fails tier-1.  The module is compiled from its file, which
is neither changed nor given a bytecode cache.
"""

import importlib
import os
import sys
import types

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    mod = types.ModuleType("bench_workloads")
    mod.__file__ = WORKLOADS
    sys.modules[mod.__name__] = mod  # dataclasses look their module up
    try:
        with open(WORKLOADS, encoding="utf-8") as fh:
            exec(compile(fh.read(), WORKLOADS, "exec"), vars(mod))
        yield mod
    finally:
        del sys.modules[mod.__name__]


@pytest.mark.parametrize("workload", ["graded", "fixed_point", "scenarios"])
def test_benchmark_round_runs_and_checks(workloads, workload, tmp_path):
    steps = workloads.make_round(workload, 42, 0, str(tmp_path))
    assert steps
    for step in steps:
        step.prepare()
        step.check(step.run())


def test_grid_cache_probe_passes(workloads):
    assert workloads.grid_cache_probe()["verdict"] == "PASS"


@pytest.mark.parametrize("layer", ["mlf", "fracops", "spectral", "linsolve", "semilinear",
                                   "systems", "expressions", "harness", "cli"])
def test_every_public_name_resolves(layer):
    """bench/tracer.install calls getattr on every __all__ entry of the nine
    modules, so a stale entry breaks every traced run."""
    mod = importlib.import_module(f"fracdiff.{layer}")
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
