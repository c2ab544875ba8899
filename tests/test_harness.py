import os
import textwrap
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fracdiff import harness, linsolve, semilinear, systems
from fracdiff.harness import (
    Report,
    Scenario,
    ScenarioError,
    convergence_study,
    run_bundle,
    run_scenario,
)

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "fracdiff", "scenarios"
)
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def write_scenario(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


LINEAR = """
    [scenario]
    name = demo
    kind = linear

    [space]
    length = 3.141592653589793
    n_grid = 33

    [time]
    T = 1.0
    N = 64

    [problem]
    alpha = 0.5
    initial = 1 + 0.2*cos(x)
"""


def test_empty_scenario_zero_verdicts(tmp_path):
    text = LINEAR.replace("kind = linear", "kind = linear\n    comment = 100% linear")
    report = run_scenario(write_scenario(tmp_path, text), outdir=str(tmp_path))
    assert report.verdicts == [] and report.ok
    assert "comment: 100% linear" in report.body  # values are literal text
    assert "summary: 0 PASS, 0 FAIL, 0 NOT-APPLICABLE" in report.body
    assert (tmp_path / "demo.traj.csv").exists()
    assert (tmp_path / "demo.report.txt").exists()


def test_report_body_deterministic(tmp_path):
    path = write_scenario(tmp_path, LINEAR + "\n[property:pos]\ntype = nonneg\n")
    r1 = run_scenario(path, outdir=tmp_path)
    r2 = run_scenario(path, outdir=tmp_path)
    assert r1.body == r2.body
    assert r1.render() != r1.body  # runtime excluded from the body


def test_nonneg_property_linear(tmp_path):
    path = write_scenario(tmp_path, LINEAR + "\n[property:pos]\ntype = nonneg\n")
    report = run_scenario(path, outdir=tmp_path)
    assert report.verdicts == [("pos", "PASS")]

    gated = write_scenario(
        tmp_path,
        LINEAR.replace("1 + 0.2*cos(x)", "cos(x)")
        + "\n[property:pos]\ntype = nonneg\n",
        name="gated.ini",
    )
    report = run_scenario(gated, outdir=tmp_path)
    assert report.verdicts == [("pos", "NOT-APPLICABLE")]
    assert "initial data" in report.body


def test_bracket_property_explicit_bounds(tmp_path):
    text = LINEAR + """
    [property:box]
    type = bracket
    lower = 0
    upper = 1.2
    """
    report = run_scenario(write_scenario(tmp_path, text), outdir=tmp_path)
    assert report.verdicts == [("box", "PASS")]

    bad = LINEAR + """
    [property:box]
    type = bracket
    lower = 0
    upper = 1.1
    """
    report = run_scenario(
        write_scenario(tmp_path, bad, name="bad.ini"), outdir=tmp_path
    )
    assert report.verdicts == [("box", "FAIL")] and not report.ok


def test_comparison_property(tmp_path):
    text = LINEAR.replace("kind = linear", "kind = semilinear") + """
    term = enzyme(u)

    [property:order]
    type = comparison
    initial2 = 0.5 + 0.2*cos(x)
    """
    report = run_scenario(write_scenario(tmp_path, text), outdir=tmp_path)
    assert report.verdicts == [("order", "PASS")]

    swapped = LINEAR.replace("kind = linear", "kind = semilinear") + """
    term = enzyme(u)

    [property:order]
    type = comparison
    initial2 = 2 + 0.2*cos(x)
    """
    report = run_scenario(
        write_scenario(tmp_path, swapped, name="swap.ini"), outdir=tmp_path
    )
    assert report.verdicts == [("order", "NOT-APPLICABLE")]


def test_system_scenario_random_seeded(tmp_path):
    text = """
    [scenario]
    name = coop
    kind = system
    seed = 7

    [space]
    length = 3.141592653589793
    n_grid = 33

    [time]
    T = 1.0
    N = 32

    [problem]
    alphas = 0.4, 0.6, 0.8
    initials = 0.5 + 0.2*cos(x); 0.3; 0.1*(1+cos(x))
    couplings = random
    coupling_lo = 0.1
    coupling_hi = 0.4

    [property:pos]
    type = nonneg
    """
    path = write_scenario(tmp_path, text)
    r1 = run_scenario(path, outdir=str(tmp_path))
    r2 = run_scenario(path, outdir=tmp_path)
    assert r1.verdicts == [("pos", "PASS")]
    assert r1.body == r2.body  # same seed, byte-identical body
    for i in (1, 2, 3):
        assert (tmp_path / f"coop.comp{i}.traj.csv").exists()


def test_system_not_applicable_says_why(tmp_path):
    """A system whose hypotheses fail reports the failed one, as the pair
    and scalar kinds do."""
    text = """
    [scenario]
    name = anti
    kind = system

    [space]
    length = 3.141592653589793
    n_grid = 17

    [time]
    T = 1.0
    N = 16

    [problem]
    alphas = 0.5, 0.7
    initials = 0.5 + 0.2*cos(x); 0.3
    couplings = 0, -0.3; 0.2, 0

    [property:pos]
    type = nonneg
    """
    report = run_scenario(write_scenario(tmp_path, text), outdir=tmp_path)
    assert report.verdicts == [("pos", "NOT-APPLICABLE")]
    assert "property pos [nonneg]: NOT-APPLICABLE reason=p_12 takes negative values" \
        in report.body.splitlines()


def test_pair_scenario(tmp_path):
    text = """
    [scenario]
    name = coop_pair
    kind = pair

    [space]
    length = 3.141592653589793
    n_grid = 33

    [time]
    T = 1.0
    N = 32

    [problem]
    alpha = 0.5
    f = v^2
    g = u^2
    initial_u = 0.3 + 0.1*cos(x)
    initial_v = 0.2
    solver_shift = 1.0

    [property:pos]
    type = nonneg
    """
    report = run_scenario(
        write_scenario(tmp_path, text), outdir=str(tmp_path)
    )
    assert report.verdicts == [("pos", "PASS")]
    assert "case=1" in report.body
    assert (tmp_path / "coop_pair.u.traj.csv").exists()
    assert (tmp_path / "coop_pair.v.traj.csv").exists()


def test_convergence_study_linear(tmp_path):
    # homogeneous solves are exact at any N, so add a reaction term to
    # exercise the time discretization
    path = write_scenario(tmp_path, LINEAR + "    reaction = -0.5\n")
    rows = convergence_study(path, 3)
    assert [r[0] for r in rows] == [64, 128, 256]
    errs = [r[1] for r in rows]
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert rows[-1][2] is not None and rows[-1][2] >= 0.4  # O(dt^alpha) layer
    with pytest.raises(ValueError, match="3 levels"):
        convergence_study(path, 2)


def test_convergence_study_releases_level_tables(tmp_path):
    """The level and reference solves keep none of their tables: traced
    memory after convergence_study is within 1 MB of what it was before
    (the rows of its four graded grids, N = 16 to 128, take 2.9 MB)."""
    scn = Scenario.load(write_scenario(tmp_path, LINEAR.replace(
        "N = 64", "N = 16\n    grading = 2") + "    reaction = -0.5\n"))
    run_scenario(scn, outdir=tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        convergence_study(scn, 3)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 2**20


def test_convergence_property(tmp_path):
    text = LINEAR + """
    reaction = -0.5

    [property:conv]
    type = convergence
    levels = 3
    min_order = 0.4
    """
    report = run_scenario(write_scenario(tmp_path, text), outdir=tmp_path)
    assert report.verdicts == [("conv", "PASS")]


def test_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError, match="missing \\[space\\]"):
        Scenario.load(write_scenario(tmp_path, "[scenario]\nname = x\n"))
    bad_expr = LINEAR.replace("1 + 0.2*cos(x)", "1 + foo(x)")
    with pytest.raises(ScenarioError, match="position 4"):
        Scenario.load(write_scenario(tmp_path, bad_expr, name="b.ini"))
    bad_var = LINEAR.replace("1 + 0.2*cos(x)", "1 + 0.2*cos(t)")
    with pytest.raises(ScenarioError, match="only \\['x'\\]"):
        Scenario.load(write_scenario(tmp_path, bad_var, name="c.ini"))
    bad_type = LINEAR + "\n[property:p]\ntype = bogus\n"
    with pytest.raises(ScenarioError, match="bogus"):
        Scenario.load(write_scenario(tmp_path, bad_type, name="d.ini"))


def test_bundled_scenarios_all_pass(tmp_path):
    reports = run_bundle(SCENARIO_DIR, outdir=str(tmp_path))
    names = sorted(r.name for r in reports)
    assert names == ["decay_envelope", "enzyme_barrier"]
    for report in reports:
        assert report.ok, report.body
        # report bodies are pinned byte for byte
        golden = os.path.join(DATA_DIR, f"{report.name}.report.txt")
        with open(golden, encoding="utf-8") as fh:
            assert report.body == fh.read()


@pytest.mark.parametrize("name", ["coop_system", "coop_pair", "graded_linear"])
def test_pinned_reaction_system_bodies(tmp_path, name):
    """The report bodies of one system, one pair and one graded linear
    scenario (kept out of the shipped bundle) are pinned byte for byte."""
    report = run_scenario(os.path.join(DATA_DIR, f"{name}.ini"), outdir=str(tmp_path))
    assert report.ok, report.body
    with open(os.path.join(DATA_DIR, f"{name}.report.txt"), encoding="utf-8") as fh:
        assert report.body == fh.read()


def _count_samples(monkeypatch):
    """Count sample_history calls by (coefficient name, node count) and
    linsolve.solve calls of the harness by node count, in every module that
    imports either."""
    samples, solves = Counter(), Counter()
    real_sample, real_solve = linsolve.sample_history, linsolve.solve

    def sample(f, x, tnodes, name):
        samples[name, len(tnodes)] += 1
        return real_sample(f, x, tnodes, name)

    def solve(prob, grid, shift):
        solves[len(grid)] += 1
        return real_solve(prob, grid, shift)

    for mod in (linsolve, semilinear, systems, harness):
        monkeypatch.setattr(mod, "sample_history", sample)
    monkeypatch.setattr(harness, "solve", solve)
    return samples, solves


def test_system_run_samples_each_coefficient_once(tmp_path, monkeypatch):
    """The solve samples the couplings and forcings, and the nonneg gate
    reads those samples: each is sampled once."""
    samples, _ = _count_samples(monkeypatch)
    run_scenario(os.path.join(DATA_DIR, "coop_system.ini"), outdir=str(tmp_path))
    names = [f"p_{j}{k}" for j in (1, 2, 3) for k in (1, 2, 3)] + ["F_1", "F_2", "F_3"]
    assert dict(samples) == {(name, 65): 1 for name in names}


def test_linear_run_samples_once_per_solve(tmp_path, monkeypatch):
    """forcing, reaction and drift are sampled once per solve on the 33-node
    grid of graded_linear.ini (the run and the first convergence level), the
    nonneg gate reading the run's samples."""
    samples, solves = _count_samples(monkeypatch)
    run_scenario(os.path.join(DATA_DIR, "graded_linear.ini"), outdir=str(tmp_path))
    assert solves[33] == 2
    assert [samples[name, 33] for name in ("forcing", "reaction", "drift")] == [2, 2, 2]
