import math
import os
import textwrap
import warnings

import pytest

from fracdiff import harness, linsolve
from fracdiff.cli import main

SCENARIO_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "fracdiff", "scenarios"
)
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def write(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


SEMI = """
    [scenario]
    name = clidemo
    kind = semilinear

    [space]
    length = 3.141592653589793
    n_grid = 33

    [time]
    T = 1.0
    N = 64

    [problem]
    alpha = 0.5
    initial = 1 + 0.1*cos(x)
    term = enzyme(u)

    [monotone]
    lower = 0
    upper = 1.2

    [property:pos]
    type = nonneg
"""


def test_run_exit_codes(tmp_path, capsys):
    path = write(tmp_path, SEMI)
    assert main(["run", path, "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "property pos [nonneg]: PASS" in out
    assert (tmp_path / "clidemo.report.txt").exists()

    failing = write(
        tmp_path,
        SEMI + "\n[property:impossible]\ntype = bracket\nlower = 0\nupper = 0.5\n",
        name="fail.ini",
    )
    assert main(["run", failing, "--outdir", str(tmp_path)]) == 1


def test_solve_skips_properties(tmp_path, capsys):
    failing = write(
        tmp_path,
        SEMI + "\n[property:impossible]\ntype = bracket\nlower = 0\nupper = 0.5\n",
    )
    assert main(["solve", failing, "--outdir", str(tmp_path)]) == 0
    assert "summary: 0 PASS" in capsys.readouterr().out


def test_bundle_default_directory(tmp_path, capsys):
    assert main(["bundle", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "enzyme_barrier" in out and "decay_envelope" in out


def test_converge_table(tmp_path, capsys):
    path = write(tmp_path, SEMI)
    assert main(["converge", path, "--levels", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["N", "error", "order"]
    assert len(out) == 4


LINEAR = """
    [scenario]
    name = lindemo
    kind = linear

    [space]
    length = 3.141592653589793
    n_grid = 17

    [time]
    T = 1.0
    N = 16

    [problem]
    alpha = 0.6
    initial = 1 + 0.5*cos(x)
    reaction = -0.3*(1 + 0.5*cos(x))
    forcing = 0.2*(1 + cos(x))*exp(-t)
"""


def test_converge_linear_with_reaction_and_forcing(tmp_path, capsys):
    path = write(tmp_path, LINEAR)
    assert main(["converge", path, "--levels", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    errors = [float(r[1]) for r in rows]
    assert len(errors) == 3
    assert errors[0] > errors[1] > errors[2] > 0.0


def test_ml_eval(capsys):
    assert main(["ml-eval", "--alpha", "1.0", "--beta", "1.0", "--z", "1.0"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(math.e, rel=1e-12)


def test_monotone_subcommand(tmp_path, capsys):
    path = write(tmp_path, SEMI)
    assert main(["monotone", path, "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert (tmp_path / "clidemo.traj.csv").exists()


def test_monotone_bracket_not_closed_exits_1(tmp_path, capsys):
    """A bracket that does not close within k_max prints its line with
    converged=False, writes no trajectory and exits 1."""
    path = write(tmp_path, SEMI.replace("upper = 1.2", "upper = 1.2\n    k_max = 1"))
    assert main(["monotone", path, "--outdir", str(tmp_path)]) == 1
    assert "monotone: converged=False sweeps=1 " in capsys.readouterr().out
    assert not (tmp_path / "clidemo.traj.csv").exists()


def test_monotone_term_not_finite_on_the_box_exits_2(tmp_path, capsys):
    """-(u^0.5) is not finite below u = 0 in the box [-4.2, 4.2]: exit 2
    naming the amplitude, not a nan monotone shift."""
    text = SEMI.replace("term = enzyme(u)", "term = -(u^0.5)")
    path = write(tmp_path, text.replace("upper = 1.2", "upper = 1.2\n    k_max = 5"))
    assert main(["monotone", path, "--outdir", str(tmp_path)]) == 2
    assert "reaction term is not finite at u = -4.2 " in capsys.readouterr().err


def test_steady_subcommand(tmp_path, capsys):
    path = write(tmp_path, SEMI)
    assert main(["steady", path, "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "clidemo.steady.csv").exists()
    # enzyme steady state with Neumann data is u = 0
    assert "sup=" in capsys.readouterr().out


def test_compare_subcommand(tmp_path, capsys):
    path = write(
        tmp_path,
        SEMI + "\n[property:order]\ntype = comparison\n"
        "initial2 = 0.9 + 0.1*cos(x)\nterm2 = enzyme(u) - 0.1\n",
    )
    assert main(["compare", path, "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "property order [comparison]: PASS" in out
    assert "[nonneg]" not in out  # compare checks comparison properties only


def test_comparison_initial2_outside_the_box_is_not_applicable(tmp_path, capsys):
    """An initial2 above the first problem's box fails a_1 >= a_2: the
    second problem gets a box that holds it, and the verdict is
    NOT-APPLICABLE rather than a refused box."""
    text = SEMI.replace("initial = 1 + 0.1*cos(x)", "initial = 0.8 + 0.1*cos(x)")
    path = write(tmp_path, text + "\n[property:order]\ntype = comparison\ninitial2 = 10\n")
    assert main(["compare", path, "--outdir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    verdict = "property order [comparison]: NOT-APPLICABLE reason=a_1 >= a_2 fails"
    assert verdict in captured.out


TRUNCATED = """
    [scenario]
    name = truncated
    kind = linear

    [space]
    length = 2
    n_grid = 33
    n_modes = 17

    [time]
    T = 1
    N = 64

    [problem]
    alpha = 0.5
    initial = exp(-20*(x-1)^2)

    [property:pos]
    type = nonneg
"""
TRUNCATION = "reason=truncated basis: the discrete map need not preserve order"


@pytest.mark.parametrize("n_modes, line", [
    (17, f"property pos [nonneg]: NOT-APPLICABLE {TRUNCATION}"),
    (33, "property pos [nonneg]: PASS min_value=2.061151e-09"),
], ids=["truncated", "full"])
def test_order_verdict_needs_the_full_basis(tmp_path, capsys, n_modes, line):
    """On 17 of 33 modes the discrete map need not preserve order (its
    solution dips to -1.5e-5 with a >= 0 and no forcing), so the nonneg
    verdict is NOT-APPLICABLE; the full basis gives PASS."""
    path = write(tmp_path, TRUNCATED.replace("n_modes = 17", f"n_modes = {n_modes}"))
    assert main(["run", path, "--outdir", str(tmp_path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_comparison_on_a_truncated_basis_is_not_applicable(tmp_path, capsys):
    text = SEMI.replace("n_grid = 33", "n_grid = 33\n    n_modes = 17")
    path = write(tmp_path, text + "\n[property:order]\ntype = comparison\n"
                 "initial2 = 0.9 + 0.1*cos(x)\nterm2 = enzyme(u) - 0.1\n")
    assert main(["compare", path, "--outdir", str(tmp_path)]) == 0
    assert f"property order [comparison]: NOT-APPLICABLE {TRUNCATION}" \
        in capsys.readouterr().out.splitlines()


def test_system_subcommand_needs_system_kind(tmp_path, capsys):
    path = write(tmp_path, SEMI)
    assert main(["system", path, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: system needs kind = system\n"


BRACKET = "\n[property:box]\ntype = bracket\nlower = 0\n"


SYSTEM = """
    [scenario]
    name = sysdemo
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
    couplings = -0.05, 0.2; 0.3, -0.05

    [property:pos]
    type = nonneg
"""

STEADY_ENVELOPE = "\n[property:env]\ntype = envelope\nu_inf_mode = steady\n"

PAIR = """
    [scenario]
    name = pairdemo
    kind = pair

    [space]
    length = 3.141592653589793
    n_grid = 17

    [time]
    T = 0.5
    N = 16

    [problem]
    alpha = 0.5
    f = v^2
    g = u^2
    initial_u = 0.3 + 0.1*cos(x)
    initial_v = 0.2

    [property:pos]
    type = nonneg
"""


@pytest.mark.parametrize(
    "command, text, section",
    [
        ("run", SEMI.replace("term = enzyme(u)", ""), "[problem] needs term"),
        ("run", SEMI + BRACKET, "[property:box] needs upper"),
        ("monotone", SEMI.replace("upper = 1.2", ""), "[monotone] needs upper"),
        ("run", SEMI + BRACKET + "upper = 1.1 + u\n", "[property:box] upper"),
        ("run", SEMI + BRACKET + "upper = 1.1 +\n", "[property:box] upper"),
        ("monotone", SEMI.replace("upper = 1.2", "upper = 1.2 + u"), "[monotone] upper"),
        (
            "run",
            SEMI + "\n[property:env]\ntype = envelope\nu_inf = t\n",
            "[property:env] u_inf",
        ),
        (
            "run",
            SEMI + "\n[property:cmp]\ntype = comparison\ninitial2 = 1 + u\n",
            "[property:cmp] initial2",
        ),
        (
            "run",
            SEMI + "\n[property:cmp]\ntype = comparison\nterm2 = enzyme(u) + t\n",
            "[property:cmp] term2",
        ),
        ("run", SEMI + "tol = abc\n", "[property:pos] tol"),
        ("run", SEMI.replace("N = 64", "N = 2.5"), "[time] n"),
        ("run", SEMI.replace("kind = semilinear", "kind = semilinear\n    seed = x"),
         "[scenario] seed"),
        ("run", SEMI.replace("N = 64", "N = 64\n    grading = abc"), "[time] grading"),
        (
            "run",
            SEMI.replace("term = enzyme(u)", "term = enzyme(u)\n    solver_shift = two"),
            "[problem] solver_shift",
        ),
        ("run", SEMI + "tol = -1\n", "[property:pos] tol"),
        ("run", SEMI + "tol = nan\n", "[property:pos] tol"),
        (
            "run",
            SEMI + "\n[property:conv]\ntype = convergence\nlevels = 2\n",
            "[property:conv] levels",
        ),
        ("monotone", SEMI.replace("upper = 1.2", "upper = 1.2\n    k_max = 2.5"),
         "[monotone] k_max"),
        ("run", SEMI.replace("N = 64", "N = 64\n    grade = 3"), "[time] grade"),
        ("run", SEMI.replace("[property:pos]", "[propery:pos]"), "[propery:pos]"),
        ("run", SEMI.replace("N = 64", "N = 256\n    grading = 1000"), "[time] grading"),
        ("run", SEMI.replace("n_grid = 33", "n_grid = 33\n    c = 1 + cos(x)"), "[space] c"),
        ("run", SEMI.replace("length = 3.141592653589793", "length = 1e-200"),
         "[space] length"),
        ("system", SYSTEM.replace("alphas = 0.5, 0.7", "alphas = 0.7, 0.5"),
         "[problem] alphas"),
        ("run", SEMI.replace("initial = 1 + 0.1*cos(x)", "initial = 1e308"),
         "[problem] m"),
        ("run", PAIR.replace("initial_v = 0.2", "initial_v = 1e308"), "[problem] m"),
        ("run", PAIR.replace("initial_v = 0.2", "initial_v = 0.2\n    m = 0.35"),
         "[problem] m"),
        ("run", SEMI.replace("initial = 1 + 0.1*cos(x)", "initial = 1/x"),
         "[problem] initial: not finite at x=0.0"),
        ("run", LINEAR.replace("initial = 1 + 0.5*cos(x)", "initial = 1/x"),
         "[problem] initial: not finite at x=0.0"),
        ("system", SYSTEM.replace("0.5 + 0.2*cos(x); 0.3", "1; 1/x"),
         "[problem] initials: not finite at x=0.0"),
        ("run", PAIR.replace("initial_u = 0.3 + 0.1*cos(x)", "initial_u = 1/x"),
         "[problem] initial_u: not finite at x=0.0"),
        ("run", SEMI + "\n[property:cmp]\ntype = comparison\ninitial2 = 1/x\n",
         "[property:cmp] initial2: not finite at x=0.0"),
        ("run", SEMI + "\n[property:env]\ntype = envelope\nu_inf = 1/x\n",
         "[property:env] u_inf: not finite at x=0.0"),
        ("run", SEMI.replace("N = 64", "N = 8") + BRACKET + "upper = 1/(1-t)\n",
         "[property:box] upper: not finite at t=1.0"),
        ("run", SEMI.replace("N = 64", "N = 8") + BRACKET.replace("lower = 0", "lower = -1/(1-t)")
         + "upper = 2\n", "[property:box] lower: not finite at t=1.0"),
        ("monotone", SEMI.replace("N = 64", "N = 8").replace("upper = 1.2", "upper = 1/(1-t)"),
         "[monotone] upper: not finite at t=1.0"),
        ("run", SEMI.replace("term = enzyme(u)", "term = enzyme(u)\n    drift = 0.1")
         + STEADY_ENVELOPE, "[property:env] u_inf_mode: a steady state needs"),
        ("run", SEMI.replace("term = enzyme(u)", "term = enzyme(u)\n    reaction = -0.1")
         + STEADY_ENVELOPE, "[property:env] u_inf_mode: a steady state needs"),
        ("run", SEMI.replace("term = enzyme(u)", "term = enzyme(u)\n    forcing = 0.1")
         + STEADY_ENVELOPE, "[property:env] u_inf_mode: a steady state needs"),
        ("steady", SEMI.replace("term = enzyme(u)", "term = enzyme(u)\n    forcing = 0.1"),
         "steady: a steady state needs"),
        ("run", LINEAR.replace("n_grid = 17", "n_grid = 9").replace("N = 16", "N = 8")
         + BRACKET + "upper_mode = power_barrier\n",
         "[property:box] upper_mode: power_barrier needs kind = semilinear"),
    ],
    ids=[
        "problem-term-missing",
        "bracket-upper-missing",
        "monotone-upper-missing",
        "bracket-upper-uses-u",
        "bracket-upper-syntax",
        "monotone-upper-uses-u",
        "envelope-u_inf-uses-t",
        "comparison-initial2-uses-u",
        "comparison-term2-uses-t",
        "tol-not-a-number",
        "time-N-not-integer",
        "seed-not-integer",
        "grading-not-a-number",
        "solver_shift-not-a-number",
        "tol-negative",
        "tol-nan",
        "convergence-levels-below-3",
        "monotone-k_max-not-integer",
        "time-unknown-key",
        "unknown-section",
        "graded-nodes-underflow",
        "space-c-positive",
        "space-length-stiffness-overflows",
        "system-alphas-unordered",
        "semilinear-default-box-overflows",
        "pair-default-box-overflows",
        "pair-initial-outside-box",
        "semilinear-initial-1/x",
        "linear-initial-1/x",
        "system-initials-1/x",
        "pair-initial_u-1/x",
        "comparison-initial2-1/x",
        "envelope-u_inf-1/x",
        "bracket-upper-1/(1-t)",
        "bracket-lower--1/(1-t)",
        "monotone-upper-1/(1-t)",
        "steady-envelope-drift",
        "steady-envelope-reaction",
        "steady-envelope-forcing",
        "steady-command-forcing",
        "linear-bracket-power_barrier",
    ],
)
def test_invalid_scenario_exits_2_at_load(tmp_path, capsys, command, text, section):
    """Missing, unknown or ill-typed keys, out-of-range values and bad
    expressions are caught when the file is loaded: exit 2 and one stderr
    line naming the file, the section and the key."""
    path = write(tmp_path, text)
    assert main([command, path, "--outdir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert section in lines[0]


# forcings with a pole at the last node t = 1, which no solve reads
LINEAR_POLE = LINEAR.replace("N = 16", "N = 8").replace(
    "forcing = 0.2*(1 + cos(x))*exp(-t)", "forcing = 1/(1-t)")
SEMI_POLE = SEMI.replace("N = 64", "N = 8").replace(
    "term = enzyme(u)", "term = enzyme(u)\n    forcing = 1/(1-t)")


@pytest.mark.parametrize(
    "text, message",
    [
        (LINEAR.replace("forcing = 0.2*(1 + cos(x))*exp(-t)", "forcing = 1/x"),
         "error: {path}: [problem] forcing: not finite at t=0.0"),
        (LINEAR.replace("reaction = -0.3*(1 + 0.5*cos(x))", "reaction = 1e300"),
         "error: {path}: non-finite value at node 2 (t=0.125)"),
        (LINEAR_POLE, "error: {path}: [problem] forcing: not finite at t=1.0"),
        (SEMI_POLE, "error: {path}: [problem] forcing: not finite at t=1.0"),
        (SEMI.replace("term = enzyme(u)", "term = u/0"),
         "error: {path}: non-finite value at node 1 (t=0.015625)"),
        (SEMI.replace("length = 3.141592653589793", "length = 1e-200"),
         "[space] length: stiffness overflows"),
        (SYSTEM.replace("-0.05, 0.2; 0.3, -0.05",
                        "-0.05, 0.2; 0.3, -0.05\n    forcings = 0; 1/(1-t)"),
         "error: {path}: [problem] forcings: F_2 not finite at t=1.0"),
    ],
    ids=["linear-forcing-1/x", "linear-reaction-1e300", "linear-forcing-1/(1-t)",
         "semilinear-forcing-1/(1-t)", "semilinear-term-u/0", "space-length-1e-200",
         "system-forcings-1/(1-t)"],
)
def test_non_finite_exits_2_with_one_line_and_no_warning(tmp_path, capsys, text,
                                                         message):
    """A non-finite value stops the command with exit 2 and one stderr line;
    a non-finite coefficient sample is named by its file, section and key.
    NumPy's floating-point warnings stay silent."""
    path = write(tmp_path, text)
    message = message.format(path=path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path, "--outdir", str(tmp_path)]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in lines[0]


@pytest.mark.parametrize("text", [LINEAR_POLE, SEMI_POLE], ids=["linear", "semilinear"])
def test_non_finite_coefficient_refused_before_any_table(tmp_path, capsys, monkeypatch,
                                                        text):
    """A coefficient refused by its samples stops the command before any
    propagator is built: the solve samples first."""
    built = []
    real = linsolve.ModalPropagator
    monkeypatch.setattr(linsolve, "ModalPropagator",
                        lambda *args: built.append(args[1]) or real(*args))
    path = write(tmp_path, text)
    assert main(["run", path, "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: [problem] forcing: not finite at t=1.0\n"
    assert built == []


def test_oversize_graded_table_exits_2(tmp_path, capsys):
    """A graded grid whose kernel-weight rows exceed the table limit stops
    with exit 2 and one stderr line naming N, M and the size."""
    path = write(tmp_path, SEMI.replace("N = 64", "N = 20000\n    grading = 2"))
    assert main(["solve", path, "--outdir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "N = 20000, M = 33 modes take" in lines[0]


def test_envelope_subcommand(tmp_path, capsys):
    bundled = os.path.join(SCENARIO_DIR, "decay_envelope.ini")
    assert main(["envelope", bundled, "--outdir", str(tmp_path)]) == 0
    assert "envelope]: PASS" in capsys.readouterr().out


def test_error_reporting(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["run", missing]) == 2
    assert "error:" in capsys.readouterr().err


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRACDIFF_OUTPUT_DIR", str(tmp_path / "outs"))
    path = write(tmp_path, SEMI)
    assert main(["solve", path]) == 0
    assert (tmp_path / "outs" / "clidemo.traj.csv").exists()


CHECKED = SEMI.replace("N = 64", "N = 16") + (
    "\n[property:order]\ntype = comparison\ninitial2 = 0.9 + 0.1*cos(x)\n"
    "\n[property:conv]\ntype = convergence\nmin_order = 0.1\n"
)


@pytest.mark.parametrize(
    "command",
    ["run", "solve", "compare", "envelope", "system", "monotone", "steady", "converge"],
)
def test_one_eigendecompose_per_command(tmp_path, capsys, monkeypatch, command):
    """The scenario owns its basis: each command decomposes the operator
    once, including the convergence property's study."""
    calls = []
    real = harness.eigendecompose
    monkeypatch.setattr(
        harness, "eigendecompose", lambda *args: calls.append(args) or real(*args)
    )
    path = write(tmp_path, SYSTEM if command == "system" else CHECKED)
    extra = ["--levels", "3"] if command == "converge" else ["--outdir", str(tmp_path)]
    assert main([command, path, *extra]) == 0, capsys.readouterr()
    assert len(calls) == 1


# the steady state of 1 - u with the operator shift c0 = 1 is 1/2
RELAXING = """
    [scenario]
    name = relaxing
    kind = semilinear

    [space]
    length = 3.141592653589793
    n_grid = 17

    [time]
    T = 150
    N = 256

    [problem]
    alpha = 0.7
    initial = 0.8 + 0.1*cos(x)
    term = 1 - u
    solver_shift = 1

    [property:steady]
    type = envelope
    u_inf_mode = steady

    [property:explicit]
    type = envelope
    u_inf = 0.5
"""


@pytest.mark.parametrize(
    "text",
    [
        RELAXING,
        RELAXING.replace("kind = semilinear", "kind = linear")
        .replace("term = 1 - u\n", "").replace("solver_shift = 1\n", "")
        .replace("u_inf = 0.5", "u_inf = 0"),
    ],
    ids=["semilinear", "linear"],
)
def test_steady_envelope_is_that_of_the_solved_equation(tmp_path, capsys, text):
    """u_inf_mode = steady uses the steady state of the equation the solver
    advances, operator shift c0 included: its line reads exactly as the
    line of that steady state given explicitly (1/2, and 0 without f)."""
    path = write(tmp_path, text)
    assert main(["envelope", path, "--outdir", str(tmp_path)]) == 0
    verdicts = dict(
        line.split(" [envelope]: ") for line in capsys.readouterr().out.splitlines()
        if line.startswith("property ")
    )
    assert verdicts["property steady"] == verdicts["property explicit"]
    assert verdicts["property steady"].startswith("PASS ")


def test_steady_subcommand_includes_operator_shift(tmp_path, capsys):
    path = write(tmp_path, RELAXING)
    assert main(["steady", path, "--outdir", str(tmp_path)]) == 0
    assert "steady: sup=5.000000e-01 " in capsys.readouterr().out
    rows = (tmp_path / "relaxing.steady.csv").read_text().splitlines()[1:]
    u = [float(row.split(",")[1]) for row in rows]
    assert max(abs(v - 0.5) for v in u) < 1e-10


def test_amplitude_escape_names_the_file(tmp_path, capsys):
    """A solve that leaves its box stops with exit 2 and one stderr line
    naming the file, as load errors do: coop_pair.ini with reactions five
    times as strong escapes its default box."""
    with open(os.path.join(DATA_DIR, "coop_pair.ini"), encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("f = 0.8*v*(1 + u^2)", "f = 5*v*(1 + u^2)")
    text = text.replace("g = 1.2*u*(1 + v^2)", "g = 5*u*(1 + v^2)")
    path = tmp_path / "escape.ini"
    path.write_text(text)
    assert main(["run", str(path), "--outdir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: amplitude escape at node ")


@pytest.mark.parametrize("text, parts", [(SYSTEM, ["comp1", "comp2"]), (PAIR, ["u", "v"])],
                         ids=["system", "pair"])
def test_component_csv_formatted_once(tmp_path, capsys, monkeypatch, text, parts):
    """<name>.traj.csv of a system or pair is the first component's file,
    byte for byte, and each component's text is formatted once."""
    formatted = []
    real = linsolve.Trajectory.to_csv
    monkeypatch.setattr(linsolve.Trajectory, "to_csv",
                        lambda tr, path: formatted.append(id(tr)) or real(tr, path))
    path = write(tmp_path, text)
    assert main(["run", path, "--outdir", str(tmp_path)]) == 0
    name = "sysdemo" if text is SYSTEM else "pairdemo"
    first = (tmp_path / f"{name}.{parts[0]}.traj.csv").read_bytes()
    assert (tmp_path / f"{name}.traj.csv").read_bytes() == first
    assert (tmp_path / f"{name}.{parts[1]}.traj.csv").exists()
    assert len(formatted) == len(set(formatted)) == len(parts)


def test_successive_calls_share_no_state(tmp_path, capsys, monkeypatch):
    """In-process calls of main reuse one parser but no arguments: an
    --outdir, --levels or a refused argv leaves the next call as it would
    be in a fresh process."""
    path = write(tmp_path, LINEAR)
    first, later = tmp_path / "first", tmp_path / "later"
    assert main(["run", path, "--outdir", str(first)]) == 0
    assert (first / "lindemo.traj.csv").exists()
    capsys.readouterr()
    assert main(["converge", path, "--levels", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--levels", "4"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("FRACDIFF_OUTPUT_DIR", str(later))
    assert main(["run", path]) == 0
    assert "summary:" in capsys.readouterr().out
    assert (later / "lindemo.traj.csv").exists()
    assert sorted(os.listdir(first)) == ["lindemo.report.txt", "lindemo.traj.csv"]
