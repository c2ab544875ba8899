"""Tiny-size self-test of the benchmark (not part of the tier-1 suite).

    python3 bench/selftest.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
for one second with and without tracing, validates the result line's schema
and metric names, and checks that a directory holding only BENCHMARK.json
and bench/ makes the benchmark exit non-zero without printing a result.
Exits 1 on the first problem.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _require(cond, message):
    if not cond:
        print(f"FAIL {message}")
        sys.exit(1)


def check_spec(spec):
    _require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    _require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
             "run_seconds")
    _require(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for w in spec["workloads"]:
        _require(set(w) == {"name", "why"} and len(w["why"]) <= 200
                 and "\n" not in w["why"], f"workload {w}")
        names.append(w["name"])
    _require(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    _require(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["end_to_end"]:
        _require(set(m) == {"name", "unit", "better", "bound"}
                 and 0 < m["bound"] <= 0.25, f"metric {m}")
    for m in spec["per_layer"]:
        _require(set(m) == {"name", "unit", "better"}, f"metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        _require(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
                 f"unit/better of {m['name']}")
        names.append(m["name"])
    _require(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
             "names are valid and unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    _require(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
             and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
             "setup_s has the largest bound")
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import tracer

    _require([m["name"] for m in spec["per_layer"]] == [n for n, _ in tracer.PER_LAYER],
             "per_layer matches tracer.PER_LAYER")


def run_bench(cwd, command, workload, trace):
    return subprocess.run(
        command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(proc, expected):
    _require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _require(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    _require(result["correct"] is True, f"correct is {result['correct']}")
    _require(isinstance(result["attempted"], int) and result["attempted"] >= 1
             and isinstance(result["failed"], int), "attempted/failed")
    got = result["metrics"]
    _require(set(got) == set(expected), f"metric names {sorted(set(got) ^ set(expected))}")
    for name, m in got.items():
        _require(set(m) == {"value", "unit"} and m["unit"] == expected[name]
                 and isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                 f"metric {name}: {m}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("ok   BENCHMARK.json")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            check_result(run_bench(ROOT, spec["command"], w["name"], trace), expected)
            print(f"ok   {w['name']} --trace {trace}")

    bare = tempfile.mkdtemp(prefix=".bench_tmp_selftest_", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["command"], spec["workloads"][0]["name"], 0)
        _require(proc.returncode != 0 and not proc.stdout.strip(),
                 "a directory without the sources must fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   fails without sources")
    print("selftest passed")


if __name__ == "__main__":
    main()
