"""The benchmark's own tests (tiny inputs; about a minute).

    python3 -m pytest e2ebench/selftest.py

Named outside pytest's ``test_*.py`` pattern so the repository's test
suite does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace), "--tiny")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()
            } == {entry["name"]: entry["unit"] for entry in spec}
    for name, entry in result["metrics"].items():
        assert any(line.split()[:1] == [name]
                   and line.split()[2] == entry["unit"] for line in lines)
    assert any(line.startswith("verdict_mismatches ") for line in lines)
    assert any(line.startswith("error_frac ") for line in lines)


@pytest.mark.parametrize("workload", ["verify-unique", "sweep-serial"])
def test_wrong_expected_verdict_fails_the_command(workload):
    code, lines = bench("--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", "0", "--tiny",
                        "--plant-mismatch")
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    counted = [line.split()[1] for line in lines
               if line.startswith("verdict_mismatches ")]
    assert counted and int(counted[0]) > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = bench("--workload", "verify-unique", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_layer_self_times_add_up_to_the_covered_time(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.eval.pipeline import Evaluator
    from repro.problems import ALL_PROBLEMS

    problem = ALL_PROBLEMS[0]
    instrument = tracer.Tracer(str(tmp_path))
    instrument.install()
    try:
        verdict = Evaluator().evaluate(problem, problem.canonical_body)
    finally:
        instrument.uninstall()
    assert verdict.passed
    report = instrument.report()
    layers = report["layers"]
    assert layers["verilog.parser|design"][0] == 1
    assert layers["verilog.parser|bench"][0] == 1
    assert layers["eval.pipeline|"][0] == 1
    total = sum(seconds for _, seconds in layers.values())
    assert total == pytest.approx(report["covered_s"], rel=1e-9)
    values = tracer.layer_metrics(report, report["covered_s"], 0, 0.0, {})
    assert values["eval.pipeline.misses"] == 1
    assert values["verilog.codegen.builds"] == 1
    assert sum(values[name] for name in tracer.SELF_TIME_METRICS) == (
        pytest.approx(report["covered_s"], rel=1e-9))
