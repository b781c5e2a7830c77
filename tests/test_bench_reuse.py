"""The bench run reuses the compiled design and a once-parsed test bench.

``Evaluator`` hands ``run_simulation`` the design's CompileReport and
only the test bench text; the result must be exactly what a bench
compiled from the concatenated ``bench_source`` text gives, line
numbers included.
"""

from __future__ import annotations

import random
import subprocess
import sys
from unittest import mock

import pytest

from repro.api import run_sweep
from repro.eval import SweepConfig, pipeline
from repro.eval.export import evaluation_to_dict
from repro.eval.pipeline import Evaluator
from repro.eval.truncate import truncate_completion
from repro.models import mutations
from repro.obs.profile import SimProfiler
from repro.problems import ALL_PROBLEMS, Problem, PromptLevel
from repro.verilog import compile as compile_
from repro.verilog import compile_design, parse, run_simulation


def text_bench_evaluate(problem, body, level, compile_sim):
    """The evaluation with its bench compiled from the bench_source text."""
    bench = problem.bench_source(truncate_completion(body), level)

    def text_only(testbench, *, design, first_line, **kwargs):
        assert testbench == problem.testbench
        return compile_.run_simulation(bench, **kwargs)

    with mock.patch.object(pipeline, "run_simulation", text_only):
        return Evaluator(compile_sim=compile_sim).evaluate(
            problem, body, level
        )


def corpus(problem, rng):
    """Reference, wrong variants, and a seeded mutant pair of each."""
    bases = [problem.canonical_body] + [
        variant.body for variant in problem.wrong_variants
    ]
    bodies = []
    for base in bases:
        bodies += [base, mutations.broken_completion(base, rng),
                   mutations.cosmetic_variant(base, rng)]
    return bodies


class TestCorpusParity:
    @pytest.mark.parametrize("compile_sim", [False, True],
                             ids=["interpreter", "compiled"])
    @pytest.mark.parametrize("level", list(PromptLevel), ids=str)
    def test_matches_text_bench(self, level, compile_sim):
        rng = random.Random(0xBE7C4)
        evaluator = Evaluator(compile_sim=compile_sim)
        for problem in ALL_PROBLEMS:
            for body in corpus(problem, rng):
                expected = text_bench_evaluate(
                    problem, body, level, compile_sim
                )
                got = evaluator.evaluate(problem, body, level)
                assert evaluation_to_dict(got) == \
                    evaluation_to_dict(expected), (problem.number, body)


DESIGN = (
    "module m(input a, output y);\n"
    "  assign y = ~a;\n"
    "endmodule\n"
)
# test bench line 1 is line 5 of DESIGN + "\n" + bench
BENCHES = {
    "unknown-port": (
        "module tb;\n"
        "  reg a; wire y;\n"
        "  m u(.a(a), .zz(y));\n"
        "endmodule\n",
        "elaborate", 7, "module 'm' has no port 'zz'",
    ),
    "undeclared": (
        "module tb;\n"
        "  reg a; wire y;\n"
        "  m u(.a(a), .y(y));\n"
        "  initial begin a = 0; #1 $display(\"%b\", q); end\n"
        "endmodule\n",
        "elaborate", 8, "undeclared identifier 'q'",
    ),
    "no-timing-control": (
        "module tb;\n"
        "  reg x;\n"
        "  always x = ~x;\n"
        "endmodule\n",
        "sim", 7, "always block without timing control",
    ),
    "statement-line": (
        "module tb;\n"
        "  integer i;\n"
        "  initial begin\n"
        "    i = 0;\n"
        "    #1 disable blk;\n"
        "  end\n"
        "endmodule\n",
        "sim", 9, "disable is not supported",
    ),
    "unsupported-call": (
        "module tb;\n"
        "  reg a; wire y;\n"
        "  m u(.a(a), .y(y));\n"
        "  initial begin a = 0; #1 $display(\"%b\", $foo(y)); end\n"
        "endmodule\n",
        "sim", 8, "unsupported system function '$foo'",
    ),
    "xz-bounds": (
        "module tb;\n"
        "  reg [3:0] y;\n"
        "  initial begin\n"
        "    y = 4'd3;\n"
        "    $display(\"%b\", y[1'bx:0] + 4'd1);\n"
        "  end\n"
        "endmodule\n",
        "sim", 9, "constant expression has x/z bits",
    ),
    "bench-syntax": (
        "module tb;\n"
        "  reg a;\n"
        "  @\n"
        "endmodule\n",
        "parse", 7, "unexpected token '@'",
    ),
}


def both_forms(bench, compile_sim, profiler=None):
    """(text-only, design=) runs of DESIGN + bench, each as a
    (report, sim result, profiler) triple."""
    text_profiler = profiler() if profiler else None
    text_report, text_sim = run_simulation(
        DESIGN + "\n" + bench, top="tb", compile_sim=compile_sim,
        profiler=text_profiler,
    )
    design = compile_design(DESIGN)
    assert design.ok
    design_profiler = profiler() if profiler else None
    report, sim = run_simulation(
        bench, top="tb", compile_sim=compile_sim, profiler=design_profiler,
        design=design, first_line=Problem.testbench_line(DESIGN),
    )
    return ((text_report, text_sim, text_profiler),
            (report, sim, design_profiler))


def observed(report, sim, profiler):
    return (report.ok, report.errors, report.stage, report.line,
            report.sim_engine, sim.output if sim else None,
            sorted(profiler.constructs) if profiler else None)


class TestRenumbering:
    @pytest.mark.parametrize("compile_sim", [False, True],
                             ids=["interpreter", "compiled"])
    @pytest.mark.parametrize("case", sorted(BENCHES))
    def test_bench_lines_match_the_text_form(self, case, compile_sim):
        bench, stage, line, message = BENCHES[case]
        text_run, design_run = both_forms(bench, compile_sim)
        assert observed(*design_run) == observed(*text_run)
        report = design_run[0]
        assert (report.stage, report.line) == (stage, line)
        assert report.errors[0].startswith(
            ("runtime: " if stage == "sim" else "") + f"line {line}:")
        assert message in report.errors[0]

    @pytest.mark.parametrize("compile_sim", [False, True],
                             ids=["interpreter", "compiled"])
    @pytest.mark.parametrize("case", ["no-timing-control",
                                      "unsupported-call"])
    def test_profiler_constructs_match(self, case, compile_sim):
        text_run, design_run = both_forms(
            BENCHES[case][0], compile_sim, profiler=SimProfiler
        )
        assert observed(*design_run) == observed(*text_run)
        line = BENCHES[case][2]
        assert any(key[2] == line for key in design_run[2].constructs)

    @pytest.mark.parametrize("case, line", [("unsupported-call", 8),
                                            ("xz-bounds", 7)])
    def test_engine_fallback_lines(self, case, line):
        text_run, design_run = both_forms(BENCHES[case][0], compile_sim=True)
        plan = design_run[0].sim_engine
        assert plan["fallbacks"] == text_run[0].sim_engine["fallbacks"]
        assert [entry["line"] for entry in plan["fallbacks"]] == [line]

    def test_design_lines_are_left_alone(self):
        design_source = (
            "module m(input a, output reg y);\n"
            "  always y = ~y;\n"
            "endmodule\n"
        )
        bench = "module tb;\n  reg a; wire y;\n  m u(.a(a), .y(y));\nendmodule\n"
        design = compile_design(design_source)
        report, _ = run_simulation(
            bench, top="tb", design=design,
            first_line=Problem.testbench_line(design_source),
        )
        expected, _ = run_simulation(design_source + "\n" + bench, top="tb")
        assert (report.stage, report.line) == ("sim", 2)
        assert report.errors == expected.errors

    def test_design_must_have_compiled(self):
        design = compile_design("module m(;\nendmodule\n")
        with pytest.raises(ValueError):
            run_simulation("module tb;\nendmodule\n", design=design)


class TestTestbenchCache:
    def test_each_testbench_is_parsed_once(self):
        problem = ALL_PROBLEMS[0]
        compile_._testbench_unit.cache_clear()
        calls = []
        real = compile_.parse

        def counting(source, first_line=1):
            calls.append(first_line)
            return real(source, first_line=first_line)

        rng = random.Random(5)
        evaluator = Evaluator()
        with mock.patch.object(compile_, "parse", counting):
            for _ in range(3):
                body = mutations.cosmetic_variant(problem.canonical_body, rng)
                assert evaluator.evaluate(problem, body).passed
        assert evaluator.cache_misses == 3
        assert calls.count(compile_.BENCH_BASE) == 1
        assert len(calls) == 4  # three designs, one test bench

    def test_cache_is_bounded_and_empty_after_import(self):
        assert compile_._testbench_unit.cache_info().maxsize is not None
        code = (
            "import repro, repro.api, repro.eval.pipeline\n"
            "from repro.verilog import compile as c\n"
            "print(c._testbench_unit.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        ).stdout
        assert out.strip() == "0"

    def test_threaded_sweep_leaves_cached_asts_unchanged(self):
        config = SweepConfig(
            temperatures=(0.1,), completions_per_prompt=(2,),
            levels=tuple(PromptLevel),
        )
        for backend in ("stub-canonical", "zoo"):
            run_sweep(config, backend=backend, workers=4, executor="thread")
        for problem in ALL_PROBLEMS:
            cached = compile_._testbench_unit(problem.testbench)
            assert cached == parse(
                problem.testbench, first_line=compile_.BENCH_BASE
            ), problem.number
