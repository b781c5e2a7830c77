"""Icarus-Verilog-like driver: the compile and run gates of the pipeline.

The paper compiles each LLM completion with ``iverilog`` and, when that
succeeds, simulates it against a test bench.  This module provides the
same two entry points over our own frontend:

* :func:`check_syntax` — lex + parse only (fast structural gate);
* :func:`compile_design` — lex + parse + elaborate a top module;
* :func:`run_simulation` — compile and simulate, returning printed output.

The evaluator compiles every completion first, so its bench run passes
that :class:`CompileReport` as ``run_simulation(testbench, design=...)``
and elaborates the already-parsed design modules followed by the test
bench's.  Each test bench text is parsed once per process (a small
cache keyed by the text) at line :data:`BENCH_BASE`, far above any
design line; every line number the bench run reports is renumbered to
where the test bench sits in the concatenated design + bench text.

Failure reports carry the *stage* that rejected the design ("parse",
"elaborate" or "sim") and the first diagnostic's source line, so
downstream consumers (structured :class:`~repro.eval.jobs.JobError`
fields, the agentic repair loop's re-prompts) never scrape the message
strings.

Every report also carries per-stage wall clock (``parse_seconds``,
``elaborate_seconds``, ``engine_seconds``, ``sim_seconds``) measured
here, at the stage boundary, so the evaluator's always-on profile
(:mod:`repro.obs`) reads timings off the report instead of re-wrapping
the frontend — the verilog layer itself stays observability-free.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .ast import SourceUnit
from .elaborate import Design, elaborate
from .errors import VerilogError
from .parser import parse
from .sim import SimResult, simulate


@dataclass
class CompileReport:
    """Result of a compile attempt (success or diagnostics).

    ``stage`` names the phase that produced ``errors`` ("parse",
    "elaborate", "sim"; "" on clean success) and ``line`` is the first
    error's source line when the frontend knew it (0 otherwise).
    """

    ok: bool
    errors: list[str] = field(default_factory=list)
    unit: SourceUnit | None = None
    design: Design | None = None
    stage: str = ""
    line: int = 0
    parse_seconds: float = 0.0
    elaborate_seconds: float = 0.0
    #: building the compiled engine (``run_simulation(compile_sim=True)``)
    engine_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: Compiled-engine plan summary when ``run_simulation`` ran with
    #: ``compile_sim=True`` and engine construction succeeded; None on
    #: the pure-interpreter path.
    sim_engine: dict | None = None

    @property
    def error_text(self) -> str:
        return "\n".join(self.errors)


def check_syntax(source: str) -> CompileReport:
    """Parse-only check, the cheapest 'does it compile' gate."""
    return _parse_report(parse, source)


def _parse_report(parser, source: str) -> CompileReport:
    """``parser(source)`` as a report, timed and with its diagnostics."""
    started = time.perf_counter()
    try:
        unit = parser(source)
    except VerilogError as exc:
        return CompileReport(
            ok=False, errors=[str(exc)], stage="parse", line=exc.line,
            parse_seconds=time.perf_counter() - started,
        )
    except RecursionError:
        return CompileReport(
            ok=False, errors=["expression nesting too deep"], stage="parse",
            parse_seconds=time.perf_counter() - started,
        )
    return CompileReport(
        ok=True, unit=unit, parse_seconds=time.perf_counter() - started
    )


def compile_design(source: str, top: str | None = None) -> CompileReport:
    """Full compile: parse and elaborate ``top`` (default: last module).

    Elaboration catches the class of errors Icarus reports beyond syntax:
    undeclared identifiers, bad port connections, width-less parameters,
    unknown modules.
    """
    report = check_syntax(source)
    if not report.ok:
        return report
    return _elaborate(report, top)


def _elaborate(parsed: CompileReport, top: str | None) -> CompileReport:
    """Elaborate a parsed report's unit into a new report."""
    assert parsed.unit is not None
    if top is None:
        top = parsed.unit.modules[-1].name
    started = time.perf_counter()
    try:
        design = elaborate(parsed.unit, top)
    except VerilogError as exc:
        return CompileReport(
            ok=False,
            errors=[str(exc)],
            unit=parsed.unit,
            stage="elaborate",
            line=exc.line,
            parse_seconds=parsed.parse_seconds,
            elaborate_seconds=time.perf_counter() - started,
        )
    except RecursionError:
        return CompileReport(
            ok=False,
            errors=["elaboration recursion limit"],
            unit=parsed.unit,
            stage="elaborate",
            parse_seconds=parsed.parse_seconds,
            elaborate_seconds=time.perf_counter() - started,
        )
    return CompileReport(
        ok=True,
        unit=parsed.unit,
        design=design,
        parse_seconds=parsed.parse_seconds,
        elaborate_seconds=time.perf_counter() - started,
    )


#: Line number the cached test benches are parsed at.  No design comes
#: near it, so any line at or above it belongs to the test bench.
BENCH_BASE = 1 << 30

_LINE_REF = re.compile(r"line (\d+)")


@lru_cache(maxsize=64)
def _testbench_unit(testbench: str) -> SourceUnit:
    """The parsed test bench, numbered from :data:`BENCH_BASE`.

    Shared by every bench run of the process, so nothing downstream of
    the parser may mutate it.
    """
    return parse(testbench, first_line=BENCH_BASE)


def _compile_bench(
    design: CompileReport, testbench: str, top: str | None, first_line: int
) -> CompileReport:
    """Elaborate ``design``'s modules followed by the test bench's.

    The module order is the one a parse of the concatenated text gives,
    and the design lines are already numbered as in that text; the bench
    lines are renumbered on the way out (:func:`_renumber_report`).
    """
    if not design.ok or design.unit is None:
        raise ValueError("design= needs a report of a successful compile")
    parsed = _parse_report(_testbench_unit, testbench)
    if parsed.ok:
        assert parsed.unit is not None
        parsed.unit = SourceUnit(
            modules=design.unit.modules + parsed.unit.modules
        )
        parsed = _elaborate(parsed, top)
    _renumber_report(parsed, first_line)
    return parsed


def _renumber(line: int, first_line: int) -> int:
    return line - BENCH_BASE + first_line if line >= BENCH_BASE else line


def _renumber_text(text: str, first_line: int) -> str:
    return _LINE_REF.sub(
        lambda match: f"line {_renumber(int(match.group(1)), first_line)}",
        text,
    )


def _renumber_report(report: CompileReport, first_line: int) -> None:
    """Number the bench lines of ``report`` as in the concatenated text.

    Covers the error line and messages and, through the elaborated
    processes, the engine plan's fallbacks and the profiler's construct
    keys.  AST nodes of the shared test bench keep their base numbers.
    """
    report.line = _renumber(report.line, first_line)
    report.errors = [_renumber_text(error, first_line)
                     for error in report.errors]
    if report.design is not None:
        for spec in report.design.processes:
            spec.line = _renumber(spec.line, first_line)


def run_simulation(
    source: str,
    top: str | None = None,
    max_time: int = 1_000_000,
    max_steps: int = 2_000_000,
    profiler=None,
    compile_sim: bool = False,
    analysis_findings=None,
    compile_plan: dict | None = None,
    design: CompileReport | None = None,
    first_line: int = 1,
) -> tuple[CompileReport, SimResult | None]:
    """Compile then simulate; returns (compile report, sim result or None).

    Without ``design``, ``source`` is the whole text: the modules under
    test and their test bench.  With ``design`` (the
    :func:`compile_design` report of the modules under test), ``source``
    is only the test bench, which starts on line ``first_line`` of the
    concatenated text; the design's parsed modules are reused and the
    test bench is parsed once per process.  Both forms report the same
    errors, stages and lines.

    ``profiler`` is passed through to the simulator untouched (see
    :class:`repro.obs.profile.SimProfiler`); this keeps the injection
    point at the same stage boundary as the timing fields.

    ``compile_sim=True`` lowers the elaborated design to closures first
    (:class:`repro.verilog.codegen.CompiledEngine`, timed as
    ``engine_seconds``) and runs the fast engine; processes the
    compiler can't cover fall back per process to the interpreter, and
    any engine-construction failure falls back to fully interpreted
    execution — verdicts are identical either way.
    ``analysis_findings`` (PR 8 netlist findings, when the caller already
    ran the analyzer) feed the two-state proof; the engine's plan summary
    lands in ``report.sim_engine``.  A ``compile_plan`` from a previous
    run of the same source (the on-disk plan cache) pins the two-state
    decision so the proof is skipped.
    """
    if design is None:
        report = compile_design(source, top)
    else:
        report = _compile_bench(design, source, top, first_line)
    if not report.ok:
        return report, None
    assert report.design is not None
    engine = None
    if compile_sim:
        from .codegen import CompiledEngine

        two_state = None
        if compile_plan is not None:
            cached = compile_plan.get("two_state")
            if isinstance(cached, bool):
                two_state = cached
        started = time.perf_counter()
        try:
            engine = CompiledEngine(
                report.design, findings=analysis_findings,
                two_state=two_state,
            )
        except Exception:
            engine = None  # fully interpreted run; behavior unchanged
        else:
            plan = engine.plan()
            for fallback in plan["fallbacks"]:
                fallback["reason"] = _renumber_text(
                    fallback["reason"], first_line
                )
            report.sim_engine = plan
        report.engine_seconds = time.perf_counter() - started
    started = time.perf_counter()
    try:
        result = simulate(report.design, max_time=max_time,
                          max_steps=max_steps, profiler=profiler,
                          engine=engine)
    except VerilogError as exc:
        report.errors = [f"runtime: {_renumber_text(str(exc), first_line)}"]
        report.stage = "sim"
        report.line = _renumber(exc.line, first_line)
        report.sim_seconds = time.perf_counter() - started
        return report, None
    report.sim_seconds = time.perf_counter() - started
    return report, result
