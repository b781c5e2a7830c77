"""Per-completion evaluation: compile gate + functional test bench.

Mirrors the paper's analysis pipeline (Fig. 1, step 8): truncate the
completion, compile it with the Verilog frontend (Icarus stand-in), and —
when it compiles — simulate the problem's test bench and grep the output
for the pass marker.

Evaluations are cached by (problem, truncated completion text): the paper
notes LLMs "tend to provide similar responses when several completions
per prompt are requested", so the cache collapses most of the sweep's
work, exactly like memoizing ``iverilog`` runs on identical files.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..models.base import stable_hash
from ..obs import REGISTRY, observe_stage
from ..obs.profile import maybe_sim_profiler, record_profile
from ..problems import PASS_MARKER, Problem, PromptLevel
from ..verilog import (
    AnalysisError,
    Finding,
    analyze_design,
    compile_design,
    error_findings,
    lint_source_unit,
    run_simulation,
)
from .truncate import truncate_completion


@dataclass(frozen=True)
class CompletionEvaluation:
    """Verdict for one completion.

    ``stage`` names the phase that rejected it — ``"parse"``,
    ``"elaborate"``, ``"analysis"`` (static netlist gate), ``"sim"``
    (runtime crash inside the bench) or ``"testbench"`` (ran but failed
    the checks); ``""`` on a pass.  ``error_line`` is the first
    diagnostic's source line when the frontend knew it (0 otherwise).
    Both exist so repair prompts and reports read structured fields
    instead of scraping error strings.

    ``findings`` carries the netlist analysis results
    (:class:`~repro.verilog.analyze.Finding`) for any completion that
    reached elaboration; warnings/infos are advisory and never flip the
    verdict, error findings short-circuit at ``stage="analysis"``.
    """

    compiled: bool
    passed: bool
    compile_errors: tuple[str, ...] = ()
    sim_finished: bool = False
    stage: str = ""
    error_line: int = 0
    findings: tuple[Finding, ...] = ()

    @property
    def verdict(self) -> str:
        if not self.compiled:
            return "compile-error"
        return "pass" if self.passed else "test-fail"


class Evaluator:
    """Caching compile+simulate evaluator.

    Thread-safe: the cache is guarded by a lock so one instance can be
    shared across a :class:`~repro.eval.jobs.SweepExecutor` worker pool.
    Two workers racing on the same uncached key may both evaluate it
    (evaluation is pure, so both compute the identical verdict); the
    lock only protects the cache dict and the hit/miss counters.

    ``store`` is an optional :class:`~repro.eval.store.VerdictStore`
    consulted between the in-memory cache and a real compile+simulate:
    a hit there costs one log-line read instead of a simulation, and
    every fresh verdict is appended to the store's log, so evaluators
    in other processes (process-pool workers, coordinator workers,
    later runs) share the work.  Store reads and writes are timed as
    the ``store`` stage.  On a shared mount without atomic append, a
    concurrent line may be lost or garbled; that costs a
    re-evaluation, never a wrong verdict.

    A cache miss parses the completion once: the bench run reuses the
    design's parsed modules (``run_simulation(design=...)``), and each
    problem's test bench is parsed once per process.  Line numbers are
    those of the ``bench_source`` text all the same.

    Known limitation: the cache key ignores the prompt level, but the
    prompts of one problem differ in line count (problem 17's L/M/H
    prompts have 6/10/17 lines).  So a cached ``error_line``, and the
    line numbers inside ``compile_errors``, come from whichever level
    evaluated the completion first.
    """

    def __init__(
        self,
        max_time: int = 1_000_000,
        max_steps: int = 2_000_000,
        store=None,
        analysis: bool = True,
        strict_analysis: bool = False,
        compile_sim: bool = True,
    ):
        self.max_time = max_time
        self.max_steps = max_steps
        self.store = store
        #: run bench simulations on the netlist→closure engine
        #: (:mod:`repro.verilog.codegen`); verdicts are identical to the
        #: interpreter's by construction, so the flag never enters cache
        #: keys.  When a VerdictStore is attached, compile plans persist
        #: in its ``simcache/`` subdirectory keyed by bench-source hash.
        self.compile_sim = compile_sim
        #: run the netlist static-analysis pass (and lint counters)
        #: between elaboration and simulation; error findings reject the
        #: design at stage="analysis" without ever starting the bench
        self.analysis = analysis
        #: raise :class:`~repro.verilog.AnalysisError` instead of
        #: returning a failed evaluation, so job runners surface a
        #: structured JobError with stage/code/path
        self.strict_analysis = strict_analysis
        self._cache: dict[tuple[int, int], CompletionEvaluation] = {}
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.store_hits = 0

    def evaluate(
        self,
        problem: Problem,
        completion: str,
        level: PromptLevel = PromptLevel.LOW,
    ) -> CompletionEvaluation:
        """Evaluate one completion against ``problem``.

        ``level`` selects the prompt the completion is appended to; the
        cache key ignores it because the three prompts differ only in
        comments and cannot change the verdict.
        """
        truncated = truncate_completion(completion)
        key = (problem.number, stable_hash(truncated))
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                REGISTRY.inc("evaluator_cache", result="hit")
                return cached
        if self.store is not None:
            started = time.perf_counter()
            stored = self.store.get(*key)
            observe_stage("store", time.perf_counter() - started,
                          problem=problem.number)
            if stored is not None:
                with self._lock:
                    self.store_hits += 1
                    self._cache[key] = stored
                REGISTRY.inc("evaluator_cache", result="store_hit")
                return stored
        with self._lock:
            self.cache_misses += 1
        REGISTRY.inc("evaluator_cache", result="miss")
        result = self._evaluate_uncached(problem, truncated, level)
        with self._lock:
            self._cache[key] = result
        if self.store is not None:
            started = time.perf_counter()
            self.store.put(*key, result)
            observe_stage("store", time.perf_counter() - started,
                          problem=problem.number)
        return result

    def _evaluate_uncached(
        self, problem: Problem, truncated: str, level: PromptLevel
    ) -> CompletionEvaluation:
        source = problem.full_source(truncated, level)
        report = compile_design(source, top=problem.module_name)
        self._observe_report(problem, report, design=True)
        if not report.ok:
            return CompletionEvaluation(
                compiled=False, passed=False,
                compile_errors=tuple(report.errors),
                stage=report.stage, error_line=report.line,
            )
        findings: tuple[Finding, ...] = ()
        if self.analysis:
            findings = self._analyze(problem, report)
            gate = error_findings(findings)
            if gate:
                first = gate[0]
                if self.strict_analysis:
                    raise AnalysisError(
                        first.message, line=first.line,
                        code=first.code, path=first.path,
                    )
                # a comb loop would spin the simulator to its iteration
                # limit; reject here in milliseconds instead.  The
                # verdict booleans match what simulation would conclude
                # (compiled, not passed), keeping record parity with
                # unanalyzed sweeps.
                return CompletionEvaluation(
                    compiled=True, passed=False,
                    compile_errors=tuple(str(f) for f in gate),
                    stage="analysis", error_line=first.line,
                    findings=findings,
                )
        # None unless profiling is enabled AND a trace sink is installed,
        # in which case the bench simulation attributes its wall time to
        # netlist constructs and publishes one `profile` frame per run.
        profiler = maybe_sim_profiler()
        sim_cache = bench_hash = plan = None
        if self.compile_sim and self.store is not None:
            sim_cache = self.store.sim_cache()
        if sim_cache is not None:
            bench_hash = stable_hash(problem.bench_source(truncated, level))
            plan = sim_cache.get(bench_hash)
            if plan is not None:
                REGISTRY.inc("sim_compile_cache_hits_total")
        bench_report, sim = run_simulation(
            problem.testbench, top="tb", max_time=self.max_time,
            max_steps=self.max_steps, profiler=profiler,
            compile_sim=self.compile_sim,
            analysis_findings=findings if findings else None,
            compile_plan=plan, design=report,
            first_line=problem.testbench_line(source),
        )
        if (sim_cache is not None and plan is None
                and bench_report.sim_engine is not None):
            sim_cache.put(bench_hash, bench_report.sim_engine)
        self._observe_report(problem, bench_report, design=False)
        if profiler is not None:
            record_profile(
                profiler, problem=problem.number,
                sim_seconds=bench_report.sim_seconds,
                engine="compiled" if bench_report.sim_engine is not None
                else "interpreter",
            )
        if not bench_report.ok or sim is None:
            # compiles standalone but dies inside the bench (e.g. runaway
            # loop): counts as compiled, not passed
            return CompletionEvaluation(
                compiled=True, passed=False,
                compile_errors=tuple(bench_report.errors),
                stage=bench_report.stage if bench_report.stage == "sim"
                else "testbench",
                error_line=bench_report.line,
                findings=findings,
            )
        passed = sim.finished and PASS_MARKER in sim.text
        return CompletionEvaluation(
            compiled=True, passed=passed, sim_finished=sim.finished,
            stage="" if passed else "testbench",
            findings=findings,
        )

    def _analyze(self, problem: Problem, report) -> tuple[Finding, ...]:
        """Netlist analysis + defect-class counters for one design.

        Advisory robustness: an analyzer crash degrades to "no
        findings" rather than failing the evaluation — only the
        structured error findings themselves may gate.
        """
        started = time.perf_counter()
        try:
            findings = tuple(analyze_design(report.design, report.unit))
        except Exception:
            findings = ()
        observe_stage(
            "analysis", time.perf_counter() - started,
            problem=problem.number,
        )
        for finding in findings:
            REGISTRY.inc("analysis_findings_total", code=finding.code)
        try:
            for warning in lint_source_unit(report.unit):
                REGISTRY.inc("lint_findings_total", code=warning.code)
        except Exception:
            pass
        return findings

    @staticmethod
    def _observe_report(problem: Problem, report, design: bool) -> None:
        """Always-on per-problem stage timers off a CompileReport.

        Design compiles profile as ``parse``/``elaborate``.  The bench
        run reuses the design's parse and a per-process parse of the
        test bench, so its compile side is elaboration only and profiles
        as ``bench_elab``; building the compiled engine profiles as
        ``engine`` and simulating as ``sim``.
        """
        number = problem.number
        if design:
            stages = (("parse", report.parse_seconds),
                      ("elaborate", report.elaborate_seconds))
        else:
            stages = (("bench_elab", report.elaborate_seconds),
                      ("engine", report.engine_seconds),
                      ("sim", report.sim_seconds))
        for stage, seconds in stages:
            if seconds:
                observe_stage(stage, seconds, problem=number)

    @property
    def cache_info(self) -> dict:
        info = {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
        }
        if self.store is not None:
            info["store_hits"] = self.store_hits
        return info
