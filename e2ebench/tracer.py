"""Outside-in instruments for the end-to-end benchmark.

Both instruments replace a public function of the program with a timed
wrapper at the module or class attribute its caller looks it up on at
call time, so no program file changes.  They are installed after
set-up and before the workload starts, in the measuring interpreter
only; process-pool workers are forked from it and inherit the
wrappers, and each worker writes its share to a JSON file when it
exits.

* :class:`LatencyProbe` (untraced runs): the latency of every
  ``Evaluator.evaluate`` call that missed every cache.
* :class:`Tracer` (traced runs): one span per call into a layer, kept
  in memory until the run ends, then reduced to per-layer calls, self
  seconds and counts (:func:`layer_metrics`).
"""

from __future__ import annotations

import glob
import json
import multiprocessing.util
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: every per-layer metric a traced run reports, with its unit
LAYER_METRICS = (
    ("backends.generate.calls", "count"),
    ("backends.generate.self_s", "s"),
    ("eval.truncate.self_s", "s"),
    ("eval.pipeline.calls", "count"),
    ("eval.pipeline.hits", "count"),
    ("eval.pipeline.misses", "count"),
    ("eval.pipeline.hit_ratio", "ratio"),
    ("eval.pipeline.self_s", "s"),
    ("verilog.lexer.calls", "count"),
    ("verilog.lexer.tokens", "count"),
    ("verilog.lexer.tokens_per_s", "1/s"),
    ("verilog.lexer.self_s.design", "s"),
    ("verilog.lexer.self_s.bench", "s"),
    ("verilog.parser.calls.design", "count"),
    ("verilog.parser.calls.bench", "count"),
    ("verilog.parser.self_s.design", "s"),
    ("verilog.parser.self_s.bench", "s"),
    ("verilog.elaborate.calls", "count"),
    ("verilog.elaborate.self_s.design", "s"),
    ("verilog.elaborate.self_s.bench", "s"),
    ("verilog.analyze.calls", "count"),
    ("verilog.analyze.self_s", "s"),
    ("verilog.analyze.rejects", "count"),
    ("verilog.codegen.builds", "count"),
    ("verilog.codegen.build_s", "s"),
    ("verilog.codegen.two_state_builds", "count"),
    ("verilog.codegen.fallback_processes", "count"),
    ("verilog.codegen.build_failures", "count"),
    ("verilog.sim.runs", "count"),
    ("verilog.sim.self_s", "s"),
    ("verilog.sim.simulated_time", "ticks"),
    ("eval.store.hits", "count"),
    ("eval.store.misses", "count"),
    ("eval.store.files", "count"),
    ("eval.store.bytes", "B"),
    ("eval.store.simcache_files", "count"),
    ("eval.store.get_s", "s"),
    ("eval.store.put_s", "s"),
    ("service.process.worker_cpu_s", "s"),
    ("service.process.utilization", "ratio"),
    ("service.process.cross_worker_repeats", "count"),
    ("eval.jobs.residual_s", "s"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: span names whose self time is a layer's time; together with the
#: residual outside every span they add up to the traced wall time
SELF_TIME_METRICS = (
    "backends.generate.self_s",
    "eval.truncate.self_s",
    "eval.pipeline.self_s",
    "verilog.lexer.self_s.design",
    "verilog.lexer.self_s.bench",
    "verilog.parser.self_s.design",
    "verilog.parser.self_s.bench",
    "verilog.elaborate.self_s.design",
    "verilog.elaborate.self_s.bench",
    "verilog.analyze.self_s",
    "verilog.codegen.build_s",
    "verilog.sim.self_s",
    "eval.store.get_s",
    "eval.store.put_s",
    "eval.jobs.residual_s",
)


class _Instrument:
    """Patch bookkeeping plus the per-worker flush at worker exit."""

    prefix = ""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self._install()
        # runs in each multiprocessing child after fork, after the
        # child cleared the finalizers it inherited
        multiprocessing.util.register_after_fork(self, _Instrument._forked)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _forked(self) -> None:
        self.reset()
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = os.path.join(self.out_dir, f"{self.prefix}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.report(), handle)

    def worker_reports(self) -> list[dict]:
        """Reports the pool workers wrote at exit (empty when serial)."""
        reports = []
        for path in sorted(glob.glob(
                os.path.join(self.out_dir, f"{self.prefix}-*.json"))):
            with open(path, encoding="utf-8") as handle:
                reports.append(json.load(handle))
        return reports

    def _install(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def report(self) -> dict:
        raise NotImplementedError


class LatencyProbe(_Instrument):
    """Seconds per ``Evaluator.evaluate`` call that missed every cache."""

    prefix = "probe"

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self.samples: list[float] = []

    def _install(self) -> None:
        from repro.eval.pipeline import Evaluator

        original = Evaluator.evaluate
        samples = self.samples

        def evaluate(evaluator, *args, **kwargs):
            misses = evaluator.cache_misses
            started = perf_counter()
            result = original(evaluator, *args, **kwargs)
            if evaluator.cache_misses != misses:
                samples.append(perf_counter() - started)
            return result

        self._patch(Evaluator, "evaluate", evaluate)

    def reset(self) -> None:
        self.samples.clear()

    def report(self) -> dict:
        return {"latencies": list(self.samples)}


class Tracer(_Instrument):
    """Span recorder over the program's layer boundaries.

    A span is ``(name, tag, start, end, parent index, evaluation id)``.
    ``tag`` is ``design`` inside the evaluator's compile of the
    completion and ``bench`` inside its test-bench run; the evaluation
    id numbers ``Evaluator.evaluate`` calls.
    """

    prefix = "trace"

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tag = ""
        self.eval_id = 0
        self._evals = 0

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.tag = ""
        self.eval_id = self._evals = 0

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call.

        ``before(args)`` runs ahead of the span and its value reaches
        ``after(state, result, args, error)``, which runs once the span
        has closed, so neither is timed as part of the layer.
        """
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, self.tag, start, end, parent,
                                self.eval_id)
                if after is not None:
                    after(state, result, args, error)

        return traced

    def tagged(self, tag: str, fn):
        """``fn`` with every span under it tagged ``tag`` (no span of
        its own: its glue time stays with the caller's span)."""

        def marked(*args, **kwargs):
            outer, self.tag = self.tag, tag
            try:
                return fn(*args, **kwargs)
            finally:
                self.tag = outer

        return marked

    def _install(self) -> None:
        import repro.backends.local as local
        import repro.eval.jobs as jobs
        import repro.eval.pipeline as pipeline
        import repro.eval.store as store
        import repro.service.process as process
        import repro.verilog.codegen as codegen
        import repro.verilog.compile as compile_
        import repro.verilog.parser as parser
        from repro.verilog import error_findings

        counts = self.counts

        def count(key, measure):
            def after(state, result, args, error):
                if error is None:
                    counts[key] += measure(result)
            return after

        def eval_before(args):
            evaluator = args[0]
            self._evals += 1
            state = (self.eval_id, evaluator.cache_hits,
                     evaluator.store_hits, evaluator.cache_misses)
            self.eval_id = self._evals
            return state

        def eval_after(state, result, args, error):
            evaluator = args[0]
            self.eval_id = state[0]
            counts["eval.pipeline.hits"] += evaluator.cache_hits - state[1]
            counts["eval.store.hits"] += evaluator.store_hits - state[2]
            counts["eval.pipeline.misses"] += evaluator.cache_misses - state[3]

        def engine_after(state, result, args, error):
            if error is not None:
                counts["verilog.codegen.build_failures"] += 1
                return
            engine = args[0]
            counts["verilog.codegen.two_state_builds"] += bool(
                engine.two_state)
            counts["verilog.codegen.fallback_processes"] += len(
                engine.fallbacks)

        def store_get_after(state, result, args, error):
            if error is None and result is None:
                counts["eval.store.misses"] += 1

        def rejects(result):
            return 1 if error_findings(result) else 0

        patch, wrap = self._patch, self.wrap
        zoo = local.LocalZooBackend
        patch(zoo, "generate", wrap("backends.generate", zoo.generate))
        for site in (jobs, process):
            patch(site, "run_job_with_retry",
                  wrap("eval.jobs", site.run_job_with_retry))
        patch(pipeline, "truncate_completion",
              wrap("eval.truncate", pipeline.truncate_completion))
        patch(pipeline.Evaluator, "evaluate",
              wrap("eval.pipeline", pipeline.Evaluator.evaluate,
                   before=eval_before, after=eval_after))
        patch(pipeline, "compile_design",
              self.tagged("design", pipeline.compile_design))
        patch(pipeline, "run_simulation",
              self.tagged("bench", pipeline.run_simulation))
        patch(parser, "tokenize",
              wrap("verilog.lexer", parser.tokenize,
                   after=count("verilog.lexer.tokens", len)))
        patch(compile_, "parse", wrap("verilog.parser", compile_.parse))
        patch(compile_, "elaborate",
              wrap("verilog.elaborate", compile_.elaborate))
        patch(compile_, "simulate",
              wrap("verilog.sim", compile_.simulate,
                   after=count("verilog.sim.simulated_time",
                               lambda result: result.time)))
        patch(pipeline, "analyze_design",
              wrap("verilog.analyze", pipeline.analyze_design,
                   after=count("verilog.analyze.rejects", rejects)))
        patch(pipeline, "lint_source_unit",
              wrap("verilog.lint", pipeline.lint_source_unit))
        patch(codegen.CompiledEngine, "__init__",
              wrap("verilog.codegen", codegen.CompiledEngine.__init__,
                   after=engine_after))
        # the compile-plan cache is store I/O too: it shares get_s/put_s
        for cls in (store.VerdictStore, store.CompileSimCache):
            after = store_get_after if cls is store.VerdictStore else None
            patch(cls, "get", wrap("eval.store.get", cls.get, after=after))
            patch(cls, "put", wrap("eval.store.put", cls.put))

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Per ``name|tag``: [calls, self seconds]; plus counts and the
        seconds covered by top-level spans."""
        spans = self.spans
        self_s = [end - start for _, _, start, end, _, _ in spans]
        covered = 0.0
        for name, tag, start, end, parent, _ in spans:
            if parent >= 0:
                self_s[parent] -= end - start
            else:
                covered += end - start
        layers: dict[str, list] = {}
        for (name, tag, *_), seconds in zip(spans, self_s):
            entry = layers.setdefault(f"{name}|{tag}", [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        return {"layers": layers, "counts": dict(self.counts),
                "covered_s": covered}


def merge_reports(reports: list[dict]) -> dict:
    """Sum tracer reports (the measuring process plus its workers)."""
    layers: dict[str, list] = {}
    counts: dict[str, float] = defaultdict(float)
    covered = 0.0
    for report in reports:
        for key, (calls, seconds) in report["layers"].items():
            entry = layers.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for key, value in report["counts"].items():
            counts[key] += value
        covered += report["covered_s"]
    return {"layers": layers, "counts": dict(counts), "covered_s": covered}


def layer_metrics(report: dict, wall_s: float, workers: int,
                  worker_cpu_s: float, store: dict) -> dict:
    """Per-layer metrics of one traced run (``trace.overhead_frac`` is
    left to the caller, which also ran the workload untraced).

    ``workers`` is the pool width (0 when the workload ran in one
    process); the residual is then the share of worker capacity,
    ``workers x wall``, that no span covers.  ``store`` holds the
    verdict store's ``files``, ``bytes`` and ``simcache_files`` after
    the run; each verdict file is one unique evaluation key.
    """
    layers, counts = report["layers"], report["counts"]

    def calls(name, tag=None):
        return sum(entry[0] for key, entry in layers.items()
                   if key.split("|")[0] == name
                   and (tag is None or key.split("|")[1] == tag))

    def self_s(*names, tag=None):
        return sum(entry[1] for key, entry in layers.items()
                   if key.split("|")[0] in names
                   and (tag is None or key.split("|")[1] == tag))

    lexer_s = self_s("verilog.lexer")
    evaluations = calls("eval.pipeline")
    hits = counts.get("eval.pipeline.hits", 0)
    capacity = wall_s * max(workers, 1)
    values = {
        "backends.generate.calls": calls("backends.generate"),
        "backends.generate.self_s": self_s("backends.generate"),
        "eval.truncate.self_s": self_s("eval.truncate"),
        "eval.pipeline.calls": evaluations,
        "eval.pipeline.hits": hits,
        "eval.pipeline.misses": counts.get("eval.pipeline.misses", 0),
        "eval.pipeline.hit_ratio": hits / evaluations if evaluations else 0.0,
        "eval.pipeline.self_s": self_s("eval.pipeline"),
        "verilog.lexer.calls": calls("verilog.lexer"),
        "verilog.lexer.tokens": counts.get("verilog.lexer.tokens", 0),
        "verilog.lexer.tokens_per_s": (
            counts.get("verilog.lexer.tokens", 0) / lexer_s
            if lexer_s else 0.0),
        "verilog.analyze.calls": calls("verilog.analyze"),
        "verilog.analyze.self_s": self_s("verilog.analyze", "verilog.lint"),
        "verilog.analyze.rejects": counts.get("verilog.analyze.rejects", 0),
        "verilog.codegen.builds": calls("verilog.codegen"),
        "verilog.codegen.build_s": self_s("verilog.codegen"),
        "verilog.sim.runs": calls("verilog.sim"),
        "verilog.sim.self_s": self_s("verilog.sim"),
        "eval.store.hits": counts.get("eval.store.hits", 0),
        "eval.store.misses": counts.get("eval.store.misses", 0),
        "eval.store.get_s": self_s("eval.store.get"),
        "eval.store.put_s": self_s("eval.store.put"),
        "service.process.worker_cpu_s": worker_cpu_s,
        "service.process.utilization": (
            worker_cpu_s / capacity if workers else 0.0),
        "eval.jobs.residual_s": self_s("eval.jobs"),
        "trace.residual_frac": (capacity - report["covered_s"]) / capacity,
    }
    for name in ("verilog.lexer", "verilog.parser", "verilog.elaborate"):
        for tag in ("design", "bench"):
            values[f"{name}.self_s.{tag}"] = self_s(name, tag=tag)
    values["verilog.parser.calls.design"] = calls("verilog.parser", "design")
    values["verilog.parser.calls.bench"] = calls("verilog.parser", "bench")
    values["verilog.elaborate.calls"] = calls("verilog.elaborate")
    for key in ("verilog.codegen.two_state_builds",
                "verilog.codegen.fallback_processes",
                "verilog.codegen.build_failures",
                "verilog.sim.simulated_time"):
        values[key] = counts.get(key, 0)
    values["eval.store.files"] = store.get("files", 0)
    values["eval.store.bytes"] = store.get("bytes", 0)
    values["eval.store.simcache_files"] = store.get("simcache_files", 0)
    values["service.process.cross_worker_repeats"] = (
        values["eval.pipeline.misses"] + values["eval.store.hits"]
        - store.get("files", 0) if workers else 0)
    return values
