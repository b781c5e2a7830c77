"""One measurement of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run, so in-memory
caches, the metrics registry and resident memory start clean each
time.  Modes:

* ``reference`` -- the untimed reference sweep: same seed, interpreted
  simulation (``compile_sim=False``), rows written to ``--out``;
* ``timed``     -- set-up, then the workload with the latency probe;
* ``traced``    -- set-up, then the workload under the span tracer.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _rusage() -> tuple[float, float, float, float]:
    """(self CPU s, children CPU s, self max RSS MB, largest child RSS MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime,
            own.ru_maxrss / 1024, kids.ru_maxrss / 1024)


def _setup(args):
    """Cold start as a user pays it: import, construct, plan."""
    import repro  # noqa: F401 -- the import is what set-up measures

    if args.workload == "verify-unique":
        from repro.eval.pipeline import Evaluator

        return Evaluator(), None
    from repro.api import Session
    from repro.backends import LocalZooBackend
    from repro.eval.store import VerdictStore

    options = {}
    if args.mode == "reference":
        # untimed, so it may use both cores; executors agree record for
        # record, and sweep-serial checks the serial one against this
        options.update(compile_sim=False, executor="process",
                       workers=workloads.PROCESS_WORKERS)
    elif args.workload == "sweep-process2-store":
        options.update(
            executor="process", workers=workloads.PROCESS_WORKERS,
            store=VerdictStore(os.path.join(args.tmp, "store")))
    session = Session(backend=LocalZooBackend(seed=args.seed), **options)
    return session, session.plan(workloads.sweep_config(args.tiny))


def _store_stats(path: str) -> dict:
    stats = {"files": 0, "bytes": 0, "simcache_files": 0}
    for folder, _, names in os.walk(path):
        for name in names:
            stats["bytes"] += os.path.getsize(os.path.join(folder, name))
            if not name.endswith(".json"):
                continue
            if os.path.basename(folder) == "simcache":
                stats["simcache_files"] += 1
            else:
                stats["files"] += 1
    return stats


def _run_verify(evaluator, inputs) -> tuple[list[str], int]:
    """Evaluate each input once, in order; an evaluation that raises
    is a failure and its verdict ``error``."""
    verdicts, failed = [], 0
    for problem, text, level, _ in inputs:
        try:
            verdicts.append(evaluator.evaluate(problem, text, level).verdict)
        except Exception:  # noqa: BLE001 -- counted, never fatal
            verdicts.append("error")
            failed += 1
    return verdicts, failed


def _mismatches(rows: list, expected: list) -> int:
    return (sum(a != b for a, b in zip(rows, expected))
            + abs(len(rows) - len(expected)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("reference", "timed", "traced"))
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ref", help="reference rows of a sweep workload")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-mismatch", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    started = time.perf_counter()
    subject, plan = _setup(args)
    out = {"setup_s": time.perf_counter() - started}
    if args.mode == "reference":
        result = subject.run_plan(plan)
        return _write(args.out, {"rows": workloads.sweep_rows(result)})

    sweep = args.workload in workloads.SWEEPS
    if not sweep:
        inputs = workloads.verify_inputs(args.seed, args.tiny)
    instrument = (tracer.Tracer if args.mode == "traced"
                  else tracer.LatencyProbe)(args.tmp)
    instrument.install()
    before = _rusage()
    started = time.perf_counter()
    if sweep:
        result = subject.run_plan(plan)
    else:
        verdicts, failed = _run_verify(subject, inputs)
    wall = time.perf_counter() - started
    after = _rusage()
    instrument.uninstall()

    if sweep:
        attempted, failed = len(plan.jobs), len(result.errors)
        rows = workloads.sweep_rows(result)
        with open(args.ref, encoding="utf-8") as handle:
            expected = json.load(handle)["rows"]
        if args.plant_mismatch:
            passed = workloads.RECORD_FIELDS.index("passed")
            expected[0][passed] = not expected[0][passed]
    else:
        attempted = len(inputs)
        rows = verdicts
        expected = [item[3] for item in inputs]
        if args.plant_mismatch:
            expected[0] = "pass" if expected[0] != "pass" else "test-fail"
        misses = subject.cache_info["misses"]
        if misses != attempted:
            raise SystemExit(f"verify-unique: {misses} cache misses for "
                             f"{attempted} distinct completions")
    workers = (workloads.PROCESS_WORKERS
               if args.workload == "sweep-process2-store" else 0)
    worker_cpu = after[1] - before[1]
    out.update(
        wall_s=wall,
        cpu_s=after[0] - before[0] + worker_cpu,
        peak_rss_mb=after[2] + (after[3] if workers else 0.0),
        attempted=attempted,
        failed=failed,
        mismatches=_mismatches(rows, expected),
    )
    reports = instrument.worker_reports()
    if args.mode == "timed":
        out["latencies"] = instrument.samples + [
            sample for report in reports for sample in report["latencies"]]
    else:
        report = tracer.merge_reports([instrument.report()] + reports)
        out["layers"] = tracer.layer_metrics(
            report, wall, workers, worker_cpu,
            _store_stats(os.path.join(args.tmp, "store")))
    return _write(args.out, out)


def _write(path: str, payload: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
