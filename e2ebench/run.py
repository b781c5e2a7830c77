"""End-to-end benchmark of the Verilog evaluator.

    python3 e2ebench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) from the root of a checkout,
checks every output, prints each metric with its unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Every measured run is a fresh interpreter (``child.py``) with its own
temporary directory, removed afterwards.  Runs repeat until
``--seconds`` is spent, and at least ``MIN_RUNS`` times.

``--trace 0`` reports the end-to-end metrics (medians over the runs;
``eval_p50_ms`` is the median of all their samples together).
``--trace 1`` alternates an untraced and a traced run and reports the
per-layer split of the traced run with the median wall time, whose
layer self times plus ``trace.residual_frac`` add up to its wall time.

Sweep outputs must equal, record for record, an untimed reference sweep
of the same seed on the interpreted simulator (computed once per seed
and program version), so both sweep workloads also agree with each
other; ``verify-unique`` verdicts must equal the
answer known for each input.  Any mismatch or failed job makes the
command exit 1 after printing its result.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: measured runs per invocation, at the least; each also times set-up
MIN_RUNS = 5
#: the whole invocation must end well inside three minutes
DEADLINE_S = 170.0
#: candidate tail percentiles, in thousandths of a percent
TAIL_LADDER = (50_000, 90_000, 98_000, 99_000, 99_900)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("eval_p50_ms", "ms"),
    ("eval_tail_ms", "ms"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts ``child.py`` runs of one workload under one deadline."""

    def __init__(self, args, tmp: str):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.started = 0

    def child(self, mode: str, ref: str | None = None) -> dict:
        self.started += 1
        name = f"{self.started:03d}-{mode}"
        run_tmp = os.path.join(self.tmp, name)
        out = os.path.join(self.tmp, f"{name}.json")
        os.makedirs(run_tmp)
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--tmp", run_tmp, "--out", out,
        ]
        if ref is not None:
            command += ["--ref", ref]
        if self.args.tiny:
            command.append("--tiny")
        if self.args.plant_mismatch:
            command.append("--plant-mismatch")
        # the child and its pool workers form one process group, so a
        # run past the deadline is killed whole
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            env=dict(os.environ, TMPDIR=run_tmp),
        )
        try:
            _, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            # past the deadline, or this process was interrupted or
            # terminated: the run's whole group goes too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} run passed the {DEADLINE_S:.0f} s "
                                 "deadline") from None
            raise
        finally:
            shutil.rmtree(run_tmp, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} run exited {proc.returncode}:\n"
                             f"{stderr.strip()[-3000:]}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        os.unlink(out)
        return result

    def repeat(self, modes: tuple[str, ...], minimum: int,
               ref: str | None) -> list[list[dict]]:
        """Rounds of ``modes`` until ``--seconds`` is spent and at least
        ``minimum`` rounds ran; a round that would not fit is not begun."""
        rounds, spent = [], 0.0
        while True:
            began = time.monotonic()
            rounds.append([self.child(mode, ref) for mode in modes])
            last = time.monotonic() - began
            spent += last
            if len(rounds) >= minimum and (
                    spent + last > self.args.seconds
                    or time.monotonic() + last > self.deadline - 15):
                return rounds


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - -(-q * n // 100_000) >= 10:
            chosen = q
    return chosen / 1000, ordered[max(1, -(-chosen * n // 100_000)) - 1]


def end_to_end(runner: Runner, ref: str | None) -> tuple[dict, list[dict]]:
    runs = [r[0] for r in runner.repeat(("timed",), MIN_RUNS, ref)]
    setups = [run["setup_s"] for run in runs]
    latencies = [[s * 1000 for s in run["latencies"]] for run in runs]
    tails = [tail(samples) for samples in latencies]
    values = {
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "cpu_s": statistics.median(run["cpu_s"] for run in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        # the median over every run's samples, not the median of the
        # runs' medians: the host's speed state shifts whole runs, and a
        # median of five runs jumps to whichever state three of them met
        "eval_p50_ms": statistics.median(
            sample for samples in latencies for sample in samples),
        "eval_tail_ms": statistics.median(value for _, value in tails),
    }
    walls = " ".join(f"{run['wall_s']:.3f}" for run in runs)
    print(f"{len(runs)} measured runs, {len(setups)} set-ups; "
          f"wall_s per run: {walls}")
    print(f"eval latencies: p50 of all {sum(map(len, latencies))} "
          f"cache-missing evaluations, median over runs of each run's "
          f"p{tails[0][0]:g} over {len(latencies[0])}")
    return {name: (values[name], unit) for name, unit in END_TO_END}, runs


def per_layer(runner: Runner, ref: str | None) -> tuple[dict, list[dict]]:
    rounds = runner.repeat(("timed", "traced"), 1, ref)
    untraced = [r[0] for r in rounds]
    traced = sorted((r[1] for r in rounds), key=lambda run: run["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    values = dict(chosen["layers"])
    values["trace.overhead_frac"] = chosen["wall_s"] / statistics.median(
        run["wall_s"] for run in untraced) - 1
    workers = (workloads.PROCESS_WORKERS
               if runner.args.workload == "sweep-process2-store" else 1)
    capacity = chosen["wall_s"] * workers
    layer_sum = sum(values[name] for name in tracer.SELF_TIME_METRICS)
    residual = values["trace.residual_frac"] * capacity
    print(f"{len(rounds)} untraced + {len(traced)} traced runs; layer "
          f"self times {layer_sum:.4f} s + residual {residual:.4f} s = "
          f"{layer_sum + residual:.4f} s of {capacity:.4f} s "
          f"({workers} x traced wall)")
    metrics = {name: (values[name], unit)
               for name, unit in tracer.LAYER_METRICS}
    return metrics, untraced + traced


def reference(runner: Runner, scratch: str) -> str:
    """Path of the reference rows for this seed.

    The reference is deterministic, so it is computed once per seed and
    program version and kept in ``scratch``: its key digests every
    source file of the program and of the benchmark.
    """
    digest = hashlib.sha256(f"{runner.args.seed}:{runner.args.tiny}".encode())
    for folder in ("src", "e2ebench"):
        for path in sorted(glob.glob(os.path.join(ROOT, folder, "**", "*.py"),
                                     recursive=True)):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    path = os.path.join(scratch, f"reference-{digest.hexdigest()[:32]}.json")
    if not os.path.exists(path):
        rows = runner.child("reference")
        partial = f"{path}.{os.getpid()}"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
        os.replace(partial, path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--plant-mismatch", action="store_true",
                        help="corrupt one expected output (self-test)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so no run outlives the command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".e2ebench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        runner = Runner(args, tmp)
        ref = None
        if args.workload in workloads.SWEEPS:
            ref = reference(runner, scratch)
        print(f"workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}")
        metrics, runs = (per_layer if args.trace else end_to_end)(runner, ref)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    mismatches = sum(run["mismatches"] for run in runs)
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:<14.6g} {unit}")
    print(f"{'error_frac':38s} {failed / attempted:<14.6g} ratio "
          f"({failed} of {attempted})")
    print(f"{'verdict_mismatches':38s} {mismatches:<14d} count")
    correct = mismatches == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
