"""Opt-in simulator hot-spot profiler.

The ROADMAP's sim-compile item needs to know *which* netlist constructs
burn the ~95% of evaluation time the stage timers attribute to
``sim``.  This module is the answer: a
:class:`SimProfiler` is handed to :class:`repro.verilog.sim.Simulator`
(via ``run_simulation(..., profiler=...)``) and receives one ``add``
per process activation — wall seconds, expression evaluations and
statement dispatches, keyed by *construct*: the hierarchy-flattened
instance path plus the process kind and source line
(``b1.always@9``, ``assign@3``), the same path convention
:mod:`repro.verilog.analyze` uses for findings.

Layering: the verilog package stays observability-free.  The simulator
only ever calls methods on the injected profiler object; everything
obs-flavoured — the global enable flag, the trace-sink emission, the
``profile`` NDJSON frame — lives here.  When profiling is disabled (the
default) :func:`maybe_sim_profiler` returns ``None`` and the simulator
runs its unmodified dispatch loop, so the disabled path costs nothing.

A profiler's run is published as one ``profile`` frame per problem in
the existing NDJSON trace format (:func:`record_profile`), which
``repro stats`` folds into its report and ``repro hotspots`` ranks
until a target share of sim time is attributed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from .trace import current_tags, record_frame, tracing_active

#: construct key: (hierarchical scope path, process kind, source line)
ConstructKey = tuple[str, str, int]

_ENABLED = False


def enable_profiling() -> None:
    """Turn the simulator profiler on process-wide (still needs a sink)."""
    global _ENABLED
    _ENABLED = True


def disable_profiling() -> None:
    global _ENABLED
    _ENABLED = False


def profiling_enabled() -> bool:
    return _ENABLED


@contextmanager
def profiling(enabled: bool = True) -> Iterator[None]:
    """Scoped enable/disable; restores the previous state on exit."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


class SimProfiler:
    """Per-construct accumulator for one simulation run.

    ``add`` sits on the simulator's activation path, so it stays a
    dict upsert on a plain list — no locks (a simulation run is
    single-threaded) and no dataclass per call.
    """

    __slots__ = ("constructs",)

    def __init__(self) -> None:
        # key -> [seconds, activations, evals, steps]
        self.constructs: dict[ConstructKey, list] = {}

    def add(self, key: ConstructKey, seconds: float, evals: int,
            steps: int) -> None:
        row = self.constructs.get(key)
        if row is None:
            row = self.constructs[key] = [0.0, 0, 0, 0]
        row[0] += seconds
        row[1] += 1
        row[2] += evals
        row[3] += steps

    # ------------------------------------------------------------------
    @property
    def attributed_seconds(self) -> float:
        return sum(row[0] for row in self.constructs.values())

    def rows(self) -> list[dict]:
        """JSON-ready construct rows, hottest first (ties: by path)."""
        rendered = [
            {
                "path": construct_path(key),
                "kind": key[1],
                "line": key[2],
                "seconds": round(row[0], 9),
                "activations": row[1],
                "evals": row[2],
                "steps": row[3],
            }
            for key, row in self.constructs.items()
        ]
        rendered.sort(key=lambda row: (-row["seconds"], row["path"]))
        return rendered

    def merge(self, other: "SimProfiler") -> None:
        """Fold another run's constructs into this accumulator."""
        for key, row in other.constructs.items():
            mine = self.constructs.get(key)
            if mine is None:
                self.constructs[key] = list(row)
            else:
                mine[0] += row[0]
                mine[1] += row[1]
                mine[2] += row[2]
                mine[3] += row[3]


def construct_path(key: ConstructKey) -> str:
    """Render a construct key as a hierarchical path.

    Matches the elaborator's flat-name convention: the top scope's path
    is empty, so top-level constructs render bare (``always@12``) and
    instanced ones carry the instance chain (``b1.always@9``).
    """
    path, kind, line = key
    name = f"{kind}@{line}"
    return f"{path}.{name}" if path else name


def maybe_sim_profiler() -> "SimProfiler | None":
    """A fresh profiler when profiling is on *and* a trace sink exists.

    Requiring a sink keeps ``enable_profiling()`` free when there is
    nowhere to publish frames — the evaluator passes the returned
    ``None`` straight through and the simulator's dispatch loop stays
    untouched.
    """
    if _ENABLED and tracing_active():
        return SimProfiler()
    return None


def profile_frame(
    profiler: SimProfiler,
    problem: "int | None" = None,
    sim_seconds: float = 0.0,
    engine: "str | None" = None,
) -> dict:
    """Build the ``profile`` NDJSON frame for one simulation run.

    ``engine`` names the execution engine that produced the run
    (``"interpreter"`` or ``"compiled"``).  Compiled runs attribute wall
    seconds, activations and suspension steps exactly like interpreted
    ones (the profiler times process resumes, which both engines share),
    but compiled expression closures do not tick the per-eval counter —
    so compiled frames carry ``"evals_attributed": false`` and
    downstream consumers must not compare eval counts across engines.
    Constructs that fell back to the interpreter inside a compiled run
    still tick evals; the flag is deliberately conservative.
    """
    frame = {
        "type": "profile",
        "t": round(time.monotonic(), 6),
        "sim_seconds": round(float(sim_seconds), 9),
        "tags": current_tags(),
        "constructs": profiler.rows(),
    }
    if engine is not None:
        frame["engine"] = engine
        frame["evals_attributed"] = engine != "compiled"
    if problem is not None:
        frame["problem"] = problem
    return frame


def record_profile(
    profiler: SimProfiler,
    problem: "int | None" = None,
    sim_seconds: float = 0.0,
    engine: "str | None" = None,
) -> None:
    """Publish one run's profile to the installed trace sinks."""
    if not profiler.constructs or not tracing_active():
        return
    record_frame(profile_frame(profiler, problem=problem,
                               sim_seconds=sim_seconds, engine=engine))


__all__ = [
    "SimProfiler",
    "construct_path",
    "disable_profiling",
    "enable_profiling",
    "maybe_sim_profiler",
    "profile_frame",
    "profiling",
    "profiling_enabled",
    "record_profile",
]
