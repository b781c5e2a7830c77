"""The benchmark's workloads and the inputs each one builds from a seed.

Every workload is closed-loop: one caller hands the program the next job
or evaluation only after the previous one returned.

* ``sweep-serial`` -- the paper's default grid (11 model variants x 17
  problems x 3 prompt levels x 5 temperatures x n=10) on the local zoo,
  run by the inline executor.
* ``sweep-process2-store`` -- the same grid on a 2-worker process pool
  that shares a fresh on-disk verdict store.
* ``verify-unique`` -- distinct completions, one ``Evaluator.evaluate``
  call each on a fresh evaluator, so every call misses every cache.

Functions here import the program lazily: the set-up timer starts
before ``import repro``.
"""

from __future__ import annotations

import enum
import random

SWEEPS = ("sweep-serial", "sweep-process2-store")
WORKLOADS = SWEEPS + ("verify-unique",)

#: pool width of ``sweep-process2-store``; the benchmark machine has 2 cores
PROCESS_WORKERS = 2

#: copies of each of the 65 base completions (17 references + 48 wrong
#: variants) in one ``verify-unique`` input: 520 calls, enough for a p98
#: with ten samples beyond it in every run
VERIFY_COPIES = 8


def sweep_config(tiny: bool):
    """The grid a sweep workload plans: the paper default, or 3 problems
    at one temperature for the benchmark's own tests."""
    from repro.eval.harness import SweepConfig

    if tiny:
        return SweepConfig(problem_numbers=(1, 2, 3), temperatures=(0.1,))
    return SweepConfig()


def verify_inputs(seed: int, tiny: bool) -> list[tuple]:
    """``(problem, completion, level, expected verdict)`` per evaluation.

    Each completion is a cosmetic variant of a problem's reference body
    (expected ``pass``) or of one of its wrong variants (expected
    ``test-fail``), prefixed by a comment line unique to the completion,
    so no two share a cache key.  Every base body appears equally often
    and only the variant text, prompt level and order depend on the
    seed, which keeps the amount of work nearly equal across seeds.
    """
    from repro.models.mutations import cosmetic_variant
    from repro.problems import ALL_PROBLEMS, PromptLevel

    rng = random.Random(seed)
    bases = []
    for problem in ALL_PROBLEMS:
        bases.append((problem, problem.canonical_body, "pass"))
        bases.extend(
            (problem, variant.body, "test-fail")
            for variant in problem.wrong_variants
        )
    levels = list(PromptLevel)
    items = []
    for copy in range(1 if tiny else VERIFY_COPIES):
        for index, (problem, body, expected) in enumerate(bases):
            text = (f"  // completion {seed}.{copy}.{index}\n"
                    + cosmetic_variant(body, rng))
            items.append((problem, text, rng.choice(levels), expected))
    rng.shuffle(items)
    return items


#: field order of a sweep row (``CompletionRecord``)
RECORD_FIELDS = (
    "model", "base_model", "fine_tuned", "problem", "difficulty", "level",
    "temperature", "n", "sample_index", "compiled", "passed",
    "inference_seconds",
)


def _plain(value):
    return value.value if isinstance(value, enum.Enum) else value


def sweep_rows(result) -> list:
    """A sweep's records and job errors as rows of plain values, in plan
    order, so a sweep compares field for field with rows read back from
    JSON."""
    rows = [
        [_plain(getattr(record, name)) for name in RECORD_FIELDS]
        for record in result.sweep.records
    ]
    rows.extend(
        ["job-error", repr(error.job), error.stage, error.exception]
        for error in result.errors
    )
    return rows
