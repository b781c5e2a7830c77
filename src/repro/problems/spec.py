"""Dataclasses describing the 17-problem evaluation set (paper Table II).

A :class:`Problem` bundles everything the evaluation pipeline needs:

* three prompts of increasing detail (L/M/H, paper Sec. IV-B) — each is
  the text handed to the LLM, ending mid-module so the model completes it;
* the canonical (correct) completion body;
* *wrong variants*: completions that compile but fail the test bench,
  modelled on the paper's published failure examples (Fig. 2c/3c/4c);
* a self-checking test bench whose output contains ``ALL TESTS PASSED``
  exactly when the design under test is functionally correct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Difficulty(enum.Enum):
    """Problem difficulty level from Table II."""

    BASIC = "basic"
    INTERMEDIATE = "intermediate"
    ADVANCED = "advanced"

    def __str__(self) -> str:
        return self.value


class PromptLevel(enum.Enum):
    """Prompt description detail from Sec. IV-B."""

    LOW = "L"
    MEDIUM = "M"
    HIGH = "H"

    def __str__(self) -> str:
        return self.value


PASS_MARKER = "ALL TESTS PASSED"

#: what :meth:`Problem.bench_source` puts between the design and its bench
_BENCH_JOIN = "\n"


@dataclass(frozen=True)
class WrongVariant:
    """A completion that compiles but fails functional tests."""

    name: str
    body: str
    description: str = ""


@dataclass(frozen=True)
class Problem:
    """One problem of the evaluation set."""

    number: int
    slug: str
    title: str
    difficulty: Difficulty
    module_name: str
    prompts: dict[PromptLevel, str]
    canonical_body: str
    testbench: str
    wrong_variants: tuple[WrongVariant, ...] = field(default_factory=tuple)

    def prompt(self, level: PromptLevel) -> str:
        return self.prompts[level]

    def full_source(self, completion: str, level: PromptLevel = PromptLevel.LOW) -> str:
        """Assemble a complete module: prompt text + completion body."""
        prompt = self.prompts[level].rstrip("\n")
        return f"{prompt}\n{completion.strip()}\n"

    def canonical_source(self, level: PromptLevel = PromptLevel.LOW) -> str:
        return self.full_source(self.canonical_body, level)

    def bench_source(self, completion: str, level: PromptLevel = PromptLevel.LOW) -> str:
        """Module-under-test plus its test bench, ready to simulate."""
        return self.full_source(completion, level) + _BENCH_JOIN + self.testbench

    @staticmethod
    def testbench_line(design_source: str) -> int:
        """Line of the bench source on which the test bench starts, when
        ``design_source`` is the :meth:`full_source` it is built from."""
        return (design_source + _BENCH_JOIN).count("\n") + 1

    def __str__(self) -> str:
        return f"Problem {self.number}: {self.title} ({self.difficulty})"
