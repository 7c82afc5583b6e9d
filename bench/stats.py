"""Order statistics and failure accounting for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

# Percentiles a tail may be reported at.  A tail is only as good as the
# samples beyond it, so the highest rung with at least MIN_BEYOND samples
# above its rank is the one reported.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule (no interpolation)."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile leaving at least MIN_BEYOND of n samples above it.

    None when n is too small for even the median to have that many
    samples beyond it.
    """
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


@dataclass(frozen=True)
class Timing:
    """Median and tail of one set of durations, with the sample count."""

    n: int
    p50: float
    tail_p: Optional[float]
    tail: Optional[float]

    def describe(self) -> str:
        if self.tail_p is None:
            return f"p50={self.p50:.4f}s tail=n/a (n={self.n}, needs {2 * MIN_BEYOND})"
        return f"p50={self.p50:.4f}s p{self.tail_p:g}={self.tail:.4f}s (n={self.n})"


def timing(values: Sequence[float]) -> Timing:
    p = tail_percentile(len(values))
    return Timing(
        n=len(values),
        p50=statistics.median(values),
        tail_p=p,
        tail=None if p is None else nearest_rank(values, p),
    )


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# Outcome of one verdict (a JE test result a user would read).
OK = "ok"
FIT_FAILED = "fit_failed"      # bootstrap raised: the record has ok=False
JE_NONE = "je_none"            # the JE p-value is None
CLI_EXIT_1 = "exit_1"          # validate reported a runtime failure
CLI_EXIT_2 = "exit_2"          # validate rejected its input


@dataclass
class Tally:
    """Operations and verdicts attempted, and which of them failed.

    An operation (a CLI call or a Monte Carlo replicate) yields one or more
    verdicts.  ``fail_frac`` is the share of verdicts that were not
    produced or not trusted: a verdict whose outcome is not OK, or any
    verdict of an operation that failed a check (malformed artifact,
    reference or determinism mismatch).  ``failed`` counts only the
    operations that failed a check: those are wrong outputs, whereas a
    missing verdict on tied data is the program's correct answer.
    """

    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    lost: int = 0
    outcomes: Counter = field(default_factory=Counter)
    problems: List[str] = field(default_factory=list)

    def add(self, outcomes: Iterable[str], problems: Sequence[str] = ()) -> None:
        outcomes = list(outcomes)
        self.attempted += 1
        self.verdicts += len(outcomes)
        self.outcomes.update(outcomes)
        if problems:
            self.failed += 1
            self.lost += len(outcomes)
            self.problems.extend(problems)
        else:
            self.lost += sum(o != OK for o in outcomes)

    def flag(self, problem: str) -> None:
        """A check failure not tied to one operation (counts as one failed op)."""
        self.failed += 1
        self.problems.append(problem)

    @property
    def fail_frac(self) -> float:
        return self.lost / self.verdicts if self.verdicts else 0.0


def replicate_outcomes(record: dict, methods: Sequence[str], covs: Sequence[str]) -> List[str]:
    """One outcome per (method, covariance) verdict of a simulation record."""
    out = []
    for m in methods:
        entry = record[m]
        for c in covs:
            if not entry["ok"]:
                out.append(FIT_FAILED)
            elif entry["je"].get(c) is None:
                out.append(JE_NONE)
            else:
                out.append(OK)
    return out
