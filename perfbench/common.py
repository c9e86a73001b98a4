"""Outcome accounting, quantiles and process figures shared by workloads."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

from repro.errors import OverloadedError


class Tally:
    """Counts every operation's outcome against its reference.

    A refusal (``OverloadedError``), any other error and a wrong output
    all count as failed.  Only errors and wrong outputs make the run
    incorrect: refusals are the server's documented admission control
    (see the notes on ``--max-pending``).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.refused = 0
        self.errors = 0
        self.wrong = 0
        self.first_problem: Optional[str] = None

    def check(self, expected, got) -> bool:
        """Record one outcome; ``got`` is an output or an exception."""
        self.attempted += 1
        if isinstance(got, OverloadedError):
            self.refused += 1
            return False
        if isinstance(got, Exception):
            self.errors += 1
            self._note(f"error {type(got).__name__}: {got}")
            return False
        if got != expected:
            self.wrong += 1
            self._note(f"wrong output {got!r}, expected {expected!r}")
            return False
        self.ok += 1
        return True

    def _note(self, problem: str) -> None:
        if self.first_problem is None:
            self.first_problem = problem[:400]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def correct(self) -> bool:
        return self.errors == 0 and self.wrong == 0

    @property
    def ok_share(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0


def percentile(values: List[float], p: float) -> float:
    """The ``p``-th percentile (0 < p < 100), linearly interpolated."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[int(round(p * 10)) - 1]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (default: this one), in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def metric(value: float, unit: str, calls: Optional[int] = None) -> Dict:
    """One metric entry; ``calls`` is kept for the printed ledger only."""
    entry = {"value": float(value), "unit": unit}
    if calls is not None:
        entry["calls"] = int(calls)
    return entry


def mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def dag_nodes(trees: Iterable) -> int:
    """Distinct interned subtrees across ``trees``."""
    seen = set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        stack.extend(node.children)
    return len(seen)
