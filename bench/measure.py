"""Timing loops and the statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

P90 = 0.9
MIN_BEYOND_P90 = 10
# How far past --seconds a run may go to collect enough samples for p90.
MAX_STRETCH = 3.75


# Host speed: the shared machine's speed drifts by tens of percent within
# seconds, for code that does not change.  A fixed pure-Python kernel,
# timed every CALIBRATION_EVERY_S between items, tracks that drift; the
# times of each pass are scaled to a host on which it takes REFERENCE_S.
CALIBRATION_EVERY_S = 0.05
REFERENCE_S = 0.0025


def calibration_kernel() -> Fraction:
    """Fraction arithmetic on small integers, like the library's hot loops."""
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(1, i % 97 + 1)
    return total


class HostSpeed:
    """Times the calibration kernel at most every CALIBRATION_EVERY_S,
    filing each sample under a phase: a pass number, or "setup"."""

    def __init__(self) -> None:
        self.samples: dict[int | str, list[float]] = {}
        self._last = float("-inf")

    def sample(self, phase: int | str) -> None:
        t0 = perf_counter()
        calibration_kernel()
        self._last = perf_counter()
        self.samples.setdefault(phase, []).append(self._last - t0)

    def maybe_sample(self, phase: int | str) -> None:
        if perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample(phase)

    def all_samples(self) -> list[float]:
        return [t for group in self.samples.values() for t in group]

    def scale(self, phase: int | str) -> float:
        """Factor that turns a time measured here into reference-host time:
        from the samples of `phase` if it has any, else from all."""
        return REFERENCE_S / statistics.fmean(self.samples.get(phase) or self.all_samples())


@dataclass
class Attempt:
    """One closed-loop call: which pass and item, its latency, and the verdict."""

    pass_no: int
    label: str
    seconds: float
    ok: bool


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-percentile."""
    return n - max(math.ceil(q * n), 1)


def min_samples(q: float = P90, beyond: int = MIN_BEYOND_P90) -> int:
    """Fewest samples that leave `beyond` of them above the q-percentile."""
    n = beyond + 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def pass_rates(attempts: list[Attempt], items_per_pass: int) -> dict[int, float]:
    """Verified items per second of item time, for each complete pass."""
    passes: dict[int, list[Attempt]] = {}
    for a in attempts:
        passes.setdefault(a.pass_no, []).append(a)
    return {p: sum(a.ok for a in group) / sum(a.seconds for a in group)
            for p, group in passes.items() if len(group) == items_per_pass}


def _attempt(pass_no, item, call, check, reported: set) -> Attempt:
    t0 = perf_counter()
    try:
        out = call(item)
    except Exception:
        # The loop must go on: record the failure, show its first traceback.
        seconds = perf_counter() - t0
        if item.label not in reported:
            reported.add(item.label)
            print(f"{item.label}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        return Attempt(pass_no, item.label, seconds, False)
    seconds = perf_counter() - t0
    ok = check(item, out)
    if not ok and item.label not in reported:
        reported.add(item.label)
        print(f"{item.label}: output check failed", file=sys.stderr)
    return Attempt(pass_no, item.label, seconds, ok)


def run_pass(items, call, check, pass_no: int, reported: set) -> list[Attempt]:
    """Every item once, in order."""
    return [_attempt(pass_no, item, call, check, reported) for item in items]


def run_for(items, call, check, seconds: float, samples: int,
            speed: HostSpeed) -> list[Attempt]:
    """Cycle through the items until `seconds` have passed and `samples`
    calls were made, whichever is later, but stop at MAX_STRETCH times
    `seconds` once one pass is complete.  Output checks and host-speed
    samples run between the timed calls."""
    attempts: list[Attempt] = []
    reported: set = set()
    start = perf_counter()
    while True:
        k = len(attempts)
        attempts.append(_attempt(k // len(items), items[k % len(items)], call, check,
                                 reported))
        speed.maybe_sample(k // len(items))
        elapsed = perf_counter() - start
        whole_pass = len(attempts) >= len(items)
        if whole_pass and ((elapsed >= seconds and len(attempts) >= samples)
                           or elapsed >= MAX_STRETCH * seconds):
            return attempts
