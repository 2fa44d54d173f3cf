"""Pure arithmetic of the end-to-end benchmark: percentiles, open-loop
latency, run-to-run spread and span self times.

Nothing here touches the detector, a socket or the clock, so the smoke test
checks every rule on hand-made numbers.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is only reported as such when at least this many samples
#: lie beyond it (choosing-metrics guide, section 1).
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def midmean(values: Sequence[float]) -> float:
    """Mean of the middle half of the samples (the interquartile mean).

    The notification latencies of a server whose threads share one
    interpreter lock come in steps of a few milliseconds (one step per lock
    hand-off), and a plain median jumps a whole step when the share of
    samples on either side of it crosses one half.  The midmean moves with
    that share smoothly, and like the median ignores both tails.
    """
    if not values:
        raise ValueError("midmean of no samples")
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def highest_supported_percentile(n: int, beyond: int = SAMPLES_BEYOND) -> Optional[int]:
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples strictly beyond it; None when not even the median qualifies."""
    if n <= 0:
        return None
    p = math.floor(100.0 * (1.0 - beyond / n))
    return p if p >= 50 else None


def percentile_supported(n: int, p: float, beyond: int = SAMPLES_BEYOND) -> bool:
    """Whether ``n`` samples leave at least ``beyond`` beyond percentile ``p``."""
    return n - math.ceil(p / 100.0 * n) >= beyond


def last_message_of_quantum(quantum: int, quantum_size: int) -> int:
    """Stream index (0-based) of the message that completes ``quantum``."""
    return (quantum + 1) * quantum_size - 1


def due_time(start: float, message_index: int, rate: float) -> float:
    """When message ``message_index`` of an open-loop stream at ``rate``
    messages per second is due: the schedule, whatever the generator did."""
    return start + (message_index + 1) / rate


def notify_latencies(
    start: float,
    rate: float,
    quantum_size: int,
    expected_quanta: Iterable[int],
    received_at: Dict[int, float],
) -> Tuple[List[float], int]:
    """Open-loop notification latency per notifying quantum, in seconds.

    Each latency runs from the *due* time of the quantum's last message to
    the receipt of the quantum's last event record.  A quantum is late when
    its latency exceeds one arrival interval (``quantum_size / rate``): the
    next quantum had then fully arrived before this one was reported.  A
    quantum the oracle says must notify and that never did has no latency
    and counts as late.  Returns ``(latencies, late_count)``.
    """
    interval = quantum_size / rate
    latencies: List[float] = []
    late = 0
    for quantum in expected_quanta:
        got = received_at.get(quantum)
        if got is None:
            late += 1
            continue
        latency = got - due_time(
            start, last_message_of_quantum(quantum, quantum_size), rate
        )
        latencies.append(latency)
        if latency > interval:
            late += 1
    return latencies, late


def undisturbed_total(repeats: Sequence[Sequence[float]]) -> float:
    """The time of one pass over steps that were each timed in every one of
    several identical passes: per step the shortest time, then the sum.

    The host shares its cores with neighbours that come and go; while one is
    busy, a step takes up to twice as long, for a second or for a minute.
    Interference only ever adds time, so a step's shortest time is the one
    nearest to what the program needs, which is what a change to the program
    moves.  No step is left out, so a rare expensive step counts in full;
    a disturbance counts only where it hit the same step in every pass.
    """
    return sum(min(times) for times in zip(*repeats))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver takes them."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(median)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is worse (<= 0: not)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Sum of self time per span name.

    ``spans`` are ``(name, start, end, parent_index, quantum)`` rows; a
    span's self time is its duration minus the duration of the spans that
    name it as parent.
    """
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        parent = row[3]
        if parent is not None:
            own[parent] -= row[2] - row[1]
    totals: Dict[str, float] = {}
    for row, seconds in zip(spans, own):
        totals[row[0]] = totals.get(row[0], 0.0) + seconds
    return totals
