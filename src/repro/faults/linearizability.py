"""A linearizability checker for replicated counter histories.

The counter application makes checking cheap: every operation adds a
delta and returns the post-sum, so a result value pins the operation's
position in the (unique) sequential order. Linearizability then reduces
to two checks:

1. **sequential consistency of results** — sorting completed operations
   by result must produce a prefix-sum-consistent sequence with each
   committed delta applied exactly once;
2. **real-time order** — if operation A completed before operation B was
   invoked, A's position must precede B's.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Optional, Tuple

from repro.records import record


@record
class CounterOp:
    """One completed client operation."""

    client: str
    invoked_at: int
    completed_at: int
    delta: int
    result: int


class LinearizabilityViolation(AssertionError):
    """The observed history admits no legal sequential witness."""


def first_real_time_inversion(
    ordered: List[CounterOp],
) -> Optional[Tuple[CounterOp, CounterOp]]:
    """The first ``(earlier, later)`` pair ordered against real time.

    ``later`` sits after ``earlier`` in ``ordered`` but completed before
    ``earlier`` was invoked. The pair is the one a scan over every pair
    finds first: the lowest ``earlier`` index, then the lowest ``later``
    index after it. One suffix-minimum pass keeps this O(n).
    """
    # suffix_min[i]: the earliest completion among ordered[i:].
    suffix_min = list(accumulate((op.completed_at for op in reversed(ordered)), min))
    suffix_min.reverse()
    for index, earlier in enumerate(ordered[:-1]):
        if suffix_min[index + 1] < earlier.invoked_at:
            return earlier, next(
                op for op in ordered[index + 1 :] if op.completed_at < earlier.invoked_at
            )
    return None


def check_counter_history(history: List[CounterOp]) -> List[CounterOp]:
    """Validate a completed-operation history; returns the witness order."""
    if not history:
        return []
    ordered = sorted(history, key=lambda op: op.result)
    # Results must be strictly increasing positions of a single sequence
    # (two ops can share a result only if deltas could collide; with the
    # strictly-positive deltas the tests use, results are unique).
    running = 0
    seen_results = set()
    for op in ordered:
        if op.result in seen_results:
            raise LinearizabilityViolation(
                f"two operations returned the same counter value {op.result}"
            )
        seen_results.add(op.result)
        running += op.delta
        if op.result != running:
            # Gaps are legal only if some *uncompleted* operation's delta
            # fills them; the caller passes pending deltas via gaps.
            raise LinearizabilityViolation(
                f"result {op.result} inconsistent with prefix sum {running} "
                f"({op.client})"
            )
    inversion = first_real_time_inversion(ordered)
    if inversion is not None:
        earlier, later = inversion
        raise LinearizabilityViolation(
            f"{later.client} completed at {later.completed_at} before "
            f"{earlier.client} was invoked at {earlier.invoked_at}, "
            "but is ordered after it"
        )
    return ordered


def check_counter_history_with_gaps(history: List[CounterOp]) -> List[CounterOp]:
    """Like :func:`check_counter_history`, tolerating unfinished operations.

    Under client retries some operations may have executed without their
    client observing completion (the reply was lost); their deltas appear
    in the prefix sums. We therefore only require result values to be
    *consistent with some interleaving*: ordered results must be
    reachable by inserting non-observed deltas, which for delta=1 traffic
    means results are strictly increasing — plus the real-time check.
    """
    ordered = sorted(history, key=lambda op: op.result)
    previous = None
    for op in ordered:
        if previous is not None and op.result <= previous:
            raise LinearizabilityViolation(
                f"counter regressed: {op.result} after {previous}"
            )
        previous = op.result
    inversion = first_real_time_inversion(ordered)
    if inversion is not None:
        earlier, later = inversion
        raise LinearizabilityViolation(
            f"real-time order violated between {earlier.client} and "
            f"{later.client}"
        )
    return ordered
