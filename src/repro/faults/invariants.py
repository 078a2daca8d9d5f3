"""Continuous safety-invariant monitoring for chaos runs.

An :class:`InvariantMonitor` attaches to a live cluster and checks, on
every commit and every aom delivery, the three properties a fault
campaign must never be able to break:

1. **Agreement** — no two replicas commit different entries at the same
   slot (digests must match across every replica that commits it).
2. **Prefix monotonicity** — a replica's committed prefix only grows,
   and entries inside it are never rewritten (checked in O(1) per commit
   via the log's hash chain, not by rescanning the prefix).

   Both are checked for every protocol family: each replica's
   :class:`~repro.protocols.log.ReplicaLog` calls the monitor from its
   ``on_commit`` hook list whenever its commit cursor advances.
3. **Ordered delivery** — each replica's aom stream (certificates plus
   drop-notifications) is exactly the contiguous sequence 1, 2, 3, …
   within an epoch, and every certificate carries the sequence number it
   was delivered at.

Violations raise :class:`InvariantViolation` immediately — at the exact
virtual instant the bad commit happens, not at the end of the run — with
the campaign's fault timeline attached so the failing schedule is in the
traceback.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.protocols.log import ReplicaLog


class InvariantViolation(AssertionError):
    """A safety property was broken during a run."""


class InvariantMonitor:
    """Commit-time and delivery-time safety checker for one cluster.

    ``context`` is an optional zero-argument callable (typically a
    campaign's :meth:`~repro.faults.campaign.FaultCampaign.describe`)
    whose output is appended to every violation message, so a failure
    names the fault schedule that provoked it.
    """

    def __init__(self, context: Optional[Callable[[], str]] = None):
        self.context = context
        self.checks = 0  # invariant evaluations performed
        self.violations: List[str] = []
        self._sim = None  # set at attach; used to find the telemetry sink
        self._restores: List[Callable[[], None]] = []
        # slot -> (digest, name of the first replica to commit it), for
        # slots at or above the lowest watched commit cursor
        self._slot_digests: Dict[int, Tuple[bytes, str]] = {}
        self._digest_floor = 0  # slots below it are dropped from _slot_digests
        # replica name -> (commit_cursor, chain hash over the committed prefix)
        self._commit_watch: Dict[str, Tuple[int, Optional[bytes]]] = {}
        # (replica name, epoch) -> next expected aom sequence
        self._aom_expected: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------ lifecycle

    def attach(self, cluster) -> "InvariantMonitor":
        """Hook every replica's commit and aom-delivery paths."""
        self._sim = getattr(cluster, "sim", None)
        for replica in cluster.replicas:
            log = getattr(replica, "log", None)
            if log is not None:
                hook = partial(self._check_commits, replica.name)
                log.on_commit.append(hook)
                self._restores.append(partial(log.on_commit.remove, hook))
                self._commit_watch.setdefault(replica.name, (0, None))
            lib = getattr(replica, "aom_lib", None)
            if lib is not None:
                hook = partial(self._check_sequence, replica.name)
                lib.on_deliver.append(hook)
                self._restores.append(partial(lib.on_deliver.remove, hook))
        return self

    def detach(self) -> None:
        """Remove every installed hook (state is kept)."""
        for restore in reversed(self._restores):
            restore()
        self._restores.clear()

    # -------------------------------------------------------------- commits

    def _check_commits(self, name: str, log: ReplicaLog, before: int) -> None:
        """``on_commit`` hook: ``name``'s cursor advanced from ``before``."""
        after = log.commit_cursor
        prev_cursor, prev_hash = self._commit_watch.get(name, (0, None))
        if after < prev_cursor:
            self._fail(
                f"{name}: committed prefix shrank from {prev_cursor} to {after}"
            )
        if prev_hash is not None and log.hash_up_to(prev_cursor - 1) != prev_hash:
            self._fail(
                f"{name}: committed prefix [0, {prev_cursor}) was rewritten "
                "after it became durable"
            )
        self._commit_watch[name] = (
            after,
            log.hash_up_to(after - 1) if after > 0 else None,
        )
        for slot in range(before, after):
            entry = log.get(slot)
            seen = self._slot_digests.get(slot)
            if seen is None:
                self._slot_digests[slot] = (entry.digest, name)
            elif seen[0] != entry.digest:
                request = getattr(entry, "request", None)
                trace = None
                if request is not None:
                    client_id = getattr(request, "client_id", None)
                    request_id = getattr(request, "request_id", None)
                    if client_id is not None and request_id is not None:
                        trace = (client_id, request_id)
                self._fail(
                    f"conflicting commits at slot {slot}: {name} committed "
                    f"{entry.digest.hex()[:12]} but {seen[1]} committed "
                    f"{seen[0].hex()[:12]}",
                    trace=trace,
                )
        # Every watched replica has compared its digest below the lowest
        # cursor, and a cursor never shrinks unflagged: drop those slots.
        floor = min(cursor for cursor, _ in self._commit_watch.values())
        for slot in range(self._digest_floor, floor):
            self._slot_digests.pop(slot, None)
        self._digest_floor = max(self._digest_floor, floor)
        self.checks += 1

    # ------------------------------------------------------------- delivery

    def _check_sequence(self, name: str, epoch: int, sequence: int, what: str) -> None:
        """``on_deliver`` hook: ``name``'s aom lib is delivering ``sequence``."""
        key = (name, epoch)
        expected = self._aom_expected.get(key, 1)
        if sequence != expected:
            self._fail(
                f"{name}: epoch {epoch} delivered {what} with sequence "
                f"{sequence}, expected {expected} (delivery order diverged "
                "from the certificate stream)"
            )
        self._aom_expected[key] = expected + 1
        self.checks += 1

    # ------------------------------------------------------------- failures

    def _fail(self, message: str, trace: Optional[Tuple[int, int]] = None) -> None:
        self.violations.append(message)
        if self.context is not None:
            timeline = self.context()
            if timeline:
                message = f"{message}\n--- campaign timeline ---\n{timeline}"
        span_tree = self._render_span_tree(trace)
        if span_tree:
            message = f"{message}\n--- offending request span tree ---\n{span_tree}"
        raise InvariantViolation(message)

    def _render_span_tree(self, trace: Optional[Tuple[int, int]]) -> str:
        """The offending request's journey, when telemetry recorded it."""
        if trace is None or self._sim is None:
            return ""
        tel = getattr(self._sim, "telemetry", None)
        if tel is None:
            return ""
        return tel.spans.render_trace(trace)
