"""The replicated state machine interface.

All NeoBFT-family protocols replicate deterministic state machines
(§5.1). The interface adds two things beyond ``execute``:

- **undo support**: speculative protocols (NeoBFT, Zyzzyva, Speculative
  Paxos) may execute an operation and later learn the slot committed as a
  no-op; ``execute_with_undo`` returns the operation's inverse, a
  zero-argument callable, so the replica can roll back without
  snapshotting whole state;
- **cost accounting**: ``exec_cost_ns`` tells the replica how much
  simulated CPU an operation charges, so application weight shows up in
  protocol throughput (the effect §6.5 measures).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.crypto.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.crypto.digests import sha256_digest

UndoFn = Optional[Callable[[], None]]


class StateMachine:
    """Base class for replicated applications."""

    def execute(self, op: bytes) -> bytes:
        """Apply ``op`` and return its result."""
        result, _ = self.execute_with_undo(op)
        return result

    def execute_with_undo(self, op: bytes) -> Tuple[bytes, UndoFn]:
        """Apply ``op``; returns (result, inverse or None)."""
        raise NotImplementedError

    def digest(self) -> bytes:
        """Digest of the current application state (checkpoints)."""
        raise NotImplementedError

    def exec_cost_ns(self, op: bytes, cost_model: CostModel = DEFAULT_COST_MODEL) -> int:
        """Simulated CPU cost of executing ``op``."""
        return cost_model.execute_noop_ns


class EchoApp(StateMachine):
    """The echo-RPC application of §6.2: result == operation bytes.

    Stateless, so undo is trivially a no-op; the state digest folds in an
    operation count so replicas that diverge in *how many* operations they
    executed still produce different digests.
    """

    def __init__(self):
        self.executed = 0
        # Every execution has the same inverse, so all share one.
        self._undo = self._unexecute

    def execute_with_undo(self, op: bytes) -> Tuple[bytes, UndoFn]:
        self.executed += 1
        return op, self._undo

    def _unexecute(self) -> None:
        self.executed -= 1

    def digest(self) -> bytes:
        return sha256_digest(b"echo:%d" % self.executed)


class CounterApp(StateMachine):
    """A tiny stateful app for tests: ops add signed deltas to a counter.

    Useful for verifying rollback correctness — the counter value after a
    rollback + re-execution must match a straight-line execution.
    """

    def __init__(self):
        self.value = 0

    def execute_with_undo(self, op: bytes) -> Tuple[bytes, UndoFn]:
        delta = int.from_bytes(op[:8], "big", signed=True) if op else 0
        self.value += delta

        def undo() -> None:
            self.value -= delta

        return self.value.to_bytes(8, "big", signed=True), undo

    def digest(self) -> bytes:
        return sha256_digest(b"counter:%d" % self.value)
