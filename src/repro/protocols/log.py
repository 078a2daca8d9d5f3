"""The replica log with hash chaining and speculative rollback.

Each slot holds either a client request (with its ordering evidence) or a
committed no-op. The log maintains an O(1)-per-append hash chain over
entry digests — NeoBFT replies carry the chain head (``log-hash``) so a
client's 2f+1 matching replies prove 2f+1 replicas agree on the entire
prefix, and the chain supports O(1) truncation for speculative rollback
(§5.2's "roll back application state").
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, List, Optional

from repro.crypto.digests import HashChain, sha256_digest
from repro.records import record


class EntryKind(str, Enum):
    """What occupies a log slot."""

    REQUEST = "request"
    NOOP = "noop"


@record
class LogEntry:
    """One log slot's contents."""

    kind: EntryKind
    digest: bytes
    request: Any = None  # ClientRequest for REQUEST entries
    evidence: Any = None  # OrderingCertificate / quorum cert / gap cert
    view: int = 0
    epoch: int = 0
    result: bytes = b""
    executed: bool = False
    # The slot's undo record: a zero-argument callable that reverts its
    # execution, the app's inverse plus the replica's client-table entry
    # (which in turn holds the previous reply). Only
    # speculative rollback (``rollback_to``) runs it, and rollback never
    # reaches below a committed sync point, so it is set by
    # ``mark_executed`` only above ``commit_cursor`` and dropped when
    # ``mark_committed_up_to`` covers the slot.
    undo: Optional[Callable[[], None]] = None
    committed: bool = False


NOOP_DIGEST = sha256_digest(b"no-op")


class ReplicaLog:
    """Append/overwrite log with chained heads and execution tracking.

    Every protocol family keeps one per replica. What a slot means is the
    family's: the aom-derived log position for NeoBFT, the agreed sequence
    number for PBFT, HotStuff and Zyzzyva, and the execution index for
    MinBFT (whose USIG counters are not contiguous).

    ``on_commit`` holds subscribers to the durable prefix: each is called
    as ``hook(log, before)`` whenever ``mark_committed_up_to`` advances
    ``commit_cursor`` from ``before``, after the newly covered slots are
    marked. The invariant monitor subscribes here.

    ``low_water`` is the first retained slot: ``release_below`` forgets
    the entries and chain heads before a point the family knows no peer
    will ask about again. Slot numbers keep their meaning and ``len`` stays
    the next slot; ``entries[i]`` is slot ``low_water + i``.
    """

    def __init__(self):
        self.entries: List[LogEntry] = []  # slots [low_water, len(self))
        self.chain = HashChain()
        self.low_water = 0  # slots below it are released
        self.exec_cursor = 0  # slots [0, exec_cursor) are executed
        self.commit_cursor = 0  # slots [0, commit_cursor) are durable
        self.on_commit: List[Callable[["ReplicaLog", int], None]] = []

    def __len__(self) -> int:
        return self.low_water + len(self.entries)

    @property
    def next_slot(self) -> int:
        """Index the next append lands in."""
        return len(self)

    def get(self, slot: int) -> Optional[LogEntry]:
        """Entry at ``slot`` (None when released or out of range)."""
        index = slot - self.low_water
        if 0 <= index < len(self.entries):
            return self.entries[index]
        return None

    def append(self, entry: LogEntry) -> int:
        """Append; returns the slot index."""
        self.entries.append(entry)
        self.chain.append(entry.digest)
        return len(self) - 1

    def head_hash(self) -> bytes:
        """Current chain head over all entries."""
        return self.chain.head

    def hash_up_to(self, slot: int) -> bytes:
        """Chain head over slots [0, slot]."""
        return self.chain.head_at(slot + 1)

    # ------------------------------------------------------------ overwrite

    def overwrite_with_noop(self, slot: int, evidence: Any, view: int) -> List[LogEntry]:
        """Replace ``slot`` with a committed no-op (gap/view-change outcome).

        Rolls back execution if the slot (or anything after it) already
        executed; returns the entries [slot:] — the no-op and the suffix —
        that the caller must (re-)execute.
        """
        if not 0 <= slot < len(self):
            raise IndexError(f"no slot {slot} to overwrite")
        self._check_retained(slot)
        suffix = self.entries[slot - self.low_water + 1 :]
        self.truncate(slot)
        self.append(
            LogEntry(
                kind=EntryKind.NOOP,
                digest=NOOP_DIGEST,
                evidence=evidence,
                view=view,
                committed=True,
            )
        )
        for entry in suffix:
            self.append(entry)
        return self.entries[slot - self.low_water :]

    def truncate(self, slot: int) -> None:
        """Drop slots >= ``slot`` and their chain heads, undoing their execution."""
        self.rollback_to(slot)
        del self.entries[slot - self.low_water :]
        self.chain.truncate(slot)

    def rollback_to(self, slot: int) -> List[LogEntry]:
        """Undo execution of slots >= ``slot``; returns those entries.

        Undo records run in reverse slot order, restoring application
        state to just before ``slot`` executed.
        """
        self._check_retained(slot)
        start = slot - self.low_water
        if self.exec_cursor <= slot:
            return self.entries[start:]
        for entry in reversed(self.entries[start : self.exec_cursor - self.low_water]):
            if entry.executed and entry.undo is not None:
                entry.undo()
            entry.executed = False
            entry.undo = None
        self.exec_cursor = slot
        return self.entries[start:]

    def _check_retained(self, slot: int) -> None:
        if slot < self.low_water:
            raise ValueError(f"slot {slot} is below the low-water mark {self.low_water}")

    # ------------------------------------------------------------ execution

    def next_unexecuted(self) -> Optional[int]:
        """Lowest slot not yet executed, if it exists."""
        if self.exec_cursor < len(self):
            return self.exec_cursor
        return None

    def mark_executed(self, slot: int, result: bytes, undo) -> None:
        """Record execution of the slot at the cursor.

        ``undo`` is kept only while the slot is above the commit cursor: a
        committed slot is never rolled back.
        """
        if slot != self.exec_cursor:
            raise ValueError(f"out-of-order execution: {slot} != {self.exec_cursor}")
        entry = self.entries[slot - self.low_water]
        entry.executed = True
        entry.result = result
        entry.undo = undo if slot >= self.commit_cursor else None
        self.exec_cursor += 1

    def mark_committed_up_to(self, slot: int) -> None:
        """Advance the durable prefix (state sync / commit decisions).

        Marks only the newly covered slots and releases their undo
        records, which nothing can run once the slot is durable, then
        runs the ``on_commit`` hooks if the cursor moved.
        """
        before = self.commit_cursor
        end = min(slot + 1, len(self))
        if end <= before:
            return
        for entry in self.entries[before - self.low_water : end - self.low_water]:
            entry.committed = True
            entry.undo = None
        self.commit_cursor = end
        for hook in self.on_commit:
            hook(self, before)

    # ------------------------------------------------------------ release

    def release_below(self, slot: int) -> None:
        """Forget the entries and chain heads of slots below ``slot``.

        The mark is clamped to the commit and execution cursors, so only
        durable, executed slots go. ``hash_up_to(low_water - 1)`` keeps
        working: the chain keeps its head at the new base.
        """
        mark = min(slot, self.commit_cursor, self.exec_cursor)
        if mark <= self.low_water:
            return
        del self.entries[: mark - self.low_water]
        self.chain.release_below(mark)
        self.low_water = mark
