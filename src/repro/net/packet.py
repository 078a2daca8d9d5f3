"""Packets, addresses, and wire-size estimation.

Host addresses are plain ints (assigned by the fabric). Multicast group
addresses are :class:`GroupAddress` values; the fabric routes them to the
registered in-network handler (the aom sequencer) instead of a host.

Wire sizes drive serialization delay and per-byte CPU charges. Protocol
message classes may define ``wire_size()``; for everything else
:func:`wire_size_of` estimates from the object's fields, so forgetting a
method degrades the model gracefully instead of crashing a run.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Union

from repro.records import record

UDP_HEADER_BYTES = 42  # Ethernet + IPv4 + UDP framing


@record(frozen=True)
class GroupAddress:
    """A multicast group identity (the aom group address of §3.2)."""

    group_id: int

    def __str__(self) -> str:
        return f"group:{self.group_id}"


Address = Union[int, GroupAddress]


@record
class Packet:
    """One network-layer datagram in flight."""

    src: int
    dst: Address
    message: Any
    size: int
    sent_at: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.src}->{self.dst} {type(self.message).__name__} "
            f"{self.size}B @{self.sent_at}>"
        )


def wire_size_of(message: Any) -> int:
    """Estimated serialized size of a protocol message, framing included."""
    return UDP_HEADER_BYTES + _payload_size(message, 0)


# Per-type sizer dispatch. The estimation rules depend only on a value's
# type (which isinstance branch applies; for dataclasses, the field list),
# so the resolution is done once per type and cached — the per-call work
# collapses to one dict lookup plus the type's own arithmetic. Sizes still
# reflect each instance's actual contents.
_SIZERS: dict = {}


def _size_small_const(value: Any, depth: int) -> int:
    return 1


def _size_word(value: Any, depth: int) -> int:
    return 8


def _size_len(value: Any, depth: int) -> int:
    return len(value)


def _size_sequence(value: Any, depth: int) -> int:
    depth += 1
    size = 2
    for item in value:
        size += _payload_size(item, depth)
    return size


def _size_dict(value: Any, depth: int) -> int:
    depth += 1
    return 2 + sum(
        _payload_size(k, depth) + _payload_size(v, depth) for k, v in value.items()
    )


def _size_declared(value: Any, depth: int) -> int:
    return value.wire_size()


def _size_opaque(value: Any, depth: int) -> int:
    return 16  # opaque object: charge a conservative constant


def _resolve_sizer(cls: type):
    """Pick the sizing rule for ``cls`` (same precedence as isinstance checks)."""
    if cls is type(None) or issubclass(cls, bool):
        return _size_small_const
    if issubclass(cls, (int, float)):
        return _size_word
    if issubclass(cls, (bytes, bytearray, str)):
        return _size_len
    if issubclass(cls, (list, tuple, frozenset, set)):
        return _size_sequence
    if issubclass(cls, dict):
        return _size_dict
    if callable(getattr(cls, "wire_size", None)):
        return _size_declared
    if is_dataclass(cls):
        field_names = tuple(f.name for f in fields(cls))

        def _size_dataclass(value: Any, depth: int, _names=field_names) -> int:
            depth += 1
            size = 2
            for name in _names:
                size += _payload_size(getattr(value, name), depth)
            return size

        return _size_dataclass
    return _size_opaque


def _payload_size(value: Any, depth: int) -> int:
    if depth > 6:
        return 8
    cls = value.__class__
    sizer = _SIZERS.get(cls)
    if sizer is None:
        sizer = _resolve_sizer(cls)
        _SIZERS[cls] = sizer
    return sizer(value, depth)
