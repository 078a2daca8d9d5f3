"""Every signed body, canonical form and header digest is byte-identical to
the length-prefixed encoding the project has always used.

``fields_digest`` replaced a pair of helpers, ``digest_concat`` (a SHA-256
over 4-byte-length-prefixed parts) and ``digest_int`` (8-byte big-endian
signed ints). They live on here as the reference: for random field values
each message's new bytes must equal what the old helpers produced, so MAC
tags, signatures and the golden execution fingerprints cannot move.
"""

import hashlib
import struct

import pytest
from hypothesis import given, strategies as st

from repro.aom.messages import (
    AomPacket,
    AuthVariant,
    Confirm,
    OrderingCertificate,
    auth_input,
    header_digest,
)
from repro.crypto.digests import fields_digest
from repro.protocols.hotstuff.messages import Phase, QuorumCert, qc_body
from repro.protocols.messages import ClientReply, ClientRequest, batch_digest
from repro.protocols.minbft.replica import commit_ui_body
from repro.protocols.minbft.usig import _ui_body
from repro.protocols.neobft.messages import (
    EpochStart,
    GapCommit,
    GapDecision,
    GapDrop,
    GapFind,
    GapPrepare,
    LogEntrySummary,
    SyncMessage,
    ViewChange,
    ViewId,
    ViewStart,
)
from repro.protocols.pbft.messages import (
    Checkpoint,
    Commit,
    PbftNewView,
    PbftViewChange,
    PrePrepare,
    Prepare,
    PreparedProof,
)
from repro.protocols.zyzzyva.messages import ClientCommit, LocalCommit, OrderReq
from repro.switchfab.fpga import ChainedToken


def digest_concat(*parts: bytes) -> bytes:
    """Reference: digest of the length-prefixed concatenation."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(4, "big"))
        hasher.update(part)
    return hasher.digest()


def digest_int(value: int) -> bytes:
    """Reference: fixed-width big-endian signed int encoding."""
    return value.to_bytes(8, "big", signed=True)


def ref_view(view: ViewId) -> bytes:
    return digest_int(view.epoch) + digest_int(view.leader_num)


def ref_header_digest(group_id, epoch, sequence, digest, prev):
    return digest_concat(
        digest_int(group_id), digest_int(epoch), digest_int(sequence), digest, prev
    )


def ref_auth_input(digest, sequence, epoch):
    return digest + digest_int(sequence) + digest_int(epoch)


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
BLOB = st.binary(max_size=64)


def _request(i, b):
    return ClientRequest(i[0], i[1], b[0])


def _view(i, offset=0):
    return ViewId(i[offset], i[offset + 1])


def _summaries(many):
    return tuple(LogEntrySummary(0, False, 0, d) for d in many)


# name -> (new bytes, reference bytes), from ints ``i``, blobs ``b`` and a
# variable-length digest list ``many``.
CASES = {
    "ClientRequest.canonical": lambda i, b, many: (
        _request(i, b).canonical(),
        digest_concat(b"request", digest_int(i[0]), digest_int(i[1]), b[0]),
    ),
    "batch_digest": lambda i, b, many: (
        batch_digest(tuple(ClientRequest(i[0], i[1], d) for d in many)),
        digest_concat(
            b"batch",
            *[
                digest_concat(b"request", digest_int(i[0]), digest_int(i[1]), d)
                for d in many
            ],
        ),
    ),
    "ClientReply.signed_body": lambda i, b, many: (
        ClientReply(i[0], i[1], i[2], b[0], i[3], b[1]).signed_body(),
        digest_concat(
            b"reply",
            digest_int(i[0]),
            digest_int(i[1]),
            digest_int(i[2]),
            b[0],
            digest_int(i[3]),
            b[1],
        ),
    ),
    "Confirm.signed_body": lambda i, b, many: (
        Confirm(i[0], i[1], i[2], b[0], i[3], None).signed_body(),
        digest_concat(
            b"confirm",
            digest_int(i[0]),
            digest_int(i[1]),
            digest_int(i[2]),
            b[0],
            digest_int(i[3]),
        ),
    ),
    "header_digest": lambda i, b, many: (
        header_digest(i[0], i[1], i[2], b[0], b[1]),
        ref_header_digest(i[0], i[1], i[2], b[0], b[1]),
    ),
    "auth_input": lambda i, b, many: (
        auth_input(b[0], i[0], i[1]),
        ref_auth_input(b[0], i[0], i[1]),
    ),
    "AomPacket.header_digest (pk)": lambda i, b, many: (
        AomPacket(i[0], i[1], i[2], b[0], None, 0, ChainedToken(b[1], None)).header_digest(),
        ref_header_digest(i[0], i[1], i[2], b[0], b[1]),
    ),
    "AomPacket.header_digest (hm)": lambda i, b, many: (
        AomPacket(i[0], i[1], i[2], b[0], None, 0, None).header_digest(),
        ref_header_digest(i[0], i[1], i[2], b[0], b""),
    ),
    "AomPacket.auth_input": lambda i, b, many: (
        AomPacket(i[0], i[1], i[2], b[0], None, 0, None).auth_input(),
        ref_auth_input(b[0], i[2], i[1]),
    ),
    "OrderingCertificate.header_digest (pk)": lambda i, b, many: (
        OrderingCertificate(
            i[0], i[1], i[2], b[0], None, 0, AuthVariant.PUBKEY, pk_prev_digest=b[1]
        ).header_digest(),
        ref_header_digest(i[0], i[1], i[2], b[0], b[1]),
    ),
    "OrderingCertificate.header_digest (hm)": lambda i, b, many: (
        OrderingCertificate(
            i[0], i[1], i[2], b[0], None, 0, AuthVariant.HMAC, pk_prev_digest=b[1]
        ).header_digest(),
        ref_header_digest(i[0], i[1], i[2], b[0], b""),
    ),
    "OrderingCertificate.auth_input": lambda i, b, many: (
        OrderingCertificate(i[0], i[1], i[2], b[0], None, 0, AuthVariant.HMAC).auth_input(),
        ref_auth_input(b[0], i[2], i[1]),
    ),
    "ViewId.encode": lambda i, b, many: (_view(i).encode(), ref_view(_view(i))),
    "GapFind.signed_body": lambda i, b, many: (
        GapFind(_view(i), i[2]).signed_body(),
        digest_concat(b"gap-find", ref_view(_view(i)), digest_int(i[2])),
    ),
    "GapDrop.signed_body": lambda i, b, many: (
        GapDrop(_view(i), i[2], i[3]).signed_body(),
        digest_concat(b"gap-drop", ref_view(_view(i)), digest_int(i[2]), digest_int(i[3])),
    ),
    "GapDecision.signed_body (drop)": lambda i, b, many: (
        GapDecision(_view(i), i[2]).signed_body(),
        digest_concat(b"gap-decision", ref_view(_view(i)), digest_int(i[2]), b"drop"),
    ),
    "GapDecision.signed_body (recv)": lambda i, b, many: (
        GapDecision(_view(i), i[2], recv_oc=object()).signed_body(),
        digest_concat(b"gap-decision", ref_view(_view(i)), digest_int(i[2]), b"recv"),
    ),
    "GapPrepare.signed_body": lambda i, b, many: (
        GapPrepare(_view(i), i[2], i[3], i[4] % 2 == 0).signed_body(),
        digest_concat(
            b"gap-prepare",
            ref_view(_view(i)),
            digest_int(i[2]),
            digest_int(i[3]),
            b"drop" if i[4] % 2 == 0 else b"recv",
        ),
    ),
    "GapCommit.signed_body": lambda i, b, many: (
        GapCommit(_view(i), i[2], i[3], i[4] % 2 == 0).signed_body(),
        digest_concat(
            b"gap-commit",
            ref_view(_view(i)),
            digest_int(i[2]),
            digest_int(i[3]),
            b"drop" if i[4] % 2 == 0 else b"recv",
        ),
    ),
    "EpochStart.signed_body": lambda i, b, many: (
        EpochStart(i[0], i[1], i[2]).signed_body(),
        digest_concat(b"epoch-start", digest_int(i[0]), digest_int(i[1]), digest_int(i[2])),
    ),
    "ViewChange.signed_body": lambda i, b, many: (
        ViewChange(_view(i), _view(i, 2), i[4], (), _summaries(many)).signed_body(),
        digest_concat(
            b"view-change",
            ref_view(_view(i)),
            ref_view(_view(i, 2)),
            digest_int(i[4]),
            digest_int(len(many)),
            *many,
        ),
    ),
    "ViewStart.signed_body": lambda i, b, many: (
        ViewStart(_view(i), tuple(many)).signed_body(),
        digest_concat(b"view-start", ref_view(_view(i)), digest_int(len(many))),
    ),
    "SyncMessage.signed_body": lambda i, b, many: (
        SyncMessage(_view(i), i[2], i[3], tuple((0, ()) for _ in many)).signed_body(),
        digest_concat(
            b"sync",
            ref_view(_view(i)),
            digest_int(i[2]),
            digest_int(i[3]),
            digest_int(len(many)),
        ),
    ),
    "PrePrepare.signed_body": lambda i, b, many: (
        PrePrepare(i[0], i[1], b[0], ()).signed_body(),
        digest_concat(b"pre-prepare", digest_int(i[0]), digest_int(i[1]), b[0]),
    ),
    "Prepare.signed_body": lambda i, b, many: (
        Prepare(i[0], i[1], b[0], i[2]).signed_body(),
        digest_concat(b"prepare", digest_int(i[0]), digest_int(i[1]), b[0], digest_int(i[2])),
    ),
    "Commit.signed_body": lambda i, b, many: (
        Commit(i[0], i[1], b[0], i[2]).signed_body(),
        digest_concat(b"commit", digest_int(i[0]), digest_int(i[1]), b[0], digest_int(i[2])),
    ),
    "Checkpoint.signed_body": lambda i, b, many: (
        Checkpoint(i[0], b[0], i[1]).signed_body(),
        digest_concat(b"checkpoint", digest_int(i[0]), b[0], digest_int(i[1])),
    ),
    "PbftViewChange.signed_body": lambda i, b, many: (
        PbftViewChange(
            i[0], i[1], tuple(PreparedProof(0, 0, d, ()) for d in many), i[2]
        ).signed_body(),
        digest_concat(
            b"pbft-view-change",
            digest_int(i[0]),
            digest_int(i[1]),
            digest_int(i[2]),
            *many,
        ),
    ),
    "PbftNewView.signed_body": lambda i, b, many: (
        PbftNewView(
            i[0], tuple(b[:2]), tuple(PrePrepare(0, 0, d, ()) for d in many)
        ).signed_body(),
        digest_concat(b"pbft-new-view", digest_int(i[0]), digest_int(2), *many),
    ),
    "OrderReq.signed_body": lambda i, b, many: (
        OrderReq(i[0], i[1], b[0], b[1], ()).signed_body(),
        digest_concat(b"order-req", digest_int(i[0]), digest_int(i[1]), b[0], b[1]),
    ),
    "ClientCommit.signed_body": lambda i, b, many: (
        ClientCommit(i[0], i[1], i[2], b[0], ()).signed_body(),
        digest_concat(
            b"client-commit", digest_int(i[0]), digest_int(i[1]), digest_int(i[2]), b[0]
        ),
    ),
    "LocalCommit.signed_body": lambda i, b, many: (
        LocalCommit(i[0], i[1], i[2], i[3], i[4]).signed_body(),
        digest_concat(b"local-commit", *[digest_int(v) for v in i[:5]]),
    ),
    "qc_body": lambda i, b, many: (
        qc_body(i[0], i[1], i[2], b[0]),
        digest_concat(b"hotstuff-qc", digest_int(i[0]), digest_int(i[1]), digest_int(i[2]), b[0]),
    ),
    "QuorumCert.body": lambda i, b, many: (
        QuorumCert(i[0], i[1], Phase(i[2] % 3 + 1), b[0], None).body(),
        digest_concat(
            b"hotstuff-qc", digest_int(i[0]), digest_int(i[1]), digest_int(i[2] % 3 + 1), b[0]
        ),
    ),
    "minbft _ui_body": lambda i, b, many: (
        _ui_body(i[0], i[1], b[0]),
        digest_concat(b"usig", digest_int(i[0]), digest_int(i[1]), b[0]),
    ),
    "minbft commit_ui_body": lambda i, b, many: (
        commit_ui_body(b[0], i[0]),
        digest_concat(b"commit", b[0], digest_int(i[0])),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@given(
    ints=st.lists(INT64, min_size=5, max_size=5),
    blobs=st.lists(BLOB, min_size=2, max_size=2),
    many=st.lists(BLOB, max_size=5),
)
def test_bytes_equal_reference(name, ints, blobs, many):
    new, reference = CASES[name](ints, blobs, many)
    assert new == reference


@given(fields=st.lists(st.one_of(INT64, BLOB), max_size=8))
def test_fields_digest_equals_reference(fields):
    parts = [digest_int(f) if isinstance(f, int) else f for f in fields]
    assert fields_digest(*fields) == digest_concat(*parts)


class TestFieldsDigestRejects:
    def test_int_beyond_signed_64_bits(self):
        with pytest.raises(struct.error):
            fields_digest(2**63)
        with pytest.raises(struct.error):
            fields_digest(-(2**63) - 1)

    def test_str_field(self):
        with pytest.raises(TypeError):
            fields_digest(b"tag", "text")
