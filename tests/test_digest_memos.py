"""Digest memos on frozen messages and prepared MAC states.

A message that memoizes its ``canonical``/``signed_body`` computes it once
per instance; senders hand the body they MAC'd to the copy they send. These
tests pin that the memo always equals a fresh computation, that a modified
copy never inherits one, and that prepared MAC states give the same tags
as keying BLAKE2s per call.
"""

import hashlib
import pickle
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, strategies as st

from repro.aom import messages as aom_messages
from repro.crypto.backend import CryptoContext, KeyAuthority
from repro.crypto.costmodel import CostModel
from repro.crypto.digests import remember
from repro.crypto.hmacvec import HMAC_TAG_SIZE, mac_state, mac_with, sim_mac
from repro.faults.behaviors import corrupt_replies
from repro.protocols import messages as client_messages
from repro.protocols.hotstuff import messages as hotstuff_messages
from repro.protocols.minbft import replica as minbft_replica
from repro.protocols.neobft import messages as neobft_messages
from repro.protocols.pbft import messages as pbft_messages
from repro.protocols.zyzzyva import messages as zyzzyva_messages
from repro.runtime import ClusterOptions, build_cluster
from repro.sim.clock import ms
from repro.switchfab.hmac_pipeline import FoldedHmacPipeline

MESSAGE_MODULES = (
    client_messages, pbft_messages, neobft_messages, zyzzyva_messages,
    minbft_replica, hotstuff_messages, aom_messages,
)

REQUEST = client_messages.ClientRequest(9, 4, b"op")

#: One instance of every memoizing message class.
MEMOIZED = {
    client_messages.ClientRequest: lambda: client_messages.ClientRequest(9, 4, b"op"),
    client_messages.ClientReply: lambda: client_messages.ClientReply(
        1, 2, 4, b"result", 7, b"h" * 32, b"tag", None
    ),
    pbft_messages.PrePrepare: lambda: pbft_messages.PrePrepare(
        1, 3, b"d" * 32, (REQUEST,)
    ),
    pbft_messages.Prepare: lambda: pbft_messages.Prepare(1, 3, b"d" * 32, 2),
    pbft_messages.Commit: lambda: pbft_messages.Commit(1, 3, b"d" * 32, 2),
    pbft_messages.Checkpoint: lambda: pbft_messages.Checkpoint(127, b"s" * 32, 2),
    zyzzyva_messages.OrderReq: lambda: zyzzyva_messages.OrderReq(
        1, 3, b"h" * 32, b"d" * 32, (REQUEST,)
    ),
}

#: The memo attribute of each digest method.
MEMO_OF = {"canonical": "_canonical", "signed_body": "_signed_body"}


def memoizing_classes():
    """Every message dataclass whose class declares a digest memo."""
    found = set()
    for module in MESSAGE_MODULES:
        for value in vars(module).values():
            if isinstance(value, type) and is_dataclass(value):
                if any(memo in vars(value) for memo in MEMO_OF.values()):
                    found.add(value)
    return found


def digest_methods(cls):
    return [name for name in MEMO_OF if name in vars(cls)]


def test_every_memoizing_class_is_covered():
    assert memoizing_classes() == set(MEMOIZED)


@pytest.mark.parametrize("cls", sorted(MEMOIZED, key=lambda c: c.__name__))
class TestMemo:
    def test_memo_equals_fresh_computation_on_equal_instance(self, cls):
        message = MEMOIZED[cls]()
        for name in digest_methods(cls):
            first = getattr(message, name)()
            assert getattr(message, MEMO_OF[name]) == first
            assert getattr(message, name)() is first
            assert getattr(MEMOIZED[cls](), name)() == first

    def test_replace_copy_carries_no_memo(self, cls):
        message = MEMOIZED[cls]()
        for name in digest_methods(cls):
            getattr(message, name)()
            copy = replace(message)
            assert getattr(copy, MEMO_OF[name]) is None
            assert getattr(copy, name)() == getattr(message, name)()

    def test_changed_field_is_digested_afresh(self, cls):
        message = MEMOIZED[cls]()
        bodies = {name: getattr(message, name)() for name in digest_methods(cls)}
        first = fields(cls)[0]
        value = getattr(message, first.name)
        changed = replace(message, **{first.name: value + 1})
        for name, body in bodies.items():
            assert getattr(changed, name)() != body

    def test_memos_are_declared_slots(self, cls):
        # A memo is a slot the class declares; there is no instance dict
        # to hold any other name.
        memos = tuple(MEMO_OF[name] for name in digest_methods(cls))
        assert cls.__slots__ == tuple(f.name for f in fields(cls)) + memos
        message = MEMOIZED[cls]()
        with pytest.raises(AttributeError):
            remember(message, "_undeclared", b"x")
        for name in digest_methods(cls):
            getattr(message, name)()
            assert getattr(replace(message), MEMO_OF[name]) is None

    def test_pickled_copy_is_equal(self, cls):
        message = MEMOIZED[cls]()
        for name in digest_methods(cls):
            getattr(message, name)()
        restored = pickle.loads(pickle.dumps(message))
        assert type(restored) is cls and restored == message
        for name in digest_methods(cls):
            assert getattr(restored, name)() == getattr(message, name)()


def _pbft_cluster():
    return build_cluster(ClusterOptions(protocol="pbft", num_clients=1, seed=5))


def test_sent_copies_carry_the_body_their_macs_cover():
    cluster = _pbft_cluster()
    received = []

    def record(src, message):
        if type(message) in MEMOIZED:
            (name,) = digest_methods(type(message))
            received.append((message, getattr(message, MEMO_OF[name]), name))
        return message

    for node in cluster.replicas + cluster.clients:
        node.add_receive_interposer(record)
    ops = [b"a", b"b", b"c"]
    cluster.clients[0].next_op = lambda: ops.pop() if ops else None
    cluster.clients[0].start()
    cluster.sim.run(until=ms(2))
    assert cluster.clients[0].completions == 3
    carried = {type(message).__name__ for message, memo, _ in received if memo is not None}
    assert {"ClientRequest", "PrePrepare", "Prepare", "Commit", "ClientReply"} <= carried
    for message, memo, name in received:
        if memo is not None:
            assert memo == getattr(replace(message), name)()


def test_corrupted_reply_copy_fails_verification():
    cluster = _pbft_cluster()
    replica, client = cluster.replicas[0], cluster.clients[0]
    sent = []
    replica.add_send_interposer(lambda dst, message: sent.append(message) or message)
    corrupt_replies(replica)
    replica.add_send_interposer(lambda dst, message: sent.append(message) or message)
    replica.reply_to_client(client.address, 0, 1, b"ok")
    honest, corrupted = sent
    assert honest.signed_body() is honest._signed_body
    assert corrupted._signed_body is None
    assert client.verify_reply(replica.address, honest)
    assert not client.verify_reply(replica.address, corrupted)


AUTHORITY = KeyAuthority(b"memo")


@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.binary(max_size=256),
)
def test_prepared_mac_tags_match_keyed_blake2s(node, peer, data):
    context = CryptoContext(node, AUTHORITY, CostModel())
    key = AUTHORITY.session_key(node, peer)
    expected = hashlib.blake2s(data, key=key, digest_size=HMAC_TAG_SIZE).digest()
    assert context.mac_to(peer, data) == expected
    # A second tag from the same prepared state is unaffected by the first.
    assert context.mac_to(peer, data) == expected
    assert mac_with(mac_state(key), data) == sim_mac(key, data) == expected


@given(st.binary(max_size=64))
def test_switch_vectors_from_prepared_states_match_sim_mac(data):
    keys = [(rid, bytes([rid + 1]) * 8) for rid in range(6)]
    pipeline = FoldedHmacPipeline(keys)
    _, partials = pipeline.authenticate(0, data)
    tags = {
        rid: partial.vector.tag_for(rid) for partial in partials for rid in partial.vector.ids
    }
    assert tags == {rid: sim_mac(key, data) for rid, key in keys}
