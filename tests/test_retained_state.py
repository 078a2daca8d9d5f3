"""Retained authenticator and undo state: MAC vectors share their
replica's (or aom receiver's) peer tuple, and every executed slot keeps one flat undo record
that restores exactly what the execution replaced."""

from repro.aom.messages import ConfirmBatch
from repro.apps.statemachine import EchoApp
from repro.crypto.hmacvec import HmacVector
from repro.protocols.log import EntryKind, LogEntry
from repro.protocols.messages import ClientRequest, request_body
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

from tests.aom_harness import AomRig


def test_every_vector_a_pbft_replica_sends_shares_its_peer_tuple():
    cluster = build_cluster(ClusterOptions(protocol="pbft", num_clients=4, seed=3))
    sent = {replica.address: [] for replica in cluster.replicas}
    for replica in cluster.replicas:
        def note(dst, message, _sent=sent[replica.address]):
            auth = getattr(message, "auth", None)
            if isinstance(auth, HmacVector):
                _sent.append(auth)
            return message

        replica.add_send_interposer(note)
    run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(2)).run()
    assert run.completions > 0
    for replica in cluster.replicas:
        vectors = sent[replica.address]
        assert vectors
        assert all(vector.ids is replica.peers() for vector in vectors)
    assert cluster.replicas[0].peers() is cluster.replicas[0].peers()


def test_every_confirm_an_aom_bn_receiver_makes_shares_one_peer_tuple():
    cluster = build_cluster(ClusterOptions(protocol="neobft-bn", num_clients=4, seed=3))
    sent = {replica.address: [] for replica in cluster.replicas}
    for replica in cluster.replicas:
        def note(dst, message, _sent=sent[replica.address]):
            if isinstance(message, ConfirmBatch):
                _sent.extend(confirm.auth for confirm in message.confirms)
            return message

        replica.add_send_interposer(note)
    run = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(2)).run()
    assert run.completions > 0
    for replica in cluster.replicas:
        vectors = sent[replica.address]
        assert vectors
        peers = vectors[0].ids
        assert peers == tuple(a for a in replica.group.replica_addrs if a != replica.address)
        assert all(vector.ids is peers for vector in vectors)


def test_reassembled_aom_hm_vectors_share_the_epochs_receiver_ids():
    rig = AomRig(receivers=8)  # 2 subgroups of 4
    rig.multicast("wide")
    rig.sim.run()
    first, second = (host.certs[0].hm_vector for host in rig.receivers[:2])
    assert first.ids == tuple(host.address for host in rig.receivers)
    assert first.ids is second.ids
    assert first.packed == second.packed


def test_echo_app_returns_one_shared_inverse():
    app = EchoApp()
    _, first = app.execute_with_undo(b"a")
    _, second = app.execute_with_undo(b"b")
    assert first is second
    assert app.executed == 2
    first()
    assert app.executed == 1


def test_neobft_rollback_restores_the_objects_each_execution_replaced():
    cluster = build_cluster(ClusterOptions(protocol="neobft-hm", num_clients=2, seed=5))
    replica = cluster.replicas[0]
    replica_addrs = replica.group.replica_addrs
    first_client, second_client = (client.address for client in cluster.clients)
    before = {first_client: (0, None), second_client: (4, None)}
    replica.client_table.update(before)
    echo_count = replica.app.executed

    def request(client, request_id):
        sender = next(c for c in cluster.clients if c.address == client)
        body = request_body(client, request_id, b"op")
        return ClientRequest(
            client, request_id, b"op", sender.crypto.mac_vector(replica_addrs, body)
        )

    # The first client executes twice, so only a rollback that undoes the
    # later slot first gives back its original entry.
    start = replica.log.next_slot
    for client, request_id in ((first_client, 1), (second_client, 5), (first_client, 2)):
        replica.log.append(
            LogEntry(kind=EntryKind.REQUEST, digest=b"d" * 32,
                     request=request(client, request_id))
        )
    replica.execute_now(replica._execute_ready)
    cluster.sim.run_for(ms(1))
    assert replica.log.exec_cursor == start + 3
    assert replica.app.executed == echo_count + 3
    assert replica.client_table[first_client][0] == 2
    assert replica.client_table[second_client][0] == 5

    replica.log.rollback_to(start)
    assert replica.app.executed == echo_count
    for client, entry in before.items():
        assert replica.client_table[client] is entry
