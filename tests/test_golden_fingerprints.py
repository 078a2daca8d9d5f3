"""Golden execution fingerprints: the behaviour contract for refactors.

Each run below is reduced to ``(events_processed, completions hash)``,
where the hash is a SHA-256 over every client completion
``(client, request_id, latency_ns)`` in the order they fired. MAC and
signature bytes stay out of the hash, so swapping how tags are computed
is fingerprint-neutral as long as every tag still verifies exactly when
it should.

A change that is meant to leave executions alone (a faster engine, a
different crypto implementation, a deleted cache) must leave every
value here unchanged. A change that alters behaviour on purpose must
re-record the values and say why.
"""

import hashlib

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultSpec, InvariantMonitor
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

#: One tiny closed-loop run per protocol family: 4 clients, seed 7,
#: 1 ms warmup and a 5 ms window.
FAMILY_RUNS = {
    "neobft-hm": (28_684, "b0789576a0d7aa7da9b7613eea0bae0ca58319d9f6212b5c8bcf0233bbb27e0f"),
    "neobft-pk": (7_060, "8a18fccac79591fec646c7b19fa12f73d108a829ef3316cf5a2a9fe6d07800d2"),
    "neobft-bn": (19_720, "d93ab7c95696733549984a0ea9b762ef0b61cf1b6f8c4c014e73e66638b3b045"),
    "pbft": (35_912, "b04a7839420797936cbe6684bc7c0bb3d329807a4628ab2b555169bcd1d4beb3"),
    "zyzzyva": (7_844, "8e7cb7ad218eaaa10e34de034e41eb8c5e2e7e2cce71c7c35a1d96ece4d89811"),
    "hotstuff": (843, "3d77d28e0f445025b01d032481f71116b7c2219c7db078917ae9d661f4d346ac"),
    "minbft": (2_273, "9a30ab9de08a972d2e026a1da7d3ce3f9d6877a81df6f745bcc27c9da2bce95d"),
    "unreplicated": (19_065, "fc8650475c0e62f89b9011ff8ea1b112feca6477899d915f7b95fc2968325f7a"),
}

#: A replica crash, recovered through state transfer, on neobft-hm
#: (1 ms warmup and a 6 ms window; the replica is down from 1 to 3 ms).
CAMPAIGN_RUN = (31_179, "37e2f2796c1540fd1bd88b976d14cd27e0893ed0afe9908cbcfb529b31ee6c1e")


def fingerprint(options, warmup_ns=ms(1), duration_ns=ms(5), campaign=None):
    """Run ``options`` and return ``(events_processed, completions hash)``."""
    cluster = build_cluster(options)
    monitor = None
    if campaign is not None:
        monitor = InvariantMonitor(context=campaign.describe).attach(cluster)
    measurement = Measurement(cluster, warmup_ns=warmup_ns, duration_ns=duration_ns)
    digest = hashlib.sha256()
    for client in cluster.clients:
        _record_completions(client, digest)
    if campaign is not None:
        campaign.arm(cluster)
    result = measurement.run()
    if campaign is not None:
        campaign.heal_all()
        assert monitor.violations == []
        assert monitor.checks > 0
        assert result.replica_metrics.get("state_transfers", 0) >= 1
    assert result.completions > 0
    return cluster.sim.events_processed, digest.hexdigest()


def _record_completions(client, digest) -> None:
    on_complete = client.on_complete

    def complete(request_id, latency_ns, result):
        digest.update(b"%d,%d,%d\n" % (client.address, request_id, latency_ns))
        on_complete(request_id, latency_ns, result)

    client.on_complete = complete


def crash_recover_campaign() -> FaultCampaign:
    return FaultCampaign(
        [
            FaultEvent(
                ms(1),
                FaultSpec("crash_replica", target=2),
                until_ns=ms(3),
                label="crash-r2",
            )
        ]
    )


@pytest.mark.parametrize("protocol", sorted(FAMILY_RUNS))
def test_family_fingerprint(protocol):
    options = ClusterOptions(protocol=protocol, num_clients=4, seed=7)
    assert fingerprint(options) == FAMILY_RUNS[protocol]


def test_crash_recover_campaign_fingerprint():
    options = ClusterOptions(protocol="neobft-hm", num_clients=4, seed=7)
    got = fingerprint(
        options, duration_ns=ms(6), campaign=crash_recover_campaign()
    )
    assert got == CAMPAIGN_RUN
