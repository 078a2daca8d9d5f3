#!/usr/bin/env python3
"""The dual fault model in action: an equivocating sequencer switch.

The paper's hybrid fault model (§3.1) trusts the network to fail only by
crashing; the Byzantine-network mode pays extra confirm messages to
tolerate a switch that lies. This demo shows both sides:

- under the hybrid model (``neobft-hm``), a Byzantine switch that forges
  valid HMAC tags can split correct replicas' logs — exactly the attack
  the model excludes by assumption;
- under the Byzantine-network mode (``neobft-bn``), the same attack is
  neutralized: no equivocated message ever gathers 2f+1 matching
  confirms, replicas detect the stall and fail over to a new sequencer.

Run:  python examples/byzantine_network_demo.py
"""

from repro.faults.sequencer import equivocate_sequencer
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms


def run(protocol: str):
    options = ClusterOptions(protocol=protocol, num_clients=4, seed=17)
    cluster = build_cluster(options)
    victim = cluster.replicas[0]

    def attack():
        sequencer = cluster.config_service.sequencer_for(options.group_id)
        equivocate_sequencer(sequencer, {victim.address: b"\x66" * 32})

    cluster.sim.schedule(ms(5), attack)
    measurement = Measurement(cluster, warmup_ns=ms(1), duration_ns=ms(120))
    result = measurement.run()
    return cluster, result


def main() -> None:
    print("hybrid fault model (neobft-hm): the switch is TRUSTED not to lie")
    cluster, result = run("neobft-hm")
    shortest = min(len(r.log) for r in cluster.replicas)
    heads = {r.log.hash_up_to(shortest - 1).hex()[:12] for r in cluster.replicas}
    print(f"  throughput {result.throughput_ops / 1e3:.1f} K ops/s")
    print(f"  replica log prefixes agree: {len(heads) == 1} ({heads})")
    print("  -> under equivocation the hybrid model's guarantee is void;")
    print("     replica 0 accepted forged orderings the others never saw\n")

    print("Byzantine network mode (neobft-bn): 2f+1 confirms gate delivery")
    cluster, result = run("neobft-bn")
    shortest = min(len(r.log) for r in cluster.replicas)
    heads = {r.log.hash_up_to(shortest - 1).hex()[:12] for r in cluster.replicas} if shortest else set()
    suspicions = sum(r.metrics.get("sequencer_suspicions") for r in cluster.replicas)
    epoch = cluster.config_service.current_epoch(1)
    print(f"  throughput {result.throughput_ops / 1e3:.1f} K ops/s")
    print(f"  replica log prefixes agree: {len(heads) <= 1} ({heads or '{empty}'})")
    print(f"  sequencer suspicions raised: {suspicions}; epoch now {epoch}")
    print("  -> forged messages never gathered a 2f+1 confirm quorum: the")
    print("     targeted replica stalls (and votes to replace the switch)")
    print("     while the honest majority keeps one consistent log. With")
    print("     f+1 replicas targeted, failover would replace the switch.")


if __name__ == "__main__":
    main()
