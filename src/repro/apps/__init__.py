"""Replicated applications.

State machines the protocols replicate, all supporting *speculative*
execution with rollback (NeoBFT and Zyzzyva execute before commitment and
may need to undo):

- :class:`~repro.apps.statemachine.EchoApp` — the echo-RPC service used by
  the latency/throughput experiments (§6.2);
- :class:`~repro.apps.kvstore.store.KeyValueApp` — the in-memory
  B-tree-backed key-value store used by the YCSB evaluation (§6.5);
- :mod:`repro.apps.ycsb` — the YCSB workload generator (zipfian key
  choice, workload A/B/C mixes, 100K x 128 B records for the paper's
  configuration).

The key-value store and YCSB names load on first use, so a cluster that
replicates the echo or counter service does not import them.
"""

import importlib

from repro.apps.statemachine import EchoApp, StateMachine

#: Exported names whose module loads on first access.
_LAZY = {
    "KeyValueApp": "repro.apps.kvstore.store",
    "YcsbWorkload": "repro.apps.ycsb",
    "zipfian_sampler": "repro.apps.ycsb",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "EchoApp",
    "KeyValueApp",
    "StateMachine",
    "YcsbWorkload",
    "zipfian_sampler",
]
