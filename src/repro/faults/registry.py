"""First-class fault-kind registry shared by campaigns and the fuzzer.

Every fault kind a :class:`~repro.faults.campaign.FaultSpec` can name is
registered here as a :class:`FaultKind`: the injector the campaign engine
calls, the budget *category* the fuzzer's constraint language reasons
about, the family-row capabilities the kind *requires*, and — when the
kind is fuzzable — a ``generate`` function that draws deterministic
parameters from a seeded stream.

Categories drive the fuzzer's budget constraints:

- ``replica`` — the kind makes one replica faulty (crash, Byzantine
  behaviour, isolation). The fuzzer keeps the number of *concurrently*
  faulty replicas within the protocol's fault bound ``f``; schedules that
  exceed it are outside the fault model and prove nothing.
- ``network`` — message-level mischief (loss, duplication, reordering)
  every protocol must absorb at any intensity.
- ``sequencer`` — aom-layer faults.

Applicability comes from the builder's family table
(:data:`repro.runtime.cluster.FAMILIES`): ``requires`` names the
:class:`~repro.runtime.cluster.Family` fields (``sequencer``,
``byzantine_sequencer``, ``stable_leader``, ...) that a protocol's row
must all set. An empty tuple applies to every protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.records import record

#: Budget categories understood by the fuzzer.
CATEGORIES = ("replica", "network", "sequencer", "custom")


@record(frozen=True)
class GenContext:
    """What a fault-kind generator may condition its draws on."""

    protocol: str
    n: int  # replica count
    f: int  # fault bound
    horizon_ns: int  # schedule horizon (injections land inside it)

    @property
    def replica_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.n))


@record(frozen=True)
class FaultKind:
    """One registered fault kind."""

    name: str
    injector: Callable  # (cluster, spec, rng) -> heal
    category: str = "custom"
    requires: Tuple[str, ...] = ()  # Family fields the protocol's row must set
    # Optional fuzz hook: (rng, ctx) -> (target, params). Kinds without
    # one are campaign-only (never drawn by the fuzzer).
    generate: Optional[Callable] = None

    def applies_to(self, protocol: str) -> bool:
        # Imported here so the faults layer loads without the runtime.
        from repro.runtime.cluster import family_of

        family = family_of(protocol)
        return all(getattr(family, field) for field in self.requires)


FAULT_REGISTRY: Dict[str, FaultKind] = {}


def register_fault_kind(
    name: str,
    injector: Callable,
    category: str = "custom",
    requires: Iterable[str] = (),
    generate: Optional[Callable] = None,
    replace: bool = False,
) -> FaultKind:
    """Register a fault kind; returns the registry entry.

    Registration is idempotent only with ``replace=True`` — accidental
    double registration of a fresh kind is a bug worth failing on.
    """
    if category not in CATEGORIES:
        raise ValueError(
            f"unknown category {category!r} (known: {', '.join(CATEGORIES)})"
        )
    if name in FAULT_REGISTRY and not replace:
        raise ValueError(f"fault kind {name!r} is already registered")
    kind = FaultKind(
        name=name,
        injector=injector,
        category=category,
        requires=tuple(requires),
        generate=generate,
    )
    FAULT_REGISTRY[name] = kind
    return kind


def unregister_fault_kind(name: str) -> None:
    """Remove a kind (test helper for custom registrations)."""
    FAULT_REGISTRY.pop(name, None)


def kind_for(name: str) -> FaultKind:
    """Look up a kind; raises ValueError naming the known kinds."""
    kind = FAULT_REGISTRY.get(name)
    if kind is None:
        raise ValueError(
            f"unknown fault kind {name!r} "
            f"(known: {', '.join(sorted(FAULT_REGISTRY))})"
        )
    return kind


def fuzzable_kinds(protocol: str, allowed: Optional[Iterable[str]] = None):
    """The kinds the fuzzer may draw for ``protocol``, name-sorted.

    Name-sorting (not registration order) keeps generated schedules
    stable even if import order ever changes.
    """
    names = set(allowed) if allowed is not None else None
    return [
        kind
        for name, kind in sorted(FAULT_REGISTRY.items())
        if kind.generate is not None
        and kind.applies_to(protocol)
        and (names is None or name in names)
    ]
