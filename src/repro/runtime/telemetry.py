"""Runtime telemetry: latency histograms and stats snapshots.

A kernel dispatch plane is only operable if it can answer "which
extension is slow / faulting / quarantined" without perturbing the hot
path.  Counters here are therefore *per shard per extension* — each
worker bumps plain integers it exclusively owns — and aggregation
happens only when a snapshot is taken.

Latency percentiles come from **exact per-cycle histograms**: an Alpha
filter has only a handful of distinct root-to-leaf path costs, so a
``{cycles: count}`` dict records the full latency distribution in a few
entries, merges across shards (and across worker *processes*) by plain
addition — associative, order-independent, deterministic — and costs the
hot path one dict bump instead of a sampler's per-packet RNG draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def hist_percentile(hist: dict[int, int], fraction: float) -> float:
    """Linear-interpolation percentile of the multiset a ``{value:
    count}`` histogram denotes, computed from cumulative counts without
    expanding it.

    ``fraction`` 0.0 is the minimum and 1.0 the maximum; a rank between
    two sorted positions interpolates linearly between their values.  A
    single-element multiset yields its value, an empty one 0.0.
    """
    total = sum(hist.values())
    if total == 0:
        return 0.0
    ordered = sorted(hist.items())
    if total == 1:
        return float(ordered[0][0])
    rank = fraction * (total - 1)
    low = int(rank)
    weight = rank - low
    # The values at positions ``low`` and ``low + 1`` of the sorted
    # expansion (clamped to the last element).
    low_value = high_value = None
    seen = 0
    for value, count in ordered:
        if low_value is None and seen + count > low:
            low_value = value
        if seen + count > min(low + 1, total - 1):
            high_value = value
            break
        seen += count
    return low_value * (1.0 - weight) + high_value * weight


@dataclass(frozen=True)
class ExtensionSnapshot:
    """Point-in-time counters for one attached extension."""

    name: str
    state: str
    checked: bool
    packets_in: int
    accepted: int
    rejected: int
    faults: int
    consecutive_faults: int
    quarantines: int
    cycles: int
    p50_cycles: float
    p99_cycles: float
    last_fault: str | None
    #: The resolved per-invocation budget (None = unbudgeted) and the
    #: static WCET bound it came from when ``cycle_budget="auto"``.
    cycle_budget: int | None = None
    wcet_cycles: int | None = None
    #: Hot-swap state: the serving version number and, while an upgrade
    #: is in flight, the shadow canary's ledger (None otherwise).
    version: int = 1
    canary: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "checked": self.checked,
            "packets_in": self.packets_in,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "faults": self.faults,
            "consecutive_faults": self.consecutive_faults,
            "quarantines": self.quarantines,
            "cycles": self.cycles,
            "p50_cycles": self.p50_cycles,
            "p99_cycles": self.p99_cycles,
            "last_fault": self.last_fault,
            "cycle_budget": self.cycle_budget,
            "wcet_cycles": self.wcet_cycles,
            "version": self.version,
            "canary": self.canary,
        }


@dataclass(frozen=True)
class RuntimeSnapshot:
    """Point-in-time view of the whole dispatch runtime.

    ``modeled_seconds`` is the simulated wall time: the busiest shard's
    cycle clock divided by the modeled core frequency.  Shards are
    modeled cores running in parallel, so runtime-wide throughput is
    ``packets_in / modeled_seconds`` — the metric the shard-scaling
    benchmark reports (Python wall time rides along as a sanity check,
    exactly as in :mod:`repro.perf`).
    """

    shards: int
    extensions: tuple[ExtensionSnapshot, ...]
    packets_in: int
    dispatches: int
    faults: int
    contract_drops: int
    shard_cycles: tuple[int, ...]
    clock_mhz: float
    extra: dict = field(default_factory=dict)
    #: Shadow-canary work, kept off the live shard clocks so modeled
    #: throughput and rollback verdict streams stay bit-identical to a
    #: canary-free run (shadow cycles are reported, never charged).
    canary_cycles: tuple[int, ...] = ()
    #: Decided upgrades, oldest first (UpgradeRecord.to_dict() payloads).
    upgrades: tuple = ()

    @property
    def modeled_seconds(self) -> float:
        if not self.shard_cycles:
            return 0.0
        return max(self.shard_cycles) / (self.clock_mhz * 1e6)

    @property
    def modeled_packets_per_second(self) -> float:
        seconds = self.modeled_seconds
        return self.packets_in / seconds if seconds else 0.0

    def extension(self, name: str) -> ExtensionSnapshot:
        for snapshot in self.extensions:
            if snapshot.name == name:
                return snapshot
        raise KeyError(f"no extension named {name!r}")

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "packets_in": self.packets_in,
            "dispatches": self.dispatches,
            "faults": self.faults,
            "contract_drops": self.contract_drops,
            "shard_cycles": list(self.shard_cycles),
            "clock_mhz": self.clock_mhz,
            "modeled_seconds": self.modeled_seconds,
            "modeled_packets_per_second": self.modeled_packets_per_second,
            "extensions": [ext.to_dict() for ext in self.extensions],
            "canary_cycles": list(self.canary_cycles),
            "upgrades": list(self.upgrades),
            **self.extra,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
