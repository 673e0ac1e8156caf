"""Per-extension runtime state: counters, fault runs, quarantine.

An attached extension carries two kinds of state with very different
access patterns:

* **hot counters** (packets, verdicts, cycles, and an exact per-cycle
  latency histogram) are bumped on every dispatch.  They are sharded:
  each shard owns one :class:`ShardCounters` and touches nothing else,
  so the hot path takes no locks.  A snapshot merges the shards — and
  because histogram merge is plain addition, the merge is associative
  and deterministic regardless of whether the shards ran in the caller
  or in forked worker processes.
* **the state machine** (ACTIVE → QUARANTINED → REINSTATED) changes only
  at round boundaries and on operator action, so transitions sit behind
  a lock and the dispatch loop reads a single ``active`` boolean.

Consecutive-fault runs are per shard, like the shard's memory (per-CPU,
in kernel terms): each lives in that shard's :class:`ShardCounters`, a
success resets it, and the shard stops invoking the extension once its
own run reaches the threshold.  The runtime-wide decision — quarantine —
is taken at the next round boundary (see :mod:`repro.runtime.runtime`).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from repro.alpha.engine import ExecutionEngine
from repro.alpha.isa import Program
from repro.pcc.validate import ValidationReport
from repro.runtime.telemetry import ExtensionSnapshot, hist_percentile


class ExtensionState(enum.Enum):
    """The quarantine state machine.

    ACTIVE        serving packets (initial state after admission)
    QUARANTINED   isolated at the round boundary after some shard's run
                  of ``fault_threshold`` consecutive faults; skipped by
                  every shard until reinstated
    REINSTATED    serving again after revalidation — behaviourally
                  ACTIVE, kept distinct so telemetry shows the history
    """

    ACTIVE = "active"
    QUARANTINED = "quarantined"
    REINSTATED = "reinstated"


@dataclass
class ShardCounters:
    """One shard's private counters for one extension (no locking).

    ``cycle_hist`` maps an invocation's modeled cycle count to how many
    invocations cost exactly that — filters have a handful of distinct
    root-to-leaf path costs, so the dict stays tiny while recording the
    latency distribution *exactly* (reservoir sampling would add a
    per-packet RNG draw to the hot path and make merged percentiles
    depend on sampling order)."""

    packets_in: int = 0
    accepted: int = 0
    faults: int = 0
    cycles: int = 0
    cycle_hist: dict[int, int] = field(default_factory=dict)
    #: This shard's consecutive-fault run: a success resets it, and the
    #: shard stops invoking the extension once it reaches the threshold.
    fault_run: int = 0
    #: The latest fault of the shard's current round (reset when the
    #: shard starts a chunk); the round's boundary copies it into the
    #: extension's ``last_fault``.
    last_fault: str | None = None

    def stopped(self, threshold: int | None) -> bool:
        """Whether this shard no longer invokes the extension."""
        return threshold is not None and self.fault_run >= threshold


class RuntimeExtension:
    """A loaded extension as the dispatch runtime sees it.

    ``engine`` is the shared unchecked fast-path engine (PCC-proven code
    needs no checks, so one stateless engine serves every shard).
    ``checked`` extensions instead carry one engine *per shard* — the
    rd()/wr() hooks consult shard-local predicates — built by the
    runtime when it admits the extension on the checked tier.
    """

    def __init__(self, name: str, blob: bytes, digest: str,
                 program: Program, report: ValidationReport | None,
                 checked: bool, shards: int) -> None:
        self.name = name
        self.blob = blob
        self.digest = digest
        self.program = program
        self.report = report
        self.checked = checked
        self.engine: ExecutionEngine | None = None
        self.shard_engines: list[ExecutionEngine] | None = None
        #: The specialized whole-batch driver from
        #: :func:`repro.alpha.batch.compile_batch` — read-only filters
        #: and store-bearing, looping KV programs alike — or None when
        #: the program (no WCET bound, tree caps) or the runtime's
        #: invocation contract falls outside the fast path; dispatch
        #: then batches through the generic
        #: :meth:`ExecutionEngine.run_batch` instead.  One runner serves
        #: every shard: it works on the region buffers of the memory
        #: each call hands it.
        self.batch_runner = None
        # Per-extension invocation budget, resolved at admission: a
        # fixed config value, a WCET-derived bound (cycle_budget="auto"),
        # or None for unbudgeted dispatch.  ``wcet_bound`` records the
        # raw static bound when one was computed (telemetry).
        self.cycle_budget: int | None = None
        self.wcet_bound: int | None = None
        self.state = ExtensionState.ACTIVE
        self.active = True
        #: Monotone version counter; bumped only by canary promotion.
        self.version = 1
        #: The in-flight :class:`repro.runtime.versions.ShadowCanary`,
        #: or None.  Written only by the runtime's control plane (under
        #: its lock); the dispatch hot loop reads it once per invocation.
        self.canary = None
        self.quarantines = 0
        self.last_fault: str | None = None
        self._lock = threading.Lock()
        self.shard_counters = [ShardCounters() for _ in range(shards)]

    # -- fault ledger ----------------------------------------------------

    @property
    def consecutive_faults(self) -> int:
        """The longest per-shard fault run."""
        return max(counters.fault_run for counters in self.shard_counters)

    def quarantine(self) -> None:
        """The ACTIVE → QUARANTINED transition, taken at a round
        boundary once some shard's run reached the threshold."""
        with self._lock:
            self.state = ExtensionState.QUARANTINED
            self.active = False
            self.quarantines += 1

    def reinstate(self) -> None:
        with self._lock:
            self.state = ExtensionState.REINSTATED
            self.active = True
            self.last_fault = None
            self._reset_runs()

    def _reset_runs(self) -> None:
        for counters in self.shard_counters:
            counters.fault_run = 0

    # -- hot swap ---------------------------------------------------------

    def adopt(self, candidate: "RuntimeExtension") -> None:
        """Swap ``candidate``'s admitted identity into this live slot
        (canary promotion).

        Everything that defines *which* program serves — bytes, digest,
        program, engines, tier, budget — is republished atomically under
        the state lock.  Cumulative traffic counters are deliberately
        kept: telemetry tracks the extension *name* across versions.
        The dispatch loop reads ``engine``/``cycle_budget`` once per
        invocation, so a packet in flight finishes on whichever version
        it started with and the next invocation sees the new one.
        """
        with self._lock:
            self.blob = candidate.blob
            self.digest = candidate.digest
            self.program = candidate.program
            self.report = candidate.report
            self.checked = candidate.checked
            self.engine = candidate.engine
            self.shard_engines = candidate.shard_engines
            self.batch_runner = candidate.batch_runner
            self.cycle_budget = candidate.cycle_budget
            self.wcet_bound = candidate.wcet_bound
            self.version = candidate.version
            self.last_fault = None
            self._reset_runs()

    # -- aggregation -----------------------------------------------------

    def snapshot(self) -> ExtensionSnapshot:
        packets_in = accepted = faults = cycles = 0
        merged: dict[int, int] = {}
        for counters in self.shard_counters:
            packets_in += counters.packets_in
            accepted += counters.accepted
            faults += counters.faults
            cycles += counters.cycles
            for value, count in counters.cycle_hist.items():
                merged[value] = merged.get(value, 0) + count
        return ExtensionSnapshot(
            name=self.name,
            state=self.state.value,
            checked=self.checked,
            packets_in=packets_in,
            accepted=accepted,
            rejected=packets_in - accepted - faults,
            faults=faults,
            consecutive_faults=self.consecutive_faults,
            quarantines=self.quarantines,
            cycles=cycles,
            p50_cycles=hist_percentile(merged, 0.50),
            p99_cycles=hist_percentile(merged, 0.99),
            last_fault=self.last_fault,
            cycle_budget=self.cycle_budget,
            wcet_cycles=self.wcet_bound,
            version=self.version,
            canary=(self.canary.snapshot()
                    if self.canary is not None else None),
        )
