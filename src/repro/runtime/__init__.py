"""The kernel packet-dispatch runtime (the layer above admission).

The paper's bargain is one-time validation, then native speed forever —
but "forever" happens inside a kernel that is serving traffic from many
extensions at once, replacing them under load, and surviving its own
machinery failing.  This package is that kernel's dispatch plane and
its supervised control plane:

* :mod:`repro.runtime.runtime` — :class:`PacketRuntime`: admission only
  through the PR 2 extension loader (proven code runs unchecked;
  unproven code is rejected or, opt-in, downgraded to the checked
  Figure 3 tier), sharded dispatch, quarantine, reinstatement, and the
  versioned hot-swap entry points (``upgrade``/``promote``/``rollback``);
* :mod:`repro.runtime.versions` — shadow canaries: a new version runs on
  a sampled shadow of the live stream, auto-promotes after N clean
  packets, auto-rolls-back on any divergence/fault/overrun — rollback
  restores bit-identical verdicts by construction;
* :mod:`repro.runtime.supervisor` — :class:`ShardSupervisor`: bounded
  per-shard ingress queues, crash-restarted workers (bounded restarts,
  exponential backoff), counted load shedding, measured MTTR;
* :mod:`repro.runtime.chaos` — the fault-injection harness behind
  ``pcc chaos``: seeded faults at every layer, recovery invariants
  asserted (healthy verdict streams bit-identical under all faults);
* :mod:`repro.runtime.backends` — the process backend for
  :meth:`PacketRuntime.serve`: shard 0 in the caller, a shared-nothing
  forked worker process per other shard, deterministic state merge,
  semantically invisible against the serial default;
* :mod:`repro.runtime.shard` — one modeled core: private reusable
  memory, private cycle clock, the one per-frame invocation
  (:meth:`Shard.invoke`) and the batched extension-major hot loop;
* :mod:`repro.runtime.extension` — per-extension state machine
  (ACTIVE → QUARANTINED → REINSTATED) and lock-free sharded counters;
* :mod:`repro.runtime.telemetry` — exact latency histograms,
  percentiles and the JSON stats snapshot behind ``pcc serve --json``;
* :mod:`repro.runtime.config` — :class:`RuntimeConfig` knobs (shards,
  backend, cycle budgets, fault thresholds, the frame contract, canary
  and supervisor policy).
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.extension import ExtensionState
from repro.runtime.runtime import PacketRuntime
from repro.runtime.supervisor import IngressQueue, InjectedCrash
from repro.runtime.telemetry import hist_percentile
from repro.runtime.versions import CanaryConfig, VersionState

__all__ = [
    "CanaryConfig",
    "ExtensionState",
    "IngressQueue",
    "InjectedCrash",
    "PacketRuntime",
    "RuntimeConfig",
    "VersionState",
    "hist_percentile",
]
