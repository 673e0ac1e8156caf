"""The kernel packet-dispatch runtime (the layer above admission).

The paper's bargain is one-time validation, then native speed forever —
but "forever" happens inside a kernel that is serving traffic from many
extensions at once, replacing them under load, and surviving its own
machinery failing.  This package is that kernel's dispatch plane and
its control plane:

* :mod:`repro.runtime.runtime` — :class:`PacketRuntime`: admission only
  through the PR 2 extension loader (proven code runs unchecked;
  unproven code is rejected or, opt-in, downgraded to the checked
  Figure 3 tier), sharded dispatch on one schedule of rounds,
  quarantine at round boundaries, reinstatement, and the versioned
  hot-swap entry points (``upgrade``/``promote``/``rollback``);
* :mod:`repro.runtime.versions` — shadow canaries: a new version runs on
  a sampled shadow of the live stream, auto-promotes after N clean
  packets, auto-rolls-back on any divergence/fault/overrun — rollback
  restores bit-identical verdicts by construction;
* :mod:`repro.runtime.backends` — the process backend for
  :meth:`PacketRuntime.serve`: shard 0 in the caller, a forked worker
  per other shard exchanging its shard's state at every round boundary,
  and re-execution in the caller of a dead worker's remaining rounds —
  semantically invisible against the serial default;
* :mod:`repro.runtime.chaos` — the fault-injection harness behind
  ``pcc chaos``: seeded faults at every layer, SIGKILLed workers
  included, recovery invariants asserted;
* :mod:`repro.runtime.shard` — one modeled core: private reusable
  memory, private cycle clock, the one per-frame invocation
  (:meth:`Shard.invoke`) and the extension-major chunk loop;
* :mod:`repro.runtime.extension` — per-extension state machine
  (ACTIVE → QUARANTINED → REINSTATED) and lock-free sharded counters,
  per-shard fault runs included;
* :mod:`repro.runtime.telemetry` — exact latency histograms,
  percentiles and the JSON stats snapshot behind ``pcc serve --json``;
* :mod:`repro.runtime.config` — :class:`RuntimeConfig` knobs (shards,
  backend, round length, cycle budgets, fault thresholds, the frame
  contract, canary policy).
"""

from repro.runtime.config import RuntimeConfig
from repro.runtime.extension import ExtensionState
from repro.runtime.runtime import PacketRuntime
from repro.runtime.telemetry import hist_percentile
from repro.runtime.versions import CanaryConfig, VersionState

__all__ = [
    "CanaryConfig",
    "ExtensionState",
    "PacketRuntime",
    "RuntimeConfig",
    "VersionState",
    "hist_percentile",
]
