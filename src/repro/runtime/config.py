"""Dispatch-runtime configuration.

The defaults encode the paper's packet-filter invocation contract: a
reusable kernel memory with packet + scratch regions and the r1/r2/r3
register convention.  Both are swappable callables, so the runtime can
host any policy whose invocation contract can be expressed as "build a
memory once, rebind it per packet, derive entry registers from the
frame".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.filters.packets import MAX_FRAME, MIN_FRAME
from repro.filters.policy import filter_registers, reusable_packet_memory
from repro.perf.cost import ALPHA_175, AlphaCostModel
from repro.runtime.versions import CanaryConfig


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs for :class:`repro.runtime.PacketRuntime`.

    ``shards``            modeled cores (shard 0 in the caller and one
                          forked worker per other shard when :meth:`serve`
                          runs on the process backend)
    ``backend``           how :meth:`serve` runs the shards:
                          ``"serial"`` (default; :meth:`dispatch` in the
                          caller) or ``"process"`` (shard 0 in the caller,
                          forked workers for the others, exchanging state
                          with it at every round boundary — see
                          :mod:`repro.runtime.backends`)
    ``batch_size``        the round length: each round gives each shard
                          one chunk of ``batch_size`` frames, run
                          extension-major.  It therefore also fixes the
                          order in which extensions see a shard's shared
                          state (the KV state area), and how soon a
                          quarantine reaches the other shards: at the
                          end of the round (see :mod:`repro.runtime
                          .runtime`)
    ``cycle_budget``      per-invocation cycle cap; ``None`` disables —
                          overruns fault the extension (liveness policy);
                          the string ``"auto"`` derives each extension's
                          budget from its static WCET bound at admission
                          (:mod:`repro.analysis.wcet`), falling back to
                          unbudgeted for extensions the analysis cannot
                          bound
    ``budget_slack``      headroom on auto budgets: the budget is
                          ``ceil(wcet * (1 + budget_slack))``; 0.0 sets
                          the budget to the exact bound, which is still
                          verdict-preserving (the bound is sound for the
                          engine's block-granular accounting)
    ``prescreen``         run the static-analysis fast-reject pass in
                          the loader before full PCC validation
    ``fault_threshold``   consecutive faults on one shard before that
                          shard stops invoking the extension and the
                          round's boundary quarantines it; ``None``
                          never quarantines
    ``downgrade_unproven``  admit proof-less binaries onto the *checked*
                          abstract-machine path instead of rejecting
    ``min_frame_bytes``   the frame contract, always enforced: every
    ``max_frame_bytes``   dispatch path drops (and counts) frames outside
                          [min_frame_bytes, max_frame_bytes] — the
                          kernel's half of the precondition bargain
                          (r2 >= 64)
    ``canary``            default :class:`~repro.runtime.versions
                          .CanaryConfig` for :meth:`PacketRuntime
                          .upgrade` (overridable per upgrade)
    """

    shards: int = 1
    backend: str = "serial"
    batch_size: int = 8192
    cycle_budget: int | str | None = None
    budget_slack: float = 0.0
    prescreen: bool = False
    fault_threshold: int | None = 3
    downgrade_unproven: bool = False
    min_frame_bytes: int = MIN_FRAME
    max_frame_bytes: int = MAX_FRAME
    cost_model: AlphaCostModel = field(default_factory=lambda: ALPHA_175)
    max_steps: int = 1_000_000
    memory_factory: Callable = reusable_packet_memory
    registers_fn: Callable[[int], dict] = filter_registers
    canary: CanaryConfig = field(default_factory=CanaryConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.backend not in ("serial", "process"):
            raise ValueError(
                f"backend must be 'serial' or 'process'; "
                f"got {self.backend!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        budget = self.cycle_budget
        if isinstance(budget, str):
            if budget != "auto":
                raise ValueError(
                    f"cycle budget must be a positive int, None, or "
                    f"'auto'; got {budget!r}")
        elif isinstance(budget, bool):
            # bool is an int subclass; True would silently mean "1 cycle".
            raise ValueError("cycle budget must be a positive int, None, "
                             "or 'auto'; got a bool")
        elif budget is not None:
            if not isinstance(budget, int):
                raise ValueError(
                    f"cycle budget must be a positive int, None, or "
                    f"'auto'; got {type(budget).__name__}")
            if budget < 1:
                raise ValueError("cycle budget must be positive")
        if not isinstance(self.budget_slack, (int, float)) \
                or isinstance(self.budget_slack, bool) \
                or self.budget_slack < 0:
            raise ValueError("budget slack must be a non-negative number")
        if self.fault_threshold is not None and self.fault_threshold < 1:
            raise ValueError("fault threshold must be positive")
