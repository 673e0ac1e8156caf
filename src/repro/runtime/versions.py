"""Versioned hot-swap: shadow canaries, auto-promotion, auto-rollback.

The paper's guarantee is per-binary: *these* bytes, once validated, are
safe forever.  A fleet replacing an extension under live traffic needs
more — the new version must prove itself against real packets before it
is trusted, and backing out must be instant and exact.  This module is
that upgrade path:

* :meth:`repro.runtime.PacketRuntime.upgrade` admits the replacement
  bytes through the loader (same front door as :meth:`attach` — there is
  no way to smuggle an unvalidated version in) and installs them as a
  **shadow canary**: the live version keeps serving every packet and its
  verdicts remain authoritative; the candidate additionally runs on a
  configurable sample of the stream, its verdicts compared but never
  used.  Shadow execution is the live invocation,
  :meth:`~repro.runtime.shard.Shard.invoke`, which rebinds the shard
  memory per invocation, so the candidate cannot perturb the live
  stream — rollback therefore restores bit-identical verdicts *by
  construction*, not by replay.
* After ``promote_after`` sampled packets with agreeing verdicts and no
  faults, the canary **auto-promotes**: the candidate's program, engine,
  digest and freshly resolved cycle budget are swapped into the live
  slot between invocations (one attribute publication under the
  extension lock; in-flight packets finish on whichever version they
  started with).
* Any divergence, machine fault, or cycle-budget overrun in the shadow
  **auto-rolls-back**: the candidate is discarded, the live version
  never having missed a packet.

Sampling is per shard with seeded RNGs (derived from the canary seed and
the shard index), so a given trace through a given shard layout always
samples the same packets — chaos runs and tests are reproducible.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass

from repro.errors import MachineError
from repro.runtime.shard import fault_reason

__all__ = [
    "CanaryConfig",
    "ShadowCanary",
    "UpgradeRecord",
    "VersionState",
]


class VersionState(enum.Enum):
    """The version-lifecycle state machine (one canary per upgrade).

    SHADOW        candidate runs on sampled packets; live verdicts rule
    PROMOTED      candidate swapped into the live slot (terminal)
    ROLLED_BACK   candidate discarded after divergence/fault/overrun or
                  operator action (terminal)
    """

    SHADOW = "shadow"
    PROMOTED = "promoted"
    ROLLED_BACK = "rolled-back"


@dataclass(frozen=True)
class CanaryConfig:
    """Knobs for one shadow-canary upgrade.

    ``sample_fraction``  fraction of the live stream also dispatched to
                         the candidate (1.0 = every packet)
    ``promote_after``    clean (agreeing, fault-free) sampled packets
                         before auto-promotion
    ``seed``             base seed for the per-shard sampling RNGs
    """

    sample_fraction: float = 1.0
    promote_after: int = 128
    seed: int = 0xCA9A27

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(f"sample fraction must be in (0, 1], got "
                             f"{self.sample_fraction}")
        if self.promote_after < 1:
            raise ValueError("promote_after must be positive")


@dataclass(frozen=True)
class UpgradeRecord:
    """The outcome of one upgrade attempt (telemetry / audit log)."""

    name: str
    from_version: int
    to_version: int
    from_digest: str
    to_digest: str
    state: str
    sampled: int
    clean: int
    divergences: int
    faults: int
    reason: str | None
    decision_seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "from_digest": self.from_digest,
            "to_digest": self.to_digest,
            "state": self.state,
            "sampled": self.sampled,
            "clean": self.clean,
            "divergences": self.divergences,
            "faults": self.faults,
            "reason": self.reason,
            "decision_seconds": self.decision_seconds,
        }


class ShadowCanary:
    """One in-flight upgrade: the candidate version running in shadow.

    Thread-safety: :meth:`consider` runs in the dispatching thread (the
    process backend falls back to serial dispatch while a canary is in
    flight), while an operator override (:meth:`force`) may arrive from
    another thread.  Sampling RNGs are per shard; the clean/divergence
    ledger and the state transition sit behind one lock, and the
    decision (promote or roll back) fires exactly once, in whichever
    call observed the deciding packet.  The runtime-supplied ``decide``
    callback runs *outside* the canary lock.
    """

    def __init__(self, name: str, live, candidate, config: CanaryConfig,
                 shards: int, decide) -> None:
        self.name = name
        self.live = live
        self.candidate = candidate
        self.config = config
        self.state = VersionState.SHADOW
        self.reason: str | None = None
        self.sampled = 0
        self.clean = 0
        self.divergences = 0
        self.faults = 0
        self.skipped = 0   # live invocation faulted: nothing to compare
        self._decide = decide
        # Captured now: promotion rewrites the live extension in place,
        # so the pre-upgrade identity must be pinned for the audit log.
        self._from_version = live.version
        self._from_digest = live.digest
        self._lock = threading.Lock()
        self._started = time.perf_counter()
        self.decision_seconds: float | None = None
        self._rngs = [random.Random((config.seed * 0x9E3779B1) ^ index)
                      for index in range(shards)]

    # -- the shadow hot path (called from Shard.dispatch) ----------------

    def consider(self, shard, frame: bytes, live_verdict: bool | None,
                 policy) -> None:
        """Maybe run the candidate on ``frame`` and weigh the outcome.

        ``live_verdict`` is the authoritative verdict the live version
        just produced (``None`` if the live invocation faulted — such
        packets are skipped: there is no verdict to agree with, and the
        live fault is the quarantine machinery's problem, not the
        canary's).
        """
        if self.state is not VersionState.SHADOW:
            return
        fraction = self.config.sample_fraction
        if fraction < 1.0 and self._rngs[shard.index].random() >= fraction:
            return
        if live_verdict is None:
            with self._lock:
                self.skipped += 1
            return

        try:
            result = shard.invoke(self.candidate, frame, policy)
        except MachineError as error:
            self._observe(clean=False,
                          reason=f"candidate fault: {fault_reason(error)}")
            return
        shard.canary_cycles += result.cycles
        verdict = bool(result.value)
        if verdict != live_verdict:
            self._observe(clean=False,
                          reason=f"verdict divergence (live={live_verdict}, "
                                 f"candidate={verdict})")
        else:
            self._observe(clean=True, reason=None)

    def _observe(self, clean: bool, reason: str | None) -> None:
        """Record one sampled outcome; fire the decision at most once."""
        decision: bool | None = None
        with self._lock:
            if self.state is not VersionState.SHADOW:
                return
            self.sampled += 1
            if clean:
                self.clean += 1
                if self.clean >= self.config.promote_after:
                    self.state = VersionState.PROMOTED
                    decision = True
            else:
                if reason and reason.startswith("candidate fault"):
                    self.faults += 1
                else:
                    self.divergences += 1
                self.state = VersionState.ROLLED_BACK
                self.reason = reason
                decision = False
            if decision is not None:
                self.decision_seconds = time.perf_counter() - self._started
        if decision is not None:
            self._decide(self, decision)

    # -- operator overrides ----------------------------------------------

    def force(self, promote: bool, reason: str | None = None) -> bool:
        """Operator-initiated promote/rollback; False if already decided."""
        with self._lock:
            if self.state is not VersionState.SHADOW:
                return False
            self.state = (VersionState.PROMOTED if promote
                          else VersionState.ROLLED_BACK)
            self.reason = reason
            self.decision_seconds = time.perf_counter() - self._started
        self._decide(self, promote)
        return True

    # -- reporting --------------------------------------------------------

    def record(self) -> UpgradeRecord:
        with self._lock:
            return UpgradeRecord(
                name=self.name,
                from_version=self._from_version,
                to_version=self.candidate.version,
                from_digest=self._from_digest,
                to_digest=self.candidate.digest,
                state=self.state.value,
                sampled=self.sampled,
                clean=self.clean,
                divergences=self.divergences,
                faults=self.faults,
                reason=self.reason,
                decision_seconds=(self.decision_seconds
                                  if self.decision_seconds is not None
                                  else time.perf_counter() - self._started),
            )

    def snapshot(self) -> dict:
        """A JSON-ready view for the extension's telemetry snapshot."""
        with self._lock:
            return {
                "state": self.state.value,
                "to_version": self.candidate.version,
                "to_digest": self.candidate.digest,
                "sample_fraction": self.config.sample_fraction,
                "promote_after": self.config.promote_after,
                "sampled": self.sampled,
                "clean": self.clean,
                "divergences": self.divergences,
                "faults": self.faults,
                "reason": self.reason,
            }
