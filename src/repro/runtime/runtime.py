"""The kernel packet-dispatch runtime (the layer above admission).

PR 2 built the admission path — :class:`repro.pcc.loader.ExtensionLoader`
turns untrusted bytes into validated programs.  This module is the
*dispatch* path: what the kernel does with admitted extensions while
traffic is flowing, and what happens when one of them misbehaves.

Admission (:meth:`PacketRuntime.attach`) goes only through the loader.
A submission that validates runs on the raw compiled engine with
**zero per-packet checks** — the paper's whole point.  A submission that
fails validation is rejected, or — when the operator opts in with
``downgrade_unproven`` — admitted onto the *checked* abstract-machine
path (Figure 3 semantics), paying rd()/wr() hooks on every memory
instruction.  That downgrade tier is exactly the world PCC removes; the
runtime keeps it around both as a fairness baseline and because a kernel
fleet mid-rollout realistically hosts a mix.

Dispatch fans the packet stream across :class:`~repro.runtime.shard
.Shard` workers — modeled cores with private memories and cycle clocks
— on one schedule of **rounds**, which :meth:`PacketRuntime.dispatch`
(with or without ``collect``) and the process backend all follow:

* round ``r`` is ``kept[r·B·N : (r+1)·B·N]`` of the contract-kept
  frames, where ``B`` is ``batch_size`` and ``N`` the shard count; shard
  ``i`` takes every ``N``-th frame of the round, starting at offset
  ``i`` (:func:`rounds`);
* serial dispatch runs the rounds in order and the shards of one round
  in index order; within a shard's chunk, each extension it serves runs
  over the whole chunk, in attach order (extension-major; see
  :meth:`Shard.dispatch`);
* the end of a round is a **boundary**, handled in shard-index order
  (:meth:`PacketRuntime._end_round`): each extension's ``last_fault``
  takes each shard's latest fault from the round, and every extension
  some shard stopped is quarantined once.

Between two boundaries, each shard's work is a pure function of its own
frames and its state at the last boundary.  That is what lets the
process backend (:mod:`repro.runtime.backends`) run the shards of a
round at once in forked workers, and re-execute a dead worker's rounds
in the caller, with the same result.

Robustness is policy, not hope:

* **cycle budgets** — an invocation that overruns its budget faults
  (liveness is not covered by the safety proof);
* **fault thresholds** — a shard that sees ``fault_threshold``
  *consecutive* faults from an extension stops invoking it at once; at
  the round's boundary the extension flips ACTIVE → QUARANTINED, and no
  shard serves it from the next round on.  Its neighbours keep serving
  every frame;
* **reinstatement** — :meth:`reinstate` re-admits a quarantined
  extension through the loader (content-addressed, so revalidation of
  unchanged bytes is O(hash)); success moves it to REINSTATED.  An
  unproven extension stays on the checked tier unless its bytes now
  validate, in which case reinstatement *promotes* it to the unchecked
  fast path.

Telemetry is first-class: per-extension counters and latency
percentiles, per-shard cycle clocks, and a JSON-serializable snapshot
(surfaced by ``pcc serve --json``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.alpha.batch import FramePlan, compile_batch
from repro.alpha.encoding import decode_program
from repro.alpha.engine import ExecutionEngine
from repro.alpha.abstract import make_check_hooks
from repro.errors import (
    PatchError,
    PccError,
    UnknownExtensionError,
    ValidationError,
)
from repro.filters.kv import (
    KV_STATE_BASE,
    STATE_SIZE,
    kv_registers,
    reusable_kv_memory,
)
from repro.filters.policy import (
    PACKET_BASE,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    filter_registers,
    reusable_packet_memory,
)
from repro.pcc.container import PccBinary
from repro.pcc.loader import ExtensionLoader
from repro.proof.store import ProofStore
from repro.runtime.config import RuntimeConfig
from repro.runtime.extension import ExtensionState, RuntimeExtension
from repro.runtime.shard import Shard
from repro.runtime.telemetry import RuntimeSnapshot
from repro.runtime.versions import CanaryConfig, ShadowCanary, UpgradeRecord
from repro.vcgen.policy import SafetyPolicy


#: The frame plan of each standard invocation contract, keyed by its
#: ``(memory_factory, registers_fn)`` pair: batch compilation
#: specializes against exactly these (see :class:`FramePlan`).
_FRAME_PLANS = {
    (reusable_packet_memory, filter_registers):
        FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE),
    (reusable_kv_memory, kv_registers):
        FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE, persistent=True),
}


def rounds(frames: int, shards: int, batch_size: int) -> list[list[slice]]:
    """The dispatch schedule over ``frames`` kept frames: one list per
    round, holding each shard's chunk as a slice of the kept frames."""
    step = batch_size * shards
    return [[slice(start + index, start + step, shards)
             for index in range(shards)]
            for start in range(0, frames, step)]


@dataclass(frozen=True)
class DispatchReport:
    """Outcome of one :meth:`PacketRuntime.dispatch`/:meth:`serve` call."""

    packets: int
    contract_drops: int
    #: Wall seconds per phase, one reading each per call: ``contract``
    #: (the frame-size filter), ``fork`` (starting the process
    #: backend's children), ``execute`` (the shards' slices; on the
    #: process backend, shard 0 in the caller plus the wait for the
    #: children) and ``merge`` (folding the children's deltas back).
    #: Serial dispatch has no fork or merge phase; those read 0.0.
    phase_seconds: dict[str, float]
    shard_cycles: tuple[int, ...]
    clock_mhz: float
    records: list[dict] | None = None
    #: Which execution vehicle produced this report: "serial" (the
    #: caller's own thread: :meth:`dispatch`, and :meth:`serve` on the
    #: serial backend or a process-backend fallback) or "process"
    #: (:meth:`serve` on the process backend, which runs shard 0 in the
    #: caller and forks a worker per other shard — none at one shard).
    backend: str = "serial"
    #: Each shard whose worker died mid-serve, mapped to the wall
    #: seconds from detecting the death to the end of the round the
    #: caller re-executed for it (process backend only).
    reexecuted: dict[int, float] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def modeled_seconds(self) -> float:
        if not self.shard_cycles:
            return 0.0
        return max(self.shard_cycles) / (self.clock_mhz * 1e6)

    @property
    def modeled_packets_per_second(self) -> float:
        seconds = self.modeled_seconds
        return self.packets / seconds if seconds else 0.0

    @property
    def wall_packets_per_second(self) -> float:
        return self.packets / self.wall_seconds if self.wall_seconds else 0.0


class PacketRuntime:
    """A simulated in-kernel dispatch plane over PCC-admitted extensions.

    Concurrency contract: the control plane (:meth:`attach`,
    :meth:`detach`, :meth:`reinstate`, :meth:`upgrade`, :meth:`promote`,
    :meth:`rollback`) serializes every mutation of the extension table
    behind ``self._lock`` — concurrent control-plane calls are safe.
    Validation itself (the slow part) runs outside the lock, so a long
    admission never blocks telemetry or other control calls.  The
    dispatch paths (:meth:`dispatch`, :meth:`serve`) snapshot the
    extension *list* once at entry: an extension attached mid-serve
    joins on the next call, and a detached one finishes the in-flight
    call.  The hot loop itself takes no locks: quarantine flips happen
    at round boundaries, and canary promotion publishes single
    attributes the loop reads once per invocation.
    """

    def __init__(self, policy: SafetyPolicy,
                 config: RuntimeConfig | None = None) -> None:
        self.policy = policy
        self.config = config or RuntimeConfig()
        self.loader = ExtensionLoader(policy,
                                      prescreen=self.config.prescreen,
                                      proof_store=ProofStore())
        self.shards = [Shard(index, self.config)
                       for index in range(self.config.shards)]
        self._extensions: dict[str, RuntimeExtension] = {}
        self._lock = threading.Lock()
        self.contract_drops = 0
        self.upgrade_log: list[UpgradeRecord] = []
        # Batch compilation specializes against a *standard* invocation
        # contract — the packet filters' or the KV family's; a runtime
        # configured with other memory/register callables gets no frame
        # plan and every extension batches through the generic engine
        # loop instead.
        self._frame_plan = _FRAME_PLANS.get(
            (self.config.memory_factory, self.config.registers_fn))

    # -- admission (the only way in is through the loader) ---------------

    def attach(self, name: str, data: bytes | PccBinary
               ) -> RuntimeExtension:
        """Admit ``data`` as extension ``name``.

        PCC-validated submissions get the unchecked fast path.  On
        :class:`ValidationError`, the submission is rejected unless
        ``config.downgrade_unproven`` — then it is admitted onto the
        checked abstract-machine tier (a decodable code section is still
        required; garbage is rejected regardless).
        """
        with self._lock:
            if name in self._extensions:
                raise ValueError(f"extension {name!r} already attached")
        extension = self._admit(name, data)
        self._resolve_budget(extension)
        with self._lock:
            if name in self._extensions:  # lost a race to another attach
                raise ValueError(f"extension {name!r} already attached")
            self._extensions[name] = extension
        return extension

    def _admit(self, name: str, data: bytes | PccBinary
               ) -> RuntimeExtension:
        """Build a RuntimeExtension from ``data`` via the loader — the
        shared admission step behind :meth:`attach` and :meth:`upgrade`
        (nothing reaches dispatch without passing through here)."""
        blob = data.to_bytes() if isinstance(data, PccBinary) else bytes(data)
        digest = self.loader.cache_key(blob)[0]
        config = self.config
        try:
            report = self.loader.load(blob)
        except ValidationError:
            if not config.downgrade_unproven:
                raise
            return self._attach_checked(name, blob, digest)
        extension = RuntimeExtension(
            name, blob, digest, report.program, report,
            checked=False, shards=config.shards)
        extension.engine = ExecutionEngine(
            report.program, config.cost_model, config.max_steps)
        extension.batch_runner = self._batch_runner_for(report.program)
        return extension

    def _batch_runner_for(self, program):
        """The specialized whole-batch driver for an unchecked program,
        or None when the program (no WCET bound, size) or this runtime's
        invocation contract falls outside the fast path."""
        if self._frame_plan is None:
            return None
        return compile_batch(program, self.config.cost_model,
                             self._frame_plan, self.config.max_steps)

    def _resolve_budget(self, extension: RuntimeExtension) -> None:
        """Fix the extension's per-invocation budget at admission.

        ``cycle_budget="auto"`` asks the static analyzer for the
        extension's WCET under this runtime's policy and cost model.
        The bound is sound for the engine's block-granular accounting,
        so an auto budget can never fire on a run the unbudgeted engine
        would complete — verdicts are bit-identical.  Extensions the
        analysis cannot bound (irreducible flow, unprovable loops) fall
        back to unbudgeted dispatch; ``wcet_bound`` stays None and the
        operator can see that in telemetry.
        """
        config = self.config
        if config.cycle_budget != "auto":
            extension.cycle_budget = config.cycle_budget
            return
        from repro.analysis.intervals import context_for_policy
        from repro.analysis.wcet import estimate_wcet

        report = estimate_wcet(extension.program,
                               context_for_policy(self.policy),
                               config.cost_model)
        extension.wcet_bound = report.bound
        extension.cycle_budget = report.budget(config.budget_slack)

    def _attach_checked(self, name: str, blob: bytes,
                        digest: str) -> RuntimeExtension:
        """The downgrade tier: decode the code section and bake this
        runtime's per-shard rd()/wr() hooks into a checked engine per
        shard (Figure 3 semantics at dispatch time)."""
        try:
            program = decode_program(PccBinary.from_bytes(blob).code)
        except PccError as error:
            raise ValidationError(
                f"cannot downgrade {name!r}: undecodable code section "
                f"({error})") from error
        extension = RuntimeExtension(
            name, blob, digest, program, report=None, checked=True,
            shards=self.config.shards)
        extension.shard_engines = [
            ExecutionEngine(program, self.config.cost_model,
                            self.config.max_steps,
                            *make_check_hooks(shard.can_read,
                                              shard.can_write))
            for shard in self.shards
        ]
        return extension

    def detach(self, name: str) -> None:
        with self._lock:
            extension = self._extensions.pop(name, None)
            if extension is None:
                raise UnknownExtensionError(name, list(self._extensions))
            extension.canary = None  # any in-flight upgrade dies with it

    def extension(self, name: str) -> RuntimeExtension:
        with self._lock:
            extension = self._extensions.get(name)
            if extension is None:
                raise UnknownExtensionError(name, list(self._extensions))
            return extension

    @property
    def extensions(self) -> list[RuntimeExtension]:
        with self._lock:
            return list(self._extensions.values())

    # -- quarantine control ----------------------------------------------

    def reinstate(self, name: str) -> RuntimeExtension:
        """Revalidate and re-admit a quarantined extension.

        The bytes go back through the loader: unchanged proven bytes hit
        the content-addressed cache (O(hash)); an unproven extension
        whose bytes *now* validate is promoted to the unchecked fast
        path; an unproven extension that still fails validation returns
        to the checked tier (it was admissible there to begin with).

        Reinstatement is re-admission, so the cycle budget is resolved
        afresh exactly as :meth:`attach` would: a promoted extension's
        WCET is recomputed for the program it will actually run (the old
        checked-tier bound — or a hand-tweaked one — would be stale),
        and a fixed config budget is re-applied.
        """
        extension = self.extension(name)
        if extension.state is not ExtensionState.QUARANTINED:
            raise ValueError(f"extension {name!r} is not quarantined "
                             f"(state: {extension.state.value})")
        try:
            report = self.loader.load(extension.blob)
        except ValidationError:
            if not extension.checked:
                raise  # proven bytes failing revalidation: refuse
        else:
            if extension.checked:
                extension.checked = False
                extension.shard_engines = None
                extension.report = report
                extension.program = report.program
                extension.engine = ExecutionEngine(
                    report.program, self.config.cost_model,
                    self.config.max_steps)
                extension.batch_runner = self._batch_runner_for(
                    report.program)
        self._resolve_budget(extension)
        extension.reinstate()
        return extension

    # -- versioned hot swap ----------------------------------------------

    def upgrade(self, name: str, data: bytes | PccBinary | None = None,
                canary: CanaryConfig | None = None, *,
                patch=None) -> ShadowCanary:
        """Admit the next version of ``name`` and start it as a shadow
        canary (see :mod:`repro.runtime.versions`).

        The candidate arrives either as full container bytes (``data``),
        as an incremental :class:`~repro.pcc.incremental.ProofPatch`
        against the serving version's exact bytes (``patch``), or both.
        The patch path is tried first — it reassembles the container via
        :meth:`~repro.pcc.loader.ExtensionLoader.load_patch`, so the full
        validation pipeline still runs — and any *patch* problem (wrong
        base, tampered subproof, stale fingerprint) falls back to full
        certification of ``data`` when provided, or re-raises
        :class:`~repro.errors.PatchError` when not.  A candidate that is
        genuinely unsafe is rejected identically by both paths.

        The live version keeps serving — and stays authoritative — for
        every packet; the candidate runs on a sampled shadow of the
        stream until it either earns promotion (``promote_after`` clean
        packets) or triggers rollback (any divergence, fault, or budget
        overrun).  Raises :class:`ValidationError` if the new bytes do
        not pass admission (under ``downgrade_unproven`` the candidate
        shadows on the checked tier, like any other unproven code).
        """
        if data is None and patch is None:
            raise ValueError("upgrade needs container bytes, a proof "
                             "patch, or both")
        extension = self.extension(name)
        if not extension.active:
            raise ValueError(
                f"extension {name!r} is {extension.state.value}; "
                f"reinstate or detach it before upgrading")
        if patch is not None:
            try:
                __, reassembled = self.loader.load_patch(
                    patch, extension.blob)
            except PatchError:
                if data is None:
                    raise
                # Fall back to the full path: the patch was unusable
                # (corrupted, wrong base, stale policy) but the full
                # container can still earn admission on its own merits.
            else:
                data = reassembled
        blob = data.to_bytes() if isinstance(data, PccBinary) else bytes(data)
        digest = self.loader.cache_key(blob)[0]
        if digest == extension.digest:
            raise ValueError(
                f"upgrade for {name!r} is byte-identical to the serving "
                f"version (digest {digest[:12]})")
        candidate = self._admit(name, blob)
        candidate.version = extension.version + 1
        self._resolve_budget(candidate)
        shadow = ShadowCanary(name, extension, candidate,
                              canary or self.config.canary,
                              shards=len(self.shards),
                              decide=self._decide_canary)
        with self._lock:
            if self._extensions.get(name) is not extension:
                raise UnknownExtensionError(name, list(self._extensions))
            if extension.canary is not None:
                raise ValueError(
                    f"an upgrade for {name!r} is already in flight "
                    f"(to v{extension.canary.candidate.version})")
            extension.canary = shadow
        return shadow

    def promote(self, name: str) -> UpgradeRecord:
        """Operator override: promote the in-flight canary now."""
        shadow = self._require_canary(name)
        shadow.force(True, reason="operator promote")
        return shadow.record()

    def rollback(self, name: str) -> UpgradeRecord:
        """Operator override: discard the in-flight canary now."""
        shadow = self._require_canary(name)
        shadow.force(False, reason="operator rollback")
        return shadow.record()

    def _require_canary(self, name: str) -> ShadowCanary:
        shadow = self.extension(name).canary
        if shadow is None:
            raise ValueError(f"no upgrade in flight for {name!r}")
        return shadow

    def _decide_canary(self, shadow: ShadowCanary, promoted: bool) -> None:
        """Finish an upgrade (called once per canary): clear the shadow
        slot, adopt the candidate on promotion, and append the audit
        record."""
        with self._lock:
            live = self._extensions.get(shadow.name)
            if live is shadow.live:
                live.canary = None
                if promoted:
                    live.adopt(shadow.candidate)
            self.upgrade_log.append(shadow.record())

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, frames, collect: bool = False) -> DispatchReport:
        """Serial dispatch: the semantics reference for :meth:`serve`.

        Runs the rounds of the schedule in order, and the shards of
        each round in index order (see the module docstring).
        ``collect`` records the verdicts of this same computation, in
        packet order.
        """
        began = time.perf_counter()
        kept, drops = self._apply_contract(frames)
        extensions = self.extensions
        shards = self.shards
        before = [shard.cycles for shard in shards]
        records = [None] * len(kept) if collect else None
        started = time.perf_counter()
        for chunks in rounds(len(kept), len(shards),
                             self.config.batch_size):
            for shard, chunk in zip(shards, chunks):
                verdicts = shard.dispatch(kept[chunk], extensions,
                                          self.policy, collect)
                if collect:
                    records[chunk] = verdicts
            self._end_round(extensions)
        finished = time.perf_counter()
        return DispatchReport(
            packets=len(kept), contract_drops=drops,
            phase_seconds={"contract": started - began, "fork": 0.0,
                           "execute": finished - started, "merge": 0.0},
            shard_cycles=tuple(shard.cycles - prior for shard, prior
                               in zip(shards, before)),
            clock_mhz=self.config.cost_model.clock_mhz, records=records)

    def _end_round(self, extensions) -> list[str]:
        """The boundary step, in shard-index order: each extension's
        ``last_fault`` takes each shard's latest fault from the round,
        and every extension some shard stopped is quarantined once, so
        that no shard serves it from the next round on.  Returns the
        names quarantined."""
        threshold = self.config.fault_threshold
        quarantined = []
        for extension in extensions:
            stopped = False
            for counters in extension.shard_counters:
                if counters.last_fault is not None:
                    extension.last_fault = counters.last_fault
                stopped = stopped or counters.stopped(threshold)
            if stopped and extension.active:
                extension.quarantine()
                quarantined.append(extension.name)
        return quarantined

    def serve(self, frames) -> DispatchReport:
        """Dispatch on the vehicle ``config.backend`` names.

        ``"serial"`` is :meth:`dispatch` itself.  ``"process"`` runs
        shard 0 in the caller and forks one worker for each other shard;
        the workers exchange their shard's state with the caller at
        every round boundary (see :mod:`repro.runtime.backends`), and
        the caller re-executes the remaining rounds of any worker that
        dies.  Without ``os.fork``, or while a canary is in flight, it
        falls back to :meth:`dispatch`.  The runtime ends in the same
        state either way; only the report's ``phase_seconds``,
        ``reexecuted`` and ``backend`` depend on the vehicle.
        """
        if self.config.backend == "process":
            from repro.runtime.backends import ProcessBackend

            return ProcessBackend().serve(self, frames)
        return self.dispatch(frames)

    def _apply_contract(self, frames) -> tuple[list, int]:
        """Keep the kernel's half of the precondition bargain (the
        contract promises ``r2 >= 64``): drop and count every frame
        outside [min_frame_bytes, max_frame_bytes].  Returns ``(kept,
        drops)``."""
        frames = list(frames)
        low = self.config.min_frame_bytes
        high = self.config.max_frame_bytes
        kept = [frame for frame in frames if low <= len(frame) <= high]
        drops = len(frames) - len(kept)
        self.contract_drops += drops
        return kept, drops

    # -- telemetry --------------------------------------------------------

    def snapshot(self, extra: dict | None = None) -> RuntimeSnapshot:
        extensions = tuple(extension.snapshot()
                           for extension in self.extensions)
        return RuntimeSnapshot(
            shards=len(self.shards),
            extensions=extensions,
            packets_in=sum(shard.packets for shard in self.shards),
            dispatches=sum(ext.packets_in for ext in extensions),
            faults=sum(ext.faults for ext in extensions),
            contract_drops=self.contract_drops,
            shard_cycles=tuple(shard.cycles for shard in self.shards),
            clock_mhz=self.config.cost_model.clock_mhz,
            extra=extra or {},
            canary_cycles=tuple(shard.canary_cycles
                                for shard in self.shards),
            upgrades=tuple(record.to_dict()
                           for record in self.upgrade_log),
        )

    def stats_json(self, indent: int | None = 2) -> str:
        return self.snapshot().to_json(indent)
