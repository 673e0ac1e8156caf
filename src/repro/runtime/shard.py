"""One dispatch shard: a modeled kernel core with its own memory.

A shard owns everything the per-packet hot path touches — a reusable
:class:`~repro.alpha.machine.Memory` (rebinding the packet region per
invocation, exactly as the perf harness does), the invocation-contract
callables, and a **cycle clock**.  The clock is the shard's modeled
core: dispatching a packet advances it by the invocation's cost-model
cycles, so N shards fed disjoint packet slices model N cores draining
the stream in parallel.  Runtime-wide modeled throughput is therefore
``packets / (busiest clock / frequency)`` regardless of how many host
cores the simulation itself gets — the same cycles-first metric
discipline as :mod:`repro.perf`.

The dispatch chain runs every *active* extension over every packet (the
kernel-tap model: think several attached packet filters, each getting
its own look).  One invocation is stated once, in :meth:`Shard.invoke`:
PCC-proven extensions run on the shared unchecked engine; downgraded
extensions run on this shard's checked engine, whose rd()/wr() hooks
consult predicates rebound per packet from the policy's
``make_checkers``.  The frame-major loop and the shadow canary both
call it.

:meth:`Shard.dispatch` runs one round's chunk (see
:mod:`repro.runtime.runtime` for the schedule) **extension-major**: each
extension the shard still serves runs over the whole chunk, in attach
order, before the next one starts.  Invocations are not independent —
a KV extension's stores persist in the shard's state area, which its
neighbours read — so this order is part of the semantics, and every
path follows it: the compiled batch runner
(:mod:`repro.alpha.batch`) or the engine's generic
:meth:`~repro.alpha.engine.ExecutionEngine.run_batch` on the throughput
path, paying the per-packet Python dispatch toll once per segment, and
the per-frame loop (``_dispatch_frames``) for the checked tier, canary
shadowing and verdict collection.  A chunk's work is a pure function of
its frames and this shard's state: its memory, its clock and its own
counters (fault runs included).
"""

from __future__ import annotations

from repro.errors import BudgetExceeded, MachineError, SafetyViolation


def fault_reason(error: MachineError) -> str:
    """A one-line quarantine-log reason naming the fault precisely."""
    if isinstance(error, SafetyViolation):
        kind = error.kind or "rd/wr"
        return (f"{kind} violation at pc={error.pc} "
                f"address={error.address:#x}" if error.address is not None
                else f"{kind} violation at pc={error.pc}")
    if isinstance(error, BudgetExceeded):
        return (f"cycle budget exceeded ({error.cycles} cycles, "
                f"budget {error.budget})")
    return f"machine fault: {error}"


class Shard:
    """One worker's dispatch state; see the module docstring."""

    def __init__(self, index: int, config) -> None:
        self.index = index
        self.config = config
        self.memory, self.rebind = config.memory_factory()
        self.registers_fn = config.registers_fn
        self.cycles = 0
        self.packets = 0
        # Shadow-canary work is clocked separately: candidate cycles
        # must never move the live clock, or rollback would not restore
        # bit-identical modeled throughput.
        self.canary_cycles = 0
        # Checked-path predicates, rebound per packet by invoke; the
        # per-shard checked engines' decode-time hooks delegate here.
        self._can_read = None
        self._can_write = None

    # -- checked-path support --------------------------------------------

    def can_read(self, address: int) -> bool:
        return self._can_read is not None and self._can_read(address)

    def can_write(self, address: int) -> bool:
        return self._can_write is not None and self._can_write(address)

    # -- one invocation --------------------------------------------------

    def invoke(self, extension, frame: bytes, policy):
        """Run ``extension`` once on ``frame`` in this shard's memory.

        Rebinds the packet region, builds the entry registers, derives
        the checked tier's rd()/wr() predicates from the policy's
        semantic interpretation (the abstract machine's view), and runs
        the engine under the budget resolved at admission.  Returns the
        engine's result; a fault propagates as :class:`MachineError`.
        """
        self.rebind(frame)
        registers = self.registers_fn(len(frame))
        if extension.checked:
            if policy.make_checkers is None:
                self._can_read = self._can_write = None
            else:
                self._can_read, self._can_write = policy.make_checkers(
                    registers, self.memory.load_quad)
            engine = extension.shard_engines[self.index]
        else:
            engine = extension.engine
        return engine.run(self.memory, registers, extension.cycle_budget)

    # -- the hot loop ----------------------------------------------------

    def dispatch(self, frames, extensions, policy,
                 collect: bool = False) -> list[dict] | None:
        """Run one chunk of ``frames`` through every extension this shard
        still serves, extension-major.

        Returns per-frame ``{extension name: verdict}`` dicts when
        ``collect`` (verdict ``None`` means the invocation faulted; an
        extension this shard no longer serves is absent), else ``None``
        — the benchmark path keeps only counters.
        """
        records = [{} for __ in frames] if collect else None
        threshold = self.config.fault_threshold
        for extension in extensions:
            counters = extension.shard_counters[self.index]
            counters.last_fault = None
            if not extension.active or counters.stopped(threshold):
                continue
            if collect or extension.checked or extension.canary is not None:
                # The checked tier rebinds rd()/wr() predicates per
                # packet and canaries shadow per packet: both stay on
                # the frame-major reference loop.
                self._dispatch_frames(frames, extension, counters, policy,
                                      records)
            else:
                self._dispatch_batch(frames, extension, counters)
        self.packets += len(frames)
        return records

    def _fault(self, counters, error: MachineError) -> bool:
        """Count one fault on this shard; True once the shard's run
        reaches the fault threshold and it stops invoking the
        extension."""
        counters.faults += 1
        if isinstance(error, BudgetExceeded):
            # The overrun consumed modeled time up to the point the
            # budget tripped; other faults are instantaneous aborts.
            counters.cycles += error.cycles
            self.cycles += error.cycles
        counters.fault_run += 1
        counters.last_fault = fault_reason(error)
        return counters.stopped(self.config.fault_threshold)

    def _dispatch_batch(self, frames, extension, counters) -> None:
        """The fast path: one engine entry per segment, resuming after
        each fault exactly where the per-frame loop would — same
        counters, same fault runs."""
        budget = extension.cycle_budget
        runner = extension.batch_runner
        engine = extension.engine
        total = len(frames)
        start = 0
        while start < total:
            if runner is not None:
                done, accepted, pairs, error = runner.run(
                    frames, start, budget, memory=self.memory)
            else:
                done, accepted, pairs, error = engine.run_batch(
                    self.memory, self.rebind, frames,
                    self.registers_fn, start, budget)
            completed = done - start
            if completed:
                counters.packets_in += completed
                counters.accepted += accepted
                hist = counters.cycle_hist
                segment_cycles = 0
                for value, count in pairs:
                    if count:
                        hist[value] = hist.get(value, 0) + count
                        segment_cycles += value * count
                counters.cycles += segment_cycles
                self.cycles += segment_cycles
                counters.fault_run = 0
            if error is None:
                return
            counters.packets_in += 1
            if self._fault(counters, error):
                return
            start = done + 1

    def _dispatch_frames(self, frames, extension, counters, policy,
                         records) -> None:
        """The frame-major reference loop for one extension: checked
        tier, canary shadowing, and verdict collection into
        ``records`` (one dict per frame, or None)."""
        name = extension.name
        hist = counters.cycle_hist
        for slot, frame in enumerate(frames):
            counters.packets_in += 1
            try:
                result = self.invoke(extension, frame, policy)
            except MachineError as error:
                stopped = self._fault(counters, error)
                verdict = None
            else:
                cycles = result.cycles
                counters.cycles += cycles
                hist[cycles] = hist.get(cycles, 0) + 1
                self.cycles += cycles
                verdict = bool(result.value)
                counters.accepted += verdict
                counters.fault_run = 0
                stopped = False
            canary = extension.canary
            if canary is not None:
                # Shadow dispatch: rebinds the memory for its own
                # invocation, so the live stream is untouched.
                canary.consider(self, frame, verdict, policy)
            if records is not None:
                records[slot][name] = verdict
            if stopped:
                return
