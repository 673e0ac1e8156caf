"""The concrete machine: a cycle-counting simulator of the Alpha subset.

This stands in for the paper's DEC Alpha 3000/600.  It executes programs
*without any safety checks* beyond what the hardware itself enforces
(alignment traps and, in this model, access to unmapped memory, standing in
for the MMU).  PCC binaries run here at full speed; the SFI and
safe-language baselines run here too, paying for their extra instructions;
the abstract machine (:mod:`repro.alpha.abstract`) is this machine with
the paper's rd()/wr() checks passed as its ``check_read``/``check_write``
hooks.  Each step applies the one statement of the instruction semantics,
:func:`repro.alpha.isa.operate` and :func:`~repro.alpha.isa.branch_taken`.

Memory is a set of mapped regions, each a bytearray at a base address —
enough to model a packet buffer, a scratch area, and a kernel table without
simulating a full address space.  Reads of unmapped addresses raise
:class:`MachineError`, the moral equivalent of a kernel page fault: the
whole point of the paper is that certified code never gets there.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.alpha.isa import (
    NUM_REGS,
    WORD_MASK,
    Br,
    Branch,
    Lda,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Program,
    Ret,
    Stq,
    branch_taken,
    operate,
)
from repro.errors import MachineError

#: A safety-check hook: called with ``(address, pc)`` before a memory
#: access, raises to block execution.
CheckHook = Callable[[int, int], None]

_unpack_from = struct.unpack_from
_pack_into = struct.pack_into


@dataclass
class _Region:
    base: int
    data: bytearray
    writable: bool
    name: str

    def contains(self, address: int, size: int) -> bool:
        return self.base <= address and address + size <= self.base + len(self.data)


class Memory:
    """Sparse region-based memory with 64-bit little-endian words.

    Address resolution keeps a one-entry *last-hit cache*: packet filters
    touch the same (packet or scratch) region on almost every access, so
    the common case skips the linear region scan.  The cache holds the
    region object itself and re-checks bounds on every use, so the
    permission and bounds semantics are unchanged — a cached region never
    satisfies an access the uncached scan would reject.
    """

    def __init__(self) -> None:
        self._regions: list[_Region] = []
        self._last: _Region | None = None

    def map_region(self, base: int, data: bytes | bytearray, *,
                   writable: bool = False, name: str = "region") -> None:
        """Map ``data`` at address ``base``.

        Regions may not overlap; bases need not be aligned (SFI experiments
        use 2048-byte aligned packet segments, plain PCC does not care).
        """
        if base < 0:
            raise MachineError(f"negative region base {base:#x}")
        for region in self._regions:
            if base < region.base + len(region.data) and region.base < base + len(data):
                raise MachineError(
                    f"region {name!r} at {base:#x} overlaps {region.name!r}")
        self._regions.append(
            _Region(base, bytearray(data), writable, name))

    def rebind_region(self, name: str, data: bytes | bytearray) -> None:
        """Replace a region's backing bytes in place; base and
        permissions are unchanged.

        The perf harness uses this the way a kernel reuses one receive
        buffer across packets: instead of building a fresh
        :class:`Memory` per frame, it rebinds the packet region.  The
        new contents may have a different length, so the non-overlap
        invariant is re-checked against every other region.
        """
        target = None
        for region in self._regions:
            if region.name == name:
                target = region
                break
        if target is None:
            raise MachineError(f"no region named {name!r}")
        for region in self._regions:
            if region is target:
                continue
            if (target.base < region.base + len(region.data)
                    and region.base < target.base + len(data)):
                raise MachineError(
                    f"region {name!r} at {target.base:#x} overlaps "
                    f"{region.name!r}")
        if len(target.data) == len(data):
            target.data[:] = data
        else:
            target.data = bytearray(data)

    def region(self, name: str) -> bytearray:
        """The backing bytes of a mapped region (for test assertions)."""
        for region in self._regions:
            if region.name == name:
                return region.data
        raise MachineError(f"no region named {name!r}")

    def _find(self, address: int, size: int) -> _Region:
        last = self._last
        if (last is not None and last.base <= address
                and address + size <= last.base + len(last.data)):
            return last
        for region in self._regions:
            if region.contains(address, size):
                self._last = region
                return region
        raise MachineError(f"unmapped address {address:#x} (size {size})")

    def load_quad(self, address: int) -> int:
        """Read the 64-bit word at ``address`` (must be 8-byte aligned)."""
        if address & 7:
            raise MachineError(f"unaligned LDQ address {address:#x}")
        # The last-hit fast path, inlined: this is the hottest call in
        # the perf harness and a method call per load is measurable.
        region = self._last
        if (region is None or address < region.base
                or address + 8 > region.base + len(region.data)):
            region = self._find(address, 8)
        return _unpack_from("<Q", region.data, address - region.base)[0]

    def store_quad(self, address: int, value: int) -> None:
        """Write the 64-bit word at ``address`` (must be 8-byte aligned)."""
        if address & 7:
            raise MachineError(f"unaligned STQ address {address:#x}")
        region = self._last
        if (region is None or address < region.base
                or address + 8 > region.base + len(region.data)):
            region = self._find(address, 8)
        if not region.writable:
            raise MachineError(
                f"write to read-only region {region.name!r} at {address:#x}")
        _pack_into("<Q", region.data, address - region.base,
                   value & WORD_MASK)


@dataclass(frozen=True, slots=True)
class MachineResult:
    """Outcome of a program run."""

    value: int            # contents of r0 at RET
    instructions: int     # dynamic instruction count
    cycles: int           # cost-model cycles (see repro.perf.cost)


class Machine:
    """Executes a program on registers + memory, counting instructions.

    ``cost_model`` maps an instruction to its cycle cost; the default
    charges one cycle per instruction (see :mod:`repro.perf.cost` for the
    calibrated model used in the benchmarks).  ``check_read`` and
    ``check_write``, when given, run before every LDQ and STQ with the
    effective address and pc; the abstract machine passes the paper's
    rd()/wr() checks here, the concrete machine goes straight to hardware.
    """

    def __init__(self, program: Program, memory: Memory,
                 registers: dict[int, int] | None = None,
                 cost_model=None, max_steps: int = 1_000_000,
                 trace_hook=None, check_read: CheckHook | None = None,
                 check_write: CheckHook | None = None) -> None:
        self.program = program
        self.memory = memory
        self.regs = [0] * NUM_REGS
        if registers:
            for index, value in registers.items():
                self.regs[index] = value & WORD_MASK
        self.cost_model = cost_model
        self.max_steps = max_steps
        #: Optional ``hook(pc, regs)`` observed before each step with a
        #: snapshot of the register file — the differential soundness
        #: suite checks every traced state against the static analyzer's
        #: intervals.  The concrete machine is the slow reference path,
        #: so the per-step None check is acceptable here (the block
        #: engine, the hot path, has no such hook).
        self.trace_hook = trace_hook
        self.check_read = check_read
        self.check_write = check_write

    def run(self) -> MachineResult:
        """Run until RET; returns r0 and the execution counts."""
        return self.resume(0, 0, 0)

    def resume(self, pc: int, steps: int, cycles: int) -> MachineResult:
        """Continue from ``pc`` with ``steps`` instructions and ``cycles``
        cycles already counted, on the current registers, until RET.

        The execution engine enters here for the one block that would
        cross the step limit, so behaviour at the limit is this
        machine's by construction.
        """
        program = self.program
        regs = self.regs
        memory = self.memory
        size = len(program)
        cost = self.cost_model
        trace = self.trace_hook
        check_read = self.check_read
        check_write = self.check_write
        while True:
            if steps >= self.max_steps:
                raise MachineError(
                    f"exceeded {self.max_steps} steps (runaway program?)")
            if not 0 <= pc < size:
                raise MachineError(f"pc {pc} outside program")
            if trace is not None:
                trace(pc, list(regs))
            instruction = program[pc]
            steps += 1
            cycles += cost.cycles(instruction) if cost is not None else 1

            if isinstance(instruction, Operate):
                a = regs[instruction.ra.index]
                if isinstance(instruction.rb, Lit):
                    b = instruction.rb.value
                else:
                    b = regs[instruction.rb.index]
                regs[instruction.rc.index] = operate(instruction.name, a, b)
                pc += 1
            elif isinstance(instruction, Ldq):
                address = (regs[instruction.rs.index]
                           + instruction.disp) & WORD_MASK
                if check_read is not None:
                    check_read(address, pc)
                regs[instruction.rd.index] = memory.load_quad(address)
                pc += 1
            elif isinstance(instruction, Stq):
                address = (regs[instruction.rd.index]
                           + instruction.disp) & WORD_MASK
                if check_write is not None:
                    check_write(address, pc)
                memory.store_quad(address, regs[instruction.rs.index])
                pc += 1
            elif isinstance(instruction, Lda):
                regs[instruction.rd.index] = (
                    regs[instruction.rs.index] + instruction.disp) & WORD_MASK
                pc += 1
            elif isinstance(instruction, Ldah):
                regs[instruction.rd.index] = (
                    regs[instruction.rs.index]
                    + (instruction.disp << 16)) & WORD_MASK
                pc += 1
            elif isinstance(instruction, Branch):
                if branch_taken(instruction.name, regs[instruction.rs.index]):
                    pc = pc + 1 + instruction.offset
                else:
                    pc += 1
            elif isinstance(instruction, Br):
                pc = pc + 1 + instruction.offset
            elif isinstance(instruction, Ret):
                return MachineResult(regs[0], steps, cycles)
            else:  # pragma: no cover - exhaustive over Instruction
                raise MachineError(f"cannot execute {instruction!r}")
