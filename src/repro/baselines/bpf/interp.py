"""The BPF interpreter with run-time safety checks.

Follows the BSD semantics the paper adopts for every baseline: "a filter
that attempts to read outside the packet or the scratch memory, or to
write outside the scratch memory, is terminated and the packet rejected".
Out-of-bounds packet loads therefore return verdict 0 instead of raising.

Cycle accounting charges :data:`~repro.perf.cost.BPF_DISPATCH_CYCLES` per
VM instruction (the fetch/decode/switch work of the OSF/1 C interpreter)
plus a small extra charge for checked packet loads, making the interpreted
baseline comparable with code running on the concrete Alpha model.

Execution uses threaded code: the program is decoded *once* at construction
into a flat table of per-instruction closures (offsets, widths, masked
immediates, and jump targets resolved at decode time).  The *modeled*
cycle charges are untouched — the VM still pays ``dispatch_cycles`` per
instruction and ``load_check_cycles`` per checked packet load; only the
Python-side fetch/decode/switch work disappears.  Decode errors the old
switch raised mid-run (bad LDX mode, bad ALU op, ...) compile to trap
closures that raise the identical :class:`BpfRuntimeError` at the same
execution point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.bpf.isa import (
    BPF_A,
    BPF_ADD,
    BPF_ALU,
    BPF_AND,
    BPF_B,
    BPF_DIV,
    BPF_H,
    BPF_IMM,
    BPF_IND,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_LD,
    BPF_LDX,
    BPF_LEN,
    BPF_LSH,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MISC,
    BPF_MSH,
    BPF_MUL,
    BPF_NEG,
    BPF_OR,
    BPF_RET,
    BPF_RSH,
    BPF_ST,
    BPF_STX,
    BPF_SUB,
    BPF_TAX,
    BPF_TXA,
    BPF_W,
    BpfInstruction,
)
from repro.errors import BpfRuntimeError
from repro.perf.cost import BPF_DISPATCH_CYCLES, BPF_LOAD_CHECK_CYCLES

_U32 = 0xFFFFFFFF

# Mutable VM state threaded through the handler closures.  A flat list is
# measurably cheaper than attribute access on an object in this loop.
_ACC = 0      # 32-bit accumulator A
_X = 1        # index register X
_LOADS = 2    # checked packet loads performed (for cycle accounting)
_VERDICT = 3  # result once a terminal handler fires
_PACKET = 4   # the packet bytes of the current run
_LEN = 5      # len(packet)
_SCRATCH = 6  # the 16 scratch cells M[0..15]

#: A decoded handler: mutates the state list, returns the next pc
#: (negative means the filter terminated and ``state[_VERDICT]`` is set).
Handler = Callable[[list], int]

_DONE = -1


@dataclass(frozen=True, slots=True)
class BpfRunStats:
    """Outcome of one filter invocation."""

    verdict: int
    instructions: int
    cycles: int


class BpfInterpreter:
    """A reusable interpreter for one verified program.

    Construction decodes the program into the handler table; :meth:`run`
    is the per-packet hot path and shares nothing mutable between runs.
    """

    def __init__(self, program: list[BpfInstruction],
                 dispatch_cycles: int = BPF_DISPATCH_CYCLES,
                 load_check_cycles: int = BPF_LOAD_CHECK_CYCLES,
                 max_steps: int = 100_000) -> None:
        self.program = list(program)
        self.dispatch_cycles = dispatch_cycles
        self.load_check_cycles = load_check_cycles
        self.max_steps = max_steps
        self._ops = _decode(self.program)

    def run(self, packet: bytes) -> BpfRunStats:
        """Filter one packet; returns the verdict and the cost counters."""
        state = [0, 0, 0, 0, packet, len(packet), [0] * BPF_MEMWORDS]
        ops = self._ops
        pc = 0
        for steps in range(self.max_steps):
            pc = ops[pc](state)
            if pc < 0:
                steps += 1
                return BpfRunStats(
                    state[_VERDICT], steps,
                    steps * self.dispatch_cycles
                    + state[_LOADS] * self.load_check_cycles)
        raise BpfRuntimeError("BPF filter ran too long")


# ---------------------------------------------------------------------------
# Decode: one specialized closure per instruction.

def _decode(program: list[BpfInstruction]) -> list[Handler]:
    size = len(program)
    ops: list[Handler] = [None] * size  # type: ignore[list-item]
    extra: list[Handler] = []
    traps: dict[int, int] = {}

    def resolve(target: int) -> int:
        """A jump target, or a trap slot raising the reference error."""
        if 0 <= target < size:
            return target
        slot = traps.get(target)
        if slot is None:
            slot = size + len(extra)
            extra.append(_pc_trap(target))
            traps[target] = slot
        return slot

    if size == 0:
        return [_pc_trap(0)]

    for pc, instruction in enumerate(program):
        ops[pc] = _decode_one(instruction, pc, resolve)
    return ops + extra


def _pc_trap(target: int) -> Handler:
    def op(state: list) -> int:
        raise BpfRuntimeError(f"BPF pc {target} out of range")
    return op


def _decode_one(instruction: BpfInstruction, pc: int,
                resolve: Callable[[int], int]) -> Handler:
    code = instruction.code
    k = instruction.k
    klass = code & 0x07
    nxt = resolve(pc + 1)

    if klass == BPF_RET:
        if code & BPF_A:
            def op(state):
                state[_VERDICT] = state[_ACC] & _U32
                return _DONE
        else:
            verdict = k & _U32

            def op(state):
                state[_VERDICT] = verdict
                return _DONE
        return op

    if klass == BPF_LD:
        mode = code & 0xE0
        width = {BPF_W: 4, BPF_H: 2, BPF_B: 1}[code & 0x18]
        if mode == BPF_IMM:
            value = k & _U32

            def op(state):
                state[_ACC] = value
                return nxt
        elif mode == BPF_LEN:
            def op(state):
                state[_ACC] = state[_LEN]
                return nxt
        elif mode == BPF_MEM:
            def op(state):
                state[_ACC] = state[_SCRATCH][k]
                return nxt
        elif mode == BPF_IND:
            op = _packet_load_ind(k, width, nxt)
        else:   # BPF_ABS (only IND is X-relative, as in the switch)
            op = _packet_load_abs(k, width, nxt)
        return op

    if klass == BPF_LDX:
        mode = code & 0xE0
        if mode == BPF_IMM:
            value = k & _U32

            def op(state):
                state[_X] = value
                return nxt
        elif mode == BPF_LEN:
            def op(state):
                state[_X] = state[_LEN]
                return nxt
        elif mode == BPF_MEM:
            def op(state):
                state[_X] = state[_SCRATCH][k]
                return nxt
        elif mode == BPF_MSH:
            def op(state):
                state[_LOADS] += 1
                if k < 0 or k >= state[_LEN]:
                    state[_VERDICT] = 0
                    return _DONE
                state[_X] = 4 * (state[_PACKET][k] & 0x0F)
                return nxt
        else:
            op = _runtime_trap(f"bad LDX mode {mode:#x}")
        return op

    if klass == BPF_ST:
        def op(state):
            state[_SCRATCH][k] = state[_ACC]
            return nxt
        return op

    if klass == BPF_STX:
        def op(state):
            state[_SCRATCH][k] = state[_X]
            return nxt
        return op

    if klass == BPF_ALU:
        return _decode_alu(code, k, nxt)

    if klass == BPF_JMP:
        op_bits = code & 0xF0
        if op_bits == BPF_JA:
            target = resolve(pc + 1 + k)

            def op(state):
                return target
            return op
        taken = resolve(pc + 1 + instruction.jt)
        fallthrough = resolve(pc + 1 + instruction.jf)
        if code & 0x08:     # operand is X
            if op_bits == BPF_JEQ:
                def op(state):
                    return taken if state[_ACC] == state[_X] else fallthrough
            elif op_bits == BPF_JGT:
                def op(state):
                    return taken if state[_ACC] > state[_X] else fallthrough
            elif op_bits == BPF_JGE:
                def op(state):
                    return taken if state[_ACC] >= state[_X] else fallthrough
            elif op_bits == BPF_JSET:
                def op(state):
                    return taken if state[_ACC] & state[_X] else fallthrough
            else:
                op = _runtime_trap(f"bad jump op {op_bits:#x}")
        else:
            if op_bits == BPF_JEQ:
                def op(state):
                    return taken if state[_ACC] == k else fallthrough
            elif op_bits == BPF_JGT:
                def op(state):
                    return taken if state[_ACC] > k else fallthrough
            elif op_bits == BPF_JGE:
                def op(state):
                    return taken if state[_ACC] >= k else fallthrough
            elif op_bits == BPF_JSET:
                def op(state):
                    return taken if state[_ACC] & k else fallthrough
            else:
                op = _runtime_trap(f"bad jump op {op_bits:#x}")
        return op

    if klass == BPF_MISC:
        if code & 0xF8 == BPF_TXA:
            def op(state):
                state[_ACC] = state[_X]
                return nxt
        elif code & 0xF8 == BPF_TAX:
            def op(state):
                state[_X] = state[_ACC]
                return nxt
        else:
            op = _runtime_trap(f"bad MISC op {code:#x}")
        return op

    return _runtime_trap(f"bad class {klass}")  # pragma: no cover


def _runtime_trap(message: str) -> Handler:
    def op(state: list) -> int:
        raise BpfRuntimeError(message)
    return op


def _packet_load_abs(k: int, width: int, nxt: int) -> Handler:
    """Checked absolute packet load in network byte order."""
    end = k + width
    if width == 1:
        def op(state):
            state[_LOADS] += 1
            if k < 0 or end > state[_LEN]:
                state[_VERDICT] = 0
                return _DONE
            state[_ACC] = state[_PACKET][k]
            return nxt
    elif width == 2:
        def op(state):
            state[_LOADS] += 1
            if k < 0 or end > state[_LEN]:
                state[_VERDICT] = 0
                return _DONE
            packet = state[_PACKET]
            state[_ACC] = (packet[k] << 8) | packet[k + 1]
            return nxt
    else:
        def op(state):
            state[_LOADS] += 1
            if k < 0 or end > state[_LEN]:
                state[_VERDICT] = 0
                return _DONE
            packet = state[_PACKET]
            state[_ACC] = ((packet[k] << 24) | (packet[k + 1] << 16)
                           | (packet[k + 2] << 8) | packet[k + 3])
            return nxt
    return op


def _packet_load_ind(k: int, width: int, nxt: int) -> Handler:
    """Checked X-relative packet load in network byte order."""
    def op(state):
        state[_LOADS] += 1
        offset = state[_X] + k
        if offset < 0 or offset + width > state[_LEN]:
            state[_VERDICT] = 0
            return _DONE
        packet = state[_PACKET]
        value = 0
        for position in range(width):   # network byte order
            value = (value << 8) | packet[offset + position]
        state[_ACC] = value
        return nxt
    return op


def _decode_alu(code: int, k: int, nxt: int) -> Handler:
    op_bits = code & 0xF0
    if code & 0x08:     # operand is X
        if op_bits == BPF_ADD:
            def op(state):
                state[_ACC] = (state[_ACC] + state[_X]) & _U32
                return nxt
        elif op_bits == BPF_SUB:
            def op(state):
                state[_ACC] = (state[_ACC] - state[_X]) & _U32
                return nxt
        elif op_bits == BPF_MUL:
            def op(state):
                state[_ACC] = (state[_ACC] * state[_X]) & _U32
                return nxt
        elif op_bits == BPF_DIV:
            def op(state):
                x = state[_X]
                if x == 0:
                    state[_VERDICT] = 0
                    return _DONE
                state[_ACC] = (state[_ACC] // x) & _U32
                return nxt
        elif op_bits == BPF_OR:
            def op(state):
                state[_ACC] = (state[_ACC] | state[_X]) & _U32
                return nxt
        elif op_bits == BPF_AND:
            def op(state):
                state[_ACC] = state[_ACC] & state[_X] & _U32
                return nxt
        elif op_bits == BPF_LSH:
            def op(state):
                state[_ACC] = (state[_ACC] << (state[_X] & 31)) & _U32
                return nxt
        elif op_bits == BPF_RSH:
            def op(state):
                state[_ACC] = (state[_ACC] & _U32) >> (state[_X] & 31)
                return nxt
        elif op_bits == BPF_NEG:
            def op(state):
                state[_ACC] = (-state[_ACC]) & _U32
                return nxt
        else:
            op = _runtime_trap(f"bad ALU op {op_bits:#x}")
        return op

    if op_bits == BPF_ADD:
        def op(state):
            state[_ACC] = (state[_ACC] + k) & _U32
            return nxt
    elif op_bits == BPF_SUB:
        def op(state):
            state[_ACC] = (state[_ACC] - k) & _U32
            return nxt
    elif op_bits == BPF_MUL:
        def op(state):
            state[_ACC] = (state[_ACC] * k) & _U32
            return nxt
    elif op_bits == BPF_DIV:
        if k == 0:
            def op(state):
                state[_VERDICT] = 0
                return _DONE
        else:
            def op(state):
                state[_ACC] = (state[_ACC] // k) & _U32
                return nxt
    elif op_bits == BPF_OR:
        def op(state):
            state[_ACC] = (state[_ACC] | k) & _U32
            return nxt
    elif op_bits == BPF_AND:
        mask = k & _U32

        def op(state):
            state[_ACC] &= mask
            return nxt
    elif op_bits == BPF_LSH:
        shift = k & 31

        def op(state):
            state[_ACC] = (state[_ACC] << shift) & _U32
            return nxt
    elif op_bits == BPF_RSH:
        shift = k & 31

        def op(state):
            state[_ACC] = (state[_ACC] & _U32) >> shift
            return nxt
    elif op_bits == BPF_NEG:
        def op(state):
            state[_ACC] = (-state[_ACC]) & _U32
            return nxt
    else:
        op = _runtime_trap(f"bad ALU op {op_bits:#x}")
    return op
