"""A BPF-to-Alpha compiler ("JIT") whose output is certifiable PCC.

§3.1 of the paper: "It is possible, of course, to eliminate the need for
interpretation.  For example, we could replace the packet-filter
interpreter with a compiler ...  The problem here is the startup cost and
complexity of compilation" — and, unlike PCC, a JIT must itself be
trusted.  This module closes the loop the paper hints at: it compiles
classic BPF to our Alpha subset with the BPF run-time checks made
explicit, which means the output can be *certified against the
packet-filter policy* — the kernel then needs to trust neither the BPF
program nor the compiler.

Compilation model (naive, as a first-generation JIT would be):

* ``A`` lives in r4, ``X`` in r5; both kept 32-bit by masking through a
  shift pair after every ALU op (the constant 0xFFFFFFFF does not fit an
  operate literal);
* each packet load bounds-checks ``offset + width <= len`` and then
  assembles the big-endian value byte by byte from aligned 64-bit loads
  (the Alpha 21064 has no byte loads);
* a failed check branches to ``fail`` and rejects, exactly the
  interpreter's semantics;
* scratch cells M[0] and M[1] map to the policy's 16-byte scratch area;
  higher indices are rejected (the paper's filters use none at all);
* BPF_DIV and BPF_NEG are not supported (no divide instruction in the
  subset; none of the classic filters need them).

The compiled programs agree with the interpreter packet-for-packet (see
``tests/baselines/test_bpf_jit.py``) and certify automatically.
"""

from __future__ import annotations

from repro.alpha.isa import Program
from repro.alpha.parser import parse_program
from repro.baselines.bpf.isa import (
    BPF_A,
    BPF_ABS,
    BPF_ADD,
    BPF_ALU,
    BPF_AND,
    BPF_B,
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
    BPF_MISC,
    BPF_MSH,
    BPF_MUL,
    BPF_OR,
    BPF_RET,
    BPF_RSH,
    BPF_ST,
    BPF_STX,
    BPF_SUB,
    BPF_TXA,
    BPF_W,
    BpfInstruction,
)
from repro.baselines.bpf.verify import verify_bpf
from repro.errors import BpfError

_ACC = "r4"
_IDX = "r5"
_T0 = "r6"   # effective offsets / byte assembly
_T1 = "r7"   # word scratch
_T2 = "r8"   # second operand / constants

#: Scratch cells the 16-byte policy area can hold.
_MAX_SCRATCH_CELL = 2


class _Jit:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def op(self, text: str) -> None:
        self.lines.append(f"        {text}")

    def label(self, name: str) -> None:
        self.lines.append(f"{name}:")

    def constant(self, value: int, reg: str) -> None:
        """Materialize an unsigned 32-bit constant."""
        if not 0 <= value < (1 << 32):
            raise BpfError(f"constant {value:#x} out of range")
        if value >= (1 << 31):
            # LDAH sign-extends; build the top bit with a shift instead.
            self.constant(value >> 16, reg)
            self.op(f"SLL {reg}, 16, {reg}")
            low = value & 0xFFFF
            if low:
                self.constant_into_temp_and_or(low, reg)
            return
        low = value & 0xFFFF
        if low >= 0x8000:
            low -= 0x10000
        high = (value - low) >> 16
        self.op(f"SUBQ {reg}, {reg}, {reg}")
        if high:
            self.op(f"LDAH {reg}, {high}({reg})")
        if low or not high:
            self.op(f"LDA {reg}, {low}({reg})")

    def constant_into_temp_and_or(self, value: int, reg: str) -> None:
        if reg == _T1:
            raise BpfError("temp collision in constant synthesis")
        self.constant(value, _T1)
        self.op(f"BIS {reg}, {_T1}, {reg}")

    def mask32(self, reg: str) -> None:
        self.op(f"SLL {reg}, 32, {reg}")
        self.op(f"SRL {reg}, 32, {reg}")

    def checked_load(self, offset_reg_setup, width: int,
                     target: str) -> None:
        """Bounds-check then load ``width`` big-endian bytes.

        ``offset_reg_setup`` emits code leaving the byte offset in _T0.
        """
        offset_reg_setup()
        # check: offset + width <= len  i.e.  offset + (width-1) < len
        if width > 1:
            self.op(f"ADDQ {_T0}, {width - 1}, {_T1}")
        else:
            self.op(f"ADDQ {_T0}, 0, {_T1}")
        self.op(f"CMPULT {_T1}, r2, {_T1}")
        self.op(f"BEQ {_T1}, fail")
        # assemble big-endian, byte by byte
        self.op(f"SUBQ {target}, {target}, {target}")
        for position in range(width):
            self.op(f"ADDQ {_T0}, {position}, {_T1}")
            self.op(f"SRL {_T1}, 3, {_T2}")
            self.op(f"SLL {_T2}, 3, {_T2}")
            self.op(f"ADDQ r1, {_T2}, {_T2}")
            self.op(f"LDQ {_T2}, 0({_T2})")
            self.op(f"EXTBL {_T2}, {_T1}, {_T1}")
            self.op(f"SLL {target}, 8, {target}")
            self.op(f"BIS {target}, {_T1}, {target}")

    def scratch_address(self, cell: int) -> str:
        if cell >= _MAX_SCRATCH_CELL:
            raise BpfError(
                f"scratch cell M[{cell}] does not fit the 16-byte policy "
                f"scratch area")
        return f"{8 * cell}(r3)"


def compile_bpf(program: list[BpfInstruction]) -> Program:
    """Compile a verified BPF program to certifiable Alpha code."""
    verify_bpf(program)
    jit = _Jit()

    for pc, instruction in enumerate(program):
        jit.label(f"i{pc}")
        _compile_instruction(jit, pc, instruction)

    jit.label("fail")
    jit.op("SUBQ r0, r0, r0")
    jit.op("RET")
    return parse_program("\n".join(jit.lines))


def _compile_instruction(jit: _Jit, pc: int,
                         instruction: BpfInstruction) -> None:
    code = instruction.code
    klass = code & 0x07
    k = instruction.k

    if klass == BPF_RET:
        if code & BPF_A:
            jit.op(f"ADDQ {_ACC}, 0, r0")
        else:
            jit.constant(k & 0xFFFFFFFF, "r0")
        jit.op("RET")
        return

    if klass in (BPF_LD, BPF_LDX):
        target = _ACC if klass == BPF_LD else _IDX
        mode = code & 0xE0
        width = {BPF_W: 4, BPF_H: 2, BPF_B: 1}[code & 0x18]
        if mode == BPF_IMM:
            jit.constant(k, target)
        elif mode == BPF_LEN:
            jit.op(f"ADDQ r2, 0, {target}")
        elif mode == BPF_MEM:
            jit.op(f"LDQ {target}, {jit.scratch_address(k)}")
        elif mode == BPF_MSH and klass == BPF_LDX:
            jit.checked_load(lambda: jit.constant(k, _T0), 1, _IDX)
            jit.op(f"AND {_IDX}, 15, {_IDX}")
            jit.op(f"SLL {_IDX}, 2, {_IDX}")
        elif mode == BPF_ABS:
            jit.checked_load(lambda: jit.constant(k, _T0), width, target)
        elif mode == BPF_IND:
            def offset_setup():
                jit.constant(k, _T0)
                jit.op(f"ADDQ {_T0}, {_IDX}, {_T0}")
            jit.checked_load(offset_setup, width, target)
        else:
            raise BpfError(f"pc {pc}: unsupported load mode {mode:#x}")
        return

    if klass == BPF_ST:
        jit.op(f"STQ {_ACC}, {jit.scratch_address(k)}")
        return
    if klass == BPF_STX:
        jit.op(f"STQ {_IDX}, {jit.scratch_address(k)}")
        return

    if klass == BPF_ALU:
        operation = code & 0xF0
        if code & 0x08:  # X operand
            operand = _IDX
        else:
            jit.constant(k, _T2)
            operand = _T2
        mnemonic = {BPF_ADD: "ADDQ", BPF_SUB: "SUBQ", BPF_MUL: "MULQ",
                    BPF_OR: "BIS", BPF_AND: "AND", BPF_LSH: "SLL",
                    BPF_RSH: "SRL"}.get(operation)
        if mnemonic is None:
            raise BpfError(
                f"pc {pc}: ALU op {operation:#x} unsupported by the JIT "
                f"(BPF_DIV/BPF_NEG)")
        jit.op(f"{mnemonic} {_ACC}, {operand}, {_ACC}")
        jit.mask32(_ACC)
        return

    if klass == BPF_JMP:
        operation = code & 0xF0
        if operation == BPF_JA:
            jit.op(f"BR i{pc + 1 + k}")
            return
        true_label = f"i{pc + 1 + instruction.jt}"
        false_label = f"i{pc + 1 + instruction.jf}"
        if code & 0x08:
            operand = _IDX
        else:
            jit.constant(k, _T2)
            operand = _T2
        if operation == BPF_JEQ:
            jit.op(f"CMPEQ {_ACC}, {operand}, {_T1}")
        elif operation == BPF_JGT:
            jit.op(f"CMPULT {operand}, {_ACC}, {_T1}")
        elif operation == BPF_JGE:
            jit.op(f"CMPULE {operand}, {_ACC}, {_T1}")
        elif operation == BPF_JSET:
            jit.op(f"AND {_ACC}, {operand}, {_T1}")
        else:
            raise BpfError(f"pc {pc}: jump op {operation:#x} unsupported")
        jit.op(f"BNE {_T1}, {true_label}")
        jit.op(f"BR {false_label}")
        return

    if klass == BPF_MISC:
        if code & 0xF8 == BPF_TXA:
            jit.op(f"ADDQ {_IDX}, 0, {_ACC}")
        else:
            jit.op(f"ADDQ {_ACC}, 0, {_IDX}")
        return

    raise BpfError(f"pc {pc}: unsupported class {klass}")
