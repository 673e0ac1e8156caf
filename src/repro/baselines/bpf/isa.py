"""Classic BPF instruction set (the 1993 USENIX paper's encoding).

An instruction is ``(code, jt, jf, k)``.  The 16-bit ``code`` is built
from class / size / mode / operation bit-fields exactly as in
``net/bpf.h``; conditional jumps carry true/false displacement bytes; ``k``
is the 32-bit immediate.  The helper constructors below are the
"assembler" — BPF programs in this repository are written as lists of
helper calls, which reads close to ``bpf_asm`` syntax.

The VM state is the 32-bit accumulator ``A``, the index register ``X``,
and sixteen 32-bit scratch memory cells ``M[0..15]`` — the same scratch
memory the paper's safety policy models.
"""

from __future__ import annotations

from dataclasses import dataclass

# Instruction classes.
BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_RET = 0x06
BPF_MISC = 0x07

# Size field (loads).
BPF_W = 0x00   # 32-bit word
BPF_H = 0x08   # 16-bit halfword
BPF_B = 0x10   # byte

# Mode field.
BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60
BPF_LEN = 0x80
BPF_MSH = 0xA0  # the IP-header-length idiom: X := 4 * (pkt[k] & 0xf)

# ALU/JMP operations.
BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80

BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40

# Source field.
BPF_K = 0x00
BPF_X = 0x08

# RET sources.
BPF_A = 0x10

# MISC operations.
BPF_TAX = 0x00
BPF_TXA = 0x80

#: Number of scratch memory cells.
BPF_MEMWORDS = 16


@dataclass(frozen=True, slots=True)
class BpfInstruction:
    code: int
    jt: int = 0
    jf: int = 0
    k: int = 0

    def klass(self) -> int:
        return self.code & 0x07


def ld_w_abs(k: int) -> BpfInstruction:
    """A := pkt[k:k+4] (big-endian)."""
    return BpfInstruction(BPF_LD | BPF_W | BPF_ABS, k=k)


def ld_h_abs(k: int) -> BpfInstruction:
    """A := pkt[k:k+2] (big-endian)."""
    return BpfInstruction(BPF_LD | BPF_H | BPF_ABS, k=k)


def ld_b_abs(k: int) -> BpfInstruction:
    """A := pkt[k]."""
    return BpfInstruction(BPF_LD | BPF_B | BPF_ABS, k=k)


def ld_w_ind(k: int) -> BpfInstruction:
    """A := pkt[X+k : X+k+4]."""
    return BpfInstruction(BPF_LD | BPF_W | BPF_IND, k=k)


def ld_h_ind(k: int) -> BpfInstruction:
    """A := pkt[X+k : X+k+2]."""
    return BpfInstruction(BPF_LD | BPF_H | BPF_IND, k=k)


def ld_imm(k: int) -> BpfInstruction:
    """A := k."""
    return BpfInstruction(BPF_LD | BPF_IMM, k=k)


def ld_mem(k: int) -> BpfInstruction:
    """A := M[k]."""
    return BpfInstruction(BPF_LD | BPF_MEM, k=k)


def ldx_imm(k: int) -> BpfInstruction:
    """X := k."""
    return BpfInstruction(BPF_LDX | BPF_W | BPF_IMM, k=k)


def ldx_msh(k: int) -> BpfInstruction:
    """X := 4 * (pkt[k] & 0xf) — the IP header-length idiom."""
    return BpfInstruction(BPF_LDX | BPF_B | BPF_MSH, k=k)


def ldx_mem(k: int) -> BpfInstruction:
    """X := M[k]."""
    return BpfInstruction(BPF_LDX | BPF_W | BPF_MEM, k=k)


def st(k: int) -> BpfInstruction:
    """M[k] := A."""
    return BpfInstruction(BPF_ST, k=k)


def stx(k: int) -> BpfInstruction:
    """M[k] := X."""
    return BpfInstruction(BPF_STX, k=k)


def alu_add_k(k: int) -> BpfInstruction:
    return BpfInstruction(BPF_ALU | BPF_ADD | BPF_K, k=k)


def alu_and_k(k: int) -> BpfInstruction:
    return BpfInstruction(BPF_ALU | BPF_AND | BPF_K, k=k)


def alu_lsh_k(k: int) -> BpfInstruction:
    return BpfInstruction(BPF_ALU | BPF_LSH | BPF_K, k=k)


def alu_rsh_k(k: int) -> BpfInstruction:
    return BpfInstruction(BPF_ALU | BPF_RSH | BPF_K, k=k)


def jmp_ja(k: int) -> BpfInstruction:
    """Unconditional forward jump by k instructions."""
    return BpfInstruction(BPF_JMP | BPF_JA, k=k)


def jeq(k: int, jt: int, jf: int) -> BpfInstruction:
    """if A == k goto +jt else goto +jf."""
    return BpfInstruction(BPF_JMP | BPF_JEQ | BPF_K, jt=jt, jf=jf, k=k)


def jgt(k: int, jt: int, jf: int) -> BpfInstruction:
    return BpfInstruction(BPF_JMP | BPF_JGT | BPF_K, jt=jt, jf=jf, k=k)


def jge(k: int, jt: int, jf: int) -> BpfInstruction:
    return BpfInstruction(BPF_JMP | BPF_JGE | BPF_K, jt=jt, jf=jf, k=k)


def jset(k: int, jt: int, jf: int) -> BpfInstruction:
    """if A & k goto +jt else goto +jf."""
    return BpfInstruction(BPF_JMP | BPF_JSET | BPF_K, jt=jt, jf=jf, k=k)


def ret_k(k: int) -> BpfInstruction:
    """Return the constant verdict k."""
    return BpfInstruction(BPF_RET | BPF_K, k=k)


def ret_a() -> BpfInstruction:
    """Return the accumulator."""
    return BpfInstruction(BPF_RET | BPF_A)


def tax() -> BpfInstruction:
    """X := A."""
    return BpfInstruction(BPF_MISC | BPF_TAX)


def txa() -> BpfInstruction:
    """A := X."""
    return BpfInstruction(BPF_MISC | BPF_TXA)
