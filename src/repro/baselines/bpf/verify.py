"""The BPF static verifier — the kernel's attach-time check.

Mirrors the OSF/1 / BSD ``bpf_validate``: every instruction must have a
known opcode, every jump must land forward and inside the program, scratch
memory indices must be in range, constant divisors must be non-zero, and
the program must end in RET.  The paper measures this check at "a few
microseconds" and notes it is all the safety BPF gets *statically* — the
memory checks happen at run time, every time.
"""

from __future__ import annotations

from repro.baselines.bpf.isa import (
    BPF_ALU,
    BPF_DIV,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_MEM,
    BPF_MEMWORDS,
    BPF_MISC,
    BPF_MSH,
    BPF_RET,
    BPF_ST,
    BPF_STX,
    BpfInstruction,
)
from repro.errors import BpfVerifyError

_VALID_LD_MODES = (0x00, 0x20, 0x40, 0x60, 0x80)  # IMM ABS IND MEM LEN
_VALID_ALU_OPS = (0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80)
_VALID_JMP_OPS = (BPF_JA, BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET)


def verify_bpf(program: list[BpfInstruction]) -> None:
    """Attach-time validation; raises :class:`BpfVerifyError`."""
    size = len(program)
    if size == 0:
        raise BpfVerifyError("empty filter")
    for pc, instruction in enumerate(program):
        klass = instruction.klass()
        if klass in (BPF_LD, BPF_LDX):
            mode = instruction.code & 0xE0
            if klass == BPF_LDX and mode == BPF_MSH:
                pass  # the header-length idiom
            elif mode not in _VALID_LD_MODES:
                raise BpfVerifyError(
                    f"pc {pc}: bad load mode {mode:#x}")
            if mode == BPF_MEM and instruction.k >= BPF_MEMWORDS:
                raise BpfVerifyError(
                    f"pc {pc}: scratch index {instruction.k} out of range")
        elif klass in (BPF_ST, BPF_STX):
            if instruction.k >= BPF_MEMWORDS:
                raise BpfVerifyError(
                    f"pc {pc}: scratch index {instruction.k} out of range")
        elif klass == BPF_ALU:
            op = instruction.code & 0xF0
            if op not in _VALID_ALU_OPS:
                raise BpfVerifyError(f"pc {pc}: bad ALU op {op:#x}")
            if op == BPF_DIV and (instruction.code & 0x08) == BPF_K \
                    and instruction.k == 0:
                raise BpfVerifyError(f"pc {pc}: constant division by zero")
        elif klass == BPF_JMP:
            op = instruction.code & 0xF0
            if op not in _VALID_JMP_OPS:
                raise BpfVerifyError(f"pc {pc}: bad jump op {op:#x}")
            if op == BPF_JA:
                target = pc + 1 + instruction.k
                if not 0 <= target < size:
                    raise BpfVerifyError(f"pc {pc}: jump out of range")
            else:
                for displacement in (instruction.jt, instruction.jf):
                    target = pc + 1 + displacement
                    if not 0 <= target < size:
                        raise BpfVerifyError(
                            f"pc {pc}: branch target {target} out of range")
        elif klass == BPF_RET:
            pass
        elif klass == BPF_MISC:
            pass
        else:  # pragma: no cover - klass() is 3 bits, all covered
            raise BpfVerifyError(f"pc {pc}: unknown class {klass}")
    last = program[-1]
    if last.klass() != BPF_RET:
        raise BpfVerifyError("filter does not end in RET")
