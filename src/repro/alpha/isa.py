"""Instruction set for the DEC Alpha subset used by the paper.

The paper (Figure 2) restricts programs to 11 temporary / caller-save
registers, renamed ``r0`` .. ``r10``; reserved and callee-save registers
cannot be written, which makes programs trivially safe with respect to
them.  We keep the same convention: register operands are small integers in
``range(NUM_REGS)`` and the encoder maps them onto real Alpha register
numbers.

Instruction kinds:

================  =========================================================
:class:`Operate`  register-to-register ALU (ADDQ, SUBQ, AND, BIS, XOR,
                  SLL, SRL, MULQ, CMPEQ, CMPULT, CMPULE, EXTBL, EXTWL,
                  EXTLL); the second operand is a register or an 8-bit
                  literal, as on the real machine
:class:`Lda`      load address: ``rd := rs (+) sext(disp16)``
:class:`Ldah`     load address high: ``rd := rs (+) (sext(disp16) << 16)``
:class:`Ldq`      load quadword, 8-byte aligned
:class:`Stq`      store quadword, 8-byte aligned
:class:`Branch`   conditional branch (BEQ, BNE, BGE, BLT, BGT, BLE);
                  displacement is in instructions relative to pc+1
:class:`Br`       unconditional branch
:class:`Ret`      return to the kernel
================  =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import AssemblyError

#: The paper's 11 temporary registers, r0 .. r10.
NUM_REGS = 11

#: Value-producing operate instructions and the logic operator that gives
#: their semantics (see :mod:`repro.logic.terms`).
OPERATE_NAMES: dict[str, str] = {
    "ADDQ": "add64",
    "SUBQ": "sub64",
    "MULQ": "mul64",
    "AND": "and64",
    "BIS": "or64",   # Alpha's name for OR
    "XOR": "xor64",
    "SLL": "sll64",
    "SRL": "srl64",
    "CMPEQ": "cmpeq",
    "CMPULT": "cmpult",
    "CMPULE": "cmpule",
    "EXTBL": "extbl",
    "EXTWL": "extwl",
    "EXTLL": "extll",
}

#: Conditional branch mnemonics.  BGE/BLT/BGT/BLE test the *signed* value
#: of the register, i.e. its two's-complement interpretation.
BRANCH_NAMES = ("BEQ", "BNE", "BGE", "BLT", "BGT", "BLE")


@dataclass(frozen=True, slots=True)
class Reg:
    """A register operand, ``r0`` .. ``r10``."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_REGS:
            raise AssemblyError(
                f"register index {self.index} out of range 0..{NUM_REGS - 1}")

    def __str__(self) -> str:
        return f"r{self.index}"


@dataclass(frozen=True, slots=True)
class Lit:
    """An 8-bit literal operand (the Alpha operate-format literal)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255:
            raise AssemblyError(
                f"operate literal {self.value} out of range 0..255")

    def __str__(self) -> str:
        return str(self.value)


RegOrLit = Union[Reg, Lit]


def _check_disp16(disp: int) -> None:
    if not -(1 << 15) <= disp < (1 << 15):
        raise AssemblyError(f"16-bit displacement {disp} out of range")


@dataclass(frozen=True, slots=True)
class Operate:
    """``name ra, rb_or_lit, rc`` — ``rc := ra <op> rb_or_lit``."""

    name: str
    ra: Reg
    rb: RegOrLit
    rc: Reg

    def __post_init__(self) -> None:
        if self.name not in OPERATE_NAMES:
            raise AssemblyError(f"unknown operate instruction {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name} {self.ra}, {self.rb}, {self.rc}"


@dataclass(frozen=True, slots=True)
class Lda:
    """``LDA rd, disp(rs)`` — ``rd := rs (+) sext(disp)``.

    With ``rs`` equal to a register holding 0 this is the standard Alpha
    idiom for loading a 16-bit constant.
    """

    rd: Reg
    disp: int
    rs: Reg

    def __post_init__(self) -> None:
        _check_disp16(self.disp)

    def __str__(self) -> str:
        return f"LDA {self.rd}, {self.disp}({self.rs})"


@dataclass(frozen=True, slots=True)
class Ldah:
    """``LDAH rd, disp(rs)`` — ``rd := rs (+) (sext(disp) << 16)``."""

    rd: Reg
    disp: int
    rs: Reg

    def __post_init__(self) -> None:
        _check_disp16(self.disp)

    def __str__(self) -> str:
        return f"LDAH {self.rd}, {self.disp}({self.rs})"


@dataclass(frozen=True, slots=True)
class Ldq:
    """``LDQ rd, disp(rs)`` — load the quadword at ``rs (+) sext(disp)``."""

    rd: Reg
    disp: int
    rs: Reg

    def __post_init__(self) -> None:
        _check_disp16(self.disp)

    def __str__(self) -> str:
        return f"LDQ {self.rd}, {self.disp}({self.rs})"


@dataclass(frozen=True, slots=True)
class Stq:
    """``STQ rs, disp(rd)`` — store ``rs`` at ``rd (+) sext(disp)``."""

    rs: Reg
    disp: int
    rd: Reg

    def __post_init__(self) -> None:
        _check_disp16(self.disp)

    def __str__(self) -> str:
        return f"STQ {self.rs}, {self.disp}({self.rd})"


@dataclass(frozen=True, slots=True)
class Branch:
    """``name rs, offset`` — conditional branch to ``pc + 1 + offset``.

    The offset is stored in instruction units, exactly as in the Alpha
    branch format.  Positive offsets are forward branches; negative offsets
    (loops) require a loop invariant at the target.
    """

    name: str
    rs: Reg
    offset: int

    def __post_init__(self) -> None:
        if self.name not in BRANCH_NAMES:
            raise AssemblyError(f"unknown branch instruction {self.name!r}")
        if not -(1 << 20) <= self.offset < (1 << 20):
            raise AssemblyError(f"branch offset {self.offset} out of range")

    def __str__(self) -> str:
        return f"{self.name} {self.rs}, {self.offset:+d}"


@dataclass(frozen=True, slots=True)
class Br:
    """``BR offset`` — unconditional branch to ``pc + 1 + offset``."""

    offset: int

    def __post_init__(self) -> None:
        if not -(1 << 20) <= self.offset < (1 << 20):
            raise AssemblyError(f"branch offset {self.offset} out of range")

    def __str__(self) -> str:
        return f"BR {self.offset:+d}"


@dataclass(frozen=True, slots=True)
class Ret:
    """Return to the code consumer; the result is in ``r0``."""

    def __str__(self) -> str:
        return "RET"


Instruction = Union[Operate, Lda, Ldah, Ldq, Stq, Branch, Br, Ret]

#: A program is the instruction vector Pi of the paper.
Program = tuple[Instruction, ...]


def branch_target(pc: int, instruction: Branch | Br) -> int:
    """Target pc of a branch at position ``pc``."""
    return pc + 1 + instruction.offset


def block_partition(program: Program) -> list[tuple[int, int]]:
    """The basic blocks of ``program`` as ``(start, end)`` pc ranges in
    pc order, ``end`` exclusive.

    Leaders are pc 0, every in-range branch target, and the pc after
    every control transfer; each block runs up to the next leader, so a
    control transfer can only end a block.  Out-of-range targets are not
    leaders: the machines fault there.  The execution engine, the batch
    drivers and the static analyzer's CFG all use this one partition, so
    the block-entry cycle charges they see — and the budgets derived
    from them — agree.
    """
    size = len(program)
    if size == 0:
        return []
    leaders = {0}
    for pc, instruction in enumerate(program):
        if isinstance(instruction, (Branch, Br)):
            target = branch_target(pc, instruction)
            if 0 <= target < size:
                leaders.add(target)
        if isinstance(instruction, (Branch, Br, Ret)) and pc + 1 < size:
            leaders.add(pc + 1)
    starts = sorted(leaders)
    return list(zip(starts, starts[1:] + [size]))


def written_register(instruction: Instruction) -> int | None:
    """Index of the register written by ``instruction``, if any."""
    if isinstance(instruction, Operate):
        return instruction.rc.index
    if isinstance(instruction, (Lda, Ldah, Ldq)):
        return instruction.rd.index
    return None


def read_registers(instruction: Instruction) -> set[int]:
    """Indices of registers read by ``instruction``."""
    if isinstance(instruction, Operate):
        regs = {instruction.ra.index}
        if isinstance(instruction.rb, Reg):
            regs.add(instruction.rb.index)
        return regs
    if isinstance(instruction, (Lda, Ldah, Ldq)):
        return {instruction.rs.index}
    if isinstance(instruction, Stq):
        return {instruction.rs.index, instruction.rd.index}
    if isinstance(instruction, Branch):
        return {instruction.rs.index}
    return set()


def validate_program(program: Program) -> None:
    """Structural sanity checks shared by both machines and the VC
    generator: every branch lands inside the program and the final
    instruction cannot fall off the end."""
    size = len(program)
    if size == 0:
        raise AssemblyError("empty program")
    for pc, instruction in enumerate(program):
        if isinstance(instruction, (Branch, Br)):
            target = branch_target(pc, instruction)
            if not 0 <= target < size:
                raise AssemblyError(
                    f"branch at pc={pc} targets {target}, outside program "
                    f"of {size} instructions")
    last = program[-1]
    if not isinstance(last, (Ret, Br, Branch)):
        raise AssemblyError(
            "control can fall off the end of the program; the final "
            "instruction must be RET or a branch")
    if isinstance(last, Branch):
        # A conditional branch as the last instruction falls through on the
        # not-taken path, which runs off the end.
        raise AssemblyError(
            "the final instruction is a conditional branch whose "
            "fall-through path leaves the program")
