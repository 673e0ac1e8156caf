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

Each instruction's meaning is stated here once: :func:`operate` (the
logic operator :data:`OPERATE_NAMES` names) and :func:`branch_taken` are
the concrete semantics every machine and constant fold applies,
:data:`OPERATE_PY` and :data:`BRANCH_PY` the one code-generation table,
and :func:`block_partition` and :func:`block_exits` the block structure
and successor rule every executor and the static analyzer share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import AssemblyError
from repro.logic.terms import OPS, WORD_MASK

#: The paper's 11 temporary registers, r0 .. r10.
NUM_REGS = 11

_SIGN_BIT = 1 << 63

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


def operate(name: str, a: int, b: int) -> int:
    """The word operate ``name`` computes from words ``a`` and ``b``: the
    logic operator :data:`OPERATE_NAMES` gives it, so the machines, the
    code generators' constant folds and the VC rules share one meaning."""
    return OPS[OPERATE_NAMES[name]].evaluate(a, b)


def branch_taken(name: str, value: int) -> bool:
    """Whether branch ``name`` on the register word ``value`` is taken;
    BGE/BLT/BGT/BLE test the signed interpretation."""
    signed_negative = bool(value & _SIGN_BIT)
    if name == "BEQ":
        return value == 0
    if name == "BNE":
        return value != 0
    if name == "BGE":
        return not signed_negative
    if name == "BLT":
        return signed_negative
    if name == "BGT":
        return not signed_negative and value != 0
    if name == "BLE":
        return signed_negative or value == 0
    raise AssemblyError(  # pragma: no cover - Branch rejects the name
        f"unknown branch instruction {name!r}")


# The code-generation table: one Python expression per mnemonic, which
# the execution engine and the batch drivers emit.  Operands are
# register locals or literals holding words below 2**64, so the
# expressions compute :func:`operate` and :func:`branch_taken` exactly
# (the semantics tests hold them to it at the word edges).  A literal
# operand folds at compile time: CPython turns ``8 * (5 & 7)`` into 40.
_M = str(WORD_MASK)
_S = str(_SIGN_BIT)

#: The value of each operate over the operands ``{a}`` and ``{b}``.
#: Compares are ``int``-valued, as the register file holds them.
OPERATE_PY: dict[str, str] = {
    "ADDQ": "({a} + {b}) & " + _M,
    "SUBQ": "({a} - {b}) & " + _M,
    "MULQ": "({a} * {b}) & " + _M,
    "AND": "{a} & {b}",
    "BIS": "{a} | {b}",
    "XOR": "{a} ^ {b}",
    "SLL": "({a} << ({b} & 63)) & " + _M,
    "SRL": "{a} >> ({b} & 63)",
    "CMPEQ": "1 if {a} == {b} else 0",
    "CMPULT": "1 if {a} < {b} else 0",
    "CMPULE": "1 if {a} <= {b} else 0",
    "EXTBL": "({a} >> (8 * ({b} & 7))) & 0xFF",
    "EXTWL": "({a} >> (8 * ({b} & 7))) & 0xFFFF",
    "EXTLL": "({a} >> (8 * ({b} & 7))) & 0xFFFFFFFF",
}

#: The taken-test of each conditional branch on the register ``{s}``;
#: registers are ints, so truthiness is exactly ``!= 0``.
BRANCH_PY: dict[str, str] = {
    "BEQ": "not {s}",
    "BNE": "{s}",
    "BGE": "{s} < " + _S,
    "BLT": "{s} >= " + _S,
    "BGT": "0 < {s} < " + _S,
    "BLE": "{s} >= " + _S + " or {s} == 0",
}


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


def block_exits(program: Program, end: int) -> tuple[int | None, int | None]:
    """The successor pcs of the block ending at ``end`` (exclusive), as
    ``(taken, fall_through)``.

    ``taken`` is the target of a terminating ``BR`` or conditional
    branch; ``fall_through`` is ``end`` when control can run on into the
    next leader (a conditional branch not taken, or a block cut by the
    next leader).  Each is ``None`` where the block has no such exit —
    both for ``RET``.  Either may lie outside the program, where the
    machines fault.
    """
    last = program[end - 1]
    if isinstance(last, Ret):
        return None, None
    if isinstance(last, Br):
        return branch_target(end - 1, last), None
    if isinstance(last, Branch):
        return branch_target(end - 1, last), end
    return None, end


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
