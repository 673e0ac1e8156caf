"""DEC Alpha subset: ISA, assembler, binary encoding, and two machines.

This package is the native-code substrate of the reproduction.  It models
the subset of the Alpha architecture the paper uses (Figure 2, extended with
the byte-manipulation and compare instructions the hand-tuned filters need):

* :mod:`repro.alpha.isa` — instruction data types, register conventions,
  and the one statement of what each instruction means (the operators,
  the branch tests, the code-generation table, the block successors),
* :mod:`repro.alpha.parser` — the assembly-language front end,
* :mod:`repro.alpha.encoding` — real 32-bit Alpha instruction encodings,
* :mod:`repro.alpha.machine` — the concrete processor (no safety checks),
* :mod:`repro.alpha.abstract` — the paper's abstract machine (Figure 3),
  which blocks on any rd()/wr() safety-check failure,
* :mod:`repro.alpha.engine` — the execution engine: the same semantics
  as both machines (checks are a decode-time parameter), compiled into
  basic-block functions for the perf harness, with the block that would
  cross the step limit stepped on the reference machine.
"""

from repro.alpha.isa import (
    NUM_REGS,
    Lit,
    Reg,
    Operate,
    Lda,
    Ldah,
    Ldq,
    Stq,
    Branch,
    Br,
    Ret,
    Instruction,
    Program,
    OPERATE_NAMES,
    BRANCH_NAMES,
)
from repro.alpha.parser import parse_program, format_program
from repro.alpha.encoding import encode_program, decode_program
from repro.alpha.machine import Machine, Memory, MachineResult
from repro.alpha.abstract import AbstractMachine, abstract_engine, run_abstract
from repro.alpha.engine import ExecutionEngine, compile_program

__all__ = [
    "NUM_REGS",
    "Lit",
    "Reg",
    "Operate",
    "Lda",
    "Ldah",
    "Ldq",
    "Stq",
    "Branch",
    "Br",
    "Ret",
    "Instruction",
    "Program",
    "OPERATE_NAMES",
    "BRANCH_NAMES",
    "parse_program",
    "format_program",
    "encode_program",
    "decode_program",
    "Machine",
    "Memory",
    "MachineResult",
    "AbstractMachine",
    "abstract_engine",
    "run_abstract",
    "ExecutionEngine",
    "compile_program",
]
