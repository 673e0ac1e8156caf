"""Random program generators shared by the property-based suites.

Two flavours:

* :func:`random_filter_source` emits assembly *source* for well-formed
  packet filters whose memory accesses stay inside the policy's
  guaranteed window — these usually certify, so the certification and
  safety-theorem suites use them (``tests/pcc/test_random_programs.py``).
  :func:`random_kv_source` and :func:`random_kv_loop_source` are the
  store-bearing counterparts under the KV policy, the latter with a
  bounded table scan.
* :func:`random_machine_program` emits raw instruction tuples with no
  safety discipline at all: unsafe displacements, unaligned addresses,
  backward branches (loops), and out-of-range branch targets.  These
  exist to exercise every execution path — normal results, machine
  errors, abstract-machine blocking, and the step limit — so the
  differential engine suite can compare the reference interpreter and
  the threaded-code engine on the full outcome space.
"""

from __future__ import annotations

import random

from repro.alpha.isa import (
    BRANCH_NAMES,
    NUM_REGS,
    OPERATE_NAMES,
    Br,
    Branch,
    Lda,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Program,
    Reg,
    Ret,
    Stq,
)

_SAFE_OFFSETS = (0, 8, 16, 24, 32, 40, 48, 56)
_OPERATES = tuple(OPERATE_NAMES)

#: Displacements mixing in-bounds, unaligned, and far-out-of-bounds
#: accesses (relative to a 128-byte buffer based in r1).
_WILD_DISPS = _SAFE_OFFSETS + (4, 12, -8, -16, 120, 128, 1024)


def random_filter_source(rng: random.Random, blocks: int) -> str:
    """A random well-formed filter: loads at safe constant offsets, ALU
    scrambling, forward branches."""
    lines = []
    for index in range(blocks):
        label = f"b{index}"
        choice = rng.randrange(4)
        reg = rng.randrange(4, 8)
        if choice == 0:
            lines.append(f"LDQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 1:
            lines.append(f"ADDQ r{reg}, {rng.randrange(256)}, r{reg}")
        elif choice == 2:
            lines.append(
                f"EXTBL r{reg}, {rng.randrange(8)}, r{rng.randrange(4, 8)}")
        else:
            lines.append(f"BEQ r{reg}, {label}")
            lines.append(f"LDQ r{rng.randrange(4, 8)}, "
                         f"{rng.choice(_SAFE_OFFSETS)}(r1)")
            lines.append(f"{label}: SUBQ r0, r0, r0")
    lines.append("CMPEQ r4, r5, r0")
    lines.append("RET")
    return "\n".join(lines)


#: Aligned state-area offsets inside the KV policy's 160-byte window.
_STATE_OFFSETS = (0, 8, 16, 24, 64, 120, 128, 152)


def random_kv_source(rng: random.Random, blocks: int) -> str:
    """A random well-formed *store-bearing* program under the KV
    policy: loads and stores at safe constant offsets in the packet
    (``r1``, below the guaranteed 64-byte minimum) and the state area
    (``r3``), ALU scrambling, forward branches."""
    lines = []
    for index in range(blocks):
        label = f"kb{index}"
        choice = rng.randrange(6)
        reg = rng.randrange(4, 8)
        if choice == 0:
            lines.append(f"LDQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 1:
            lines.append(f"LDQ r{reg}, {rng.choice(_STATE_OFFSETS)}(r3)")
        elif choice == 2:
            lines.append(f"STQ r{reg}, {rng.choice(_STATE_OFFSETS)}(r3)")
        elif choice == 3:
            lines.append(f"STQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 4:
            lines.append(f"ADDQ r{reg}, {rng.randrange(256)}, r{reg}")
        else:
            lines.append(f"BEQ r{reg}, {label}")
            lines.append(f"STQ r{rng.randrange(4, 8)}, "
                         f"{rng.choice(_STATE_OFFSETS)}(r3)")
            lines.append(f"{label}: SUBQ r0, r0, r0")
    lines.append("CMPEQ r4, r5, r0")
    lines.append("RET")
    return "\n".join(lines)


def random_kv_loop_source(rng: random.Random, body: int = 4) -> str:
    """A random *looping* store-bearing program under the KV policy: a
    bounded scan of the state area (``r4`` steps by 8 — sometimes by 16,
    or by an unaligned 12 that faults on the second pass — up to a
    random bound at most 160) whose body loads the scanned slot, then
    stores and reloads it, loads and stores fixed state words and fixed
    packet words (below the guaranteed 64-byte minimum), scrambles and
    counts, compares the scan offset against a literal, with forward
    branches inside the body and an early exit to a tail that stores
    before returning."""
    bound = rng.choice((8, 32, 64, 128, 152, 160))
    step = rng.choice((8, 8, 8, 16, 12))
    lines = ["SUBQ r0, r0, r0", "SUBQ r4, r4, r4", "BR check",
             "loop: ADDQ r3, r4, r5", "LDQ r6, 0(r5)"]
    for index in range(body):
        reg = rng.randrange(6, 9)
        choice = rng.randrange(9)
        if choice == 0:
            lines.append(f"STQ r{reg}, 0(r5)")
        elif choice == 7:
            lines.append(f"LDQ r{reg}, 0(r5)")
        elif choice == 8:
            lines.append(f"CMP{rng.choice(('ULT', 'ULE', 'EQ'))} r4, "
                         f"{rng.randrange(0, 168, 4)}, r{reg}")
            lines.append(f"BNE r{reg}, skip{index}")
            lines.append(f"STQ r4, {rng.choice(_STATE_OFFSETS)}(r3)")
            lines.append(f"skip{index}: ADDQ r4, 0, r{reg}")
        elif choice == 1:
            lines.append(f"LDQ r{reg}, {rng.choice(_STATE_OFFSETS)}(r3)")
        elif choice == 2:
            lines.append(f"STQ r{reg}, {rng.choice(_STATE_OFFSETS)}(r3)")
        elif choice == 3:
            lines.append(f"LDQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 4:
            lines.append(f"STQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 5:
            lines.append(f"ADDQ r{reg}, {rng.randrange(256)}, r{reg}")
            lines.append("ADDQ r0, 1, r0")
        else:
            lines.append(f"BEQ r{reg}, skip{index}")
            lines.append(f"STQ r6, {rng.choice(_STATE_OFFSETS)}(r3)")
            lines.append(f"skip{index}: EXTBL r6, {rng.randrange(8)}, "
                         f"r{reg}")
    lines.append(f"CMPEQ r{rng.randrange(6, 9)}, {rng.randrange(4)}, r9")
    lines.append("BNE r9, found")
    lines.append(f"ADDQ r4, {step}, r4")
    lines.append(f"check: CMPULT r4, {bound}, r10")
    lines.append("BNE r10, loop")
    lines.append("RET")
    lines.append(f"found: STQ r4, {rng.choice(_STATE_OFFSETS)}(r3)")
    lines.append(f"STQ r0, {rng.choice(_SAFE_OFFSETS)}(r1)")
    lines.append("LDA r0, 1(r4)")
    lines.append("RET")
    return "\n".join(lines)


def _random_reg(rng: random.Random) -> Reg:
    return Reg(rng.randrange(NUM_REGS))


def _base_reg(rng: random.Random) -> Reg:
    # Mostly r1 (the mapped buffer); sometimes arbitrary registers whose
    # contents produce unmapped or unaligned addresses.
    return Reg(rng.choice((1, 1, 1, 1, 2, rng.randrange(NUM_REGS))))


def random_machine_program(rng: random.Random, length: int) -> Program:
    """A random raw program covering the whole outcome space (see module
    docstring); always ends in RET, but earlier RETs, loops, and invalid
    branch targets all occur."""
    instructions = []
    for pc in range(length):
        choice = rng.randrange(10)
        if choice < 4:
            rb = (Lit(rng.randrange(256)) if rng.random() < 0.5
                  else _random_reg(rng))
            instructions.append(Operate(rng.choice(_OPERATES),
                                        _random_reg(rng), rb,
                                        _random_reg(rng)))
        elif choice == 4:
            instructions.append(Ldq(_random_reg(rng),
                                    rng.choice(_WILD_DISPS),
                                    _base_reg(rng)))
        elif choice == 5:
            instructions.append(Stq(_random_reg(rng),
                                    rng.choice(_WILD_DISPS),
                                    _base_reg(rng)))
        elif choice == 6:
            instructions.append(Lda(_random_reg(rng),
                                    rng.randrange(-64, 64),
                                    _random_reg(rng)))
        elif choice == 7:
            instructions.append(Ldah(_random_reg(rng),
                                     rng.randrange(-4, 4),
                                     _random_reg(rng)))
        elif choice == 8:
            # Offsets span backward loops, forward skips, and targets
            # past either end of the program.
            instructions.append(Branch(rng.choice(BRANCH_NAMES),
                                       _random_reg(rng),
                                       rng.randrange(-4, length + 2)))
        else:
            if rng.random() < 0.3:
                instructions.append(Ret())
            else:
                instructions.append(Br(rng.randrange(-4, length + 2)))
    instructions.append(Ret())
    return tuple(instructions)
