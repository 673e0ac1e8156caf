"""The Alpha semantics at the word edges.

Each operate has one meaning, the :mod:`repro.logic.terms` operator that
:data:`~repro.alpha.isa.OPERATE_NAMES` names, and each branch one test,
:func:`~repro.alpha.isa.branch_taken`.  Every executor must agree with
them where wrap-around, sign, shift-count and byte-lane behaviour turn
over: the reference machine, the block engine (plain and with the
Figure 3 checks), the batch driver, and the interval domain's
both-constant case.  The Hypothesis suites draw random words, which
rarely land on these edges.
"""

import struct

import pytest

from repro.alpha.abstract import abstract_engine
from repro.alpha.batch import FramePlan, compile_batch
from repro.alpha.engine import ExecutionEngine
from repro.alpha.isa import (
    BRANCH_NAMES,
    OPERATE_NAMES,
    Branch,
    Lda,
    Ldq,
    Lit,
    Operate,
    Reg,
    Ret,
    branch_taken,
    operate,
)
from repro.alpha.machine import Machine, Memory
from repro.analysis.intervals import const, operate_interval
from repro.filters.policy import (
    PACKET_BASE,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    filter_registers,
    reusable_packet_memory,
)
from repro.logic.terms import OPS

#: Register operands at the wrap, sign, 32-bit and shift-count edges.
WORDS = (0, 1, 7, 8, 63, 64, 255, 1 << 31, (1 << 32) - 1, 1 << 32,
         (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 2,
         (1 << 64) - 1)

#: Literal operands crossing the shift-count (6-bit) and byte-lane
#: (3-bit) fields.
LITERALS = (0, 1, 7, 8, 31, 32, 63, 64, 127, 128, 255)

#: Branch operands at the zero and sign edges.
BRANCH_WORDS = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)

PLAN = FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE)
FORMS = pytest.mark.parametrize("literal", [False, True],
                                ids=["register", "literal"])


def _logic(name: str, a: int, b: int) -> int:
    return OPS[OPERATE_NAMES[name]].evaluate(a, b)


def _programs(literal: bool):
    """``(rb operand, the b values it stands for)`` per program."""
    if literal:
        return [(Lit(k), (k,)) for k in LITERALS]
    return [(Reg(5), WORDS)]


def _no_access(_address: int) -> bool:
    return False


@FORMS
@pytest.mark.parametrize("name", sorted(OPERATE_NAMES))
def test_executors_agree_with_the_logic(name, literal):
    for rb, seconds in _programs(literal):
        program = (Operate(name, Reg(4), rb, Reg(0)), Ret())
        engine = ExecutionEngine(program)
        checked = abstract_engine(program, _no_access, _no_access)
        for a in WORDS:
            for b in seconds:
                expected = _logic(name, a, b)
                registers = {4: a, 5: b}
                machine = Machine(program, Memory(), registers).run()
                result = engine.run(Memory(), registers)
                assert machine.value == expected, (name, a, b)
                assert result.value == expected, (name, a, b)
                assert type(result.value) is int, (name, a, b)
                assert checked.run(Memory(), registers).value == expected, \
                    (name, a, b)


@FORMS
@pytest.mark.parametrize("name", sorted(OPERATE_NAMES))
def test_batch_driver_agrees_with_the_logic(name, literal):
    """The driver loads ``a``, ``b`` and the expected word from the
    frame and returns ``CMPEQ`` of its result against the expected."""
    for rb, seconds in _programs(literal):
        program = (Ldq(Reg(4), 0, Reg(1)), Ldq(Reg(5), 8, Reg(1)),
                   Operate(name, Reg(4), rb, Reg(6)),
                   Ldq(Reg(7), 16, Reg(1)),
                   Operate("CMPEQ", Reg(6), Reg(7), Reg(0)), Ret())
        runner = compile_batch(program, None, PLAN)
        assert runner is not None
        wrong = [(a, b) for a in WORDS for b in seconds
                 if runner.run([struct.pack("<QQQ", a, b,
                                            _logic(name, a, b))])[1] != 1]
        assert not wrong, f"{name}: {wrong}"


@pytest.mark.parametrize("shift", [0, 1], ids=["word", "below-sign"])
@pytest.mark.parametrize("name", BRANCH_NAMES)
def test_branches_take_the_edge_branch_taken_names(name, shift):
    """r0 is 1 on the taken edge and 0 on the fall-through.  Shifting
    the operand right by one puts it below 2**63, where the driver
    reduces the signed tests to (non)zero tests."""
    program = (Ldq(Reg(4), 0, Reg(1)),
               Operate("SRL", Reg(4), Lit(shift), Reg(4)),
               Branch(name, Reg(4), 1), Ret(),
               Lda(Reg(0), 1, Reg(0)), Ret())
    engine = ExecutionEngine(program)
    runner = compile_batch(program, None, PLAN)
    memory, rebind = reusable_packet_memory()
    for value in BRANCH_WORDS:
        frame = struct.pack("<Q", value)
        expected = int(branch_taken(name, value >> shift))
        rebind(frame)
        assert engine.run(memory, filter_registers(len(frame))).value \
            == expected, (name, value)
        assert runner.run([frame])[1] == expected, (name, value)


@pytest.mark.parametrize("name", sorted(OPERATE_NAMES))
def test_interval_constant_case_is_exact(name):
    for a in WORDS:
        for b in WORDS + LITERALS:
            assert operate_interval(name, const(a), const(b)) \
                == const(operate(name, a, b)), (name, a, b)
