"""Unit tests for the block-compiled engine (code cache, trap slots, the
step-limit tail on the reference machine, budgets, and the reusable
kernel memories)."""

import struct

import pytest

from repro.alpha.abstract import AbstractMachine, abstract_engine
from repro.alpha.engine import (
    ExecutionEngine,
    clear_code_cache,
    code_cache_size,
)
from repro.alpha.isa import Ret
from repro.alpha.machine import Machine, Memory
from repro.alpha.parser import parse_program
from repro.errors import BudgetExceeded, MachineError, SafetyViolation
from repro.baselines.sfi.policy import (
    reusable_sfi_memory,
    sfi_memory,
    sfi_registers,
)
from repro.filters.policy import (
    filter_registers,
    packet_memory,
    reusable_packet_memory,
)
from repro.perf.cost import ALPHA_175


def _outcome(thunk):
    """A run's result, or the type and message of the error it raised."""
    try:
        return ("result", thunk())
    except MachineError as error:
        return (type(error).__name__, str(error))


def _table_memory():
    memory = Memory()
    memory.map_region(0x1000, bytes(range(48)), writable=True, name="table")
    return memory


def _engine_run(source, registers=None, memory=None, **kwargs):
    memory = memory if memory is not None else Memory()
    engine = ExecutionEngine(parse_program(source), **kwargs)
    return engine.run(memory, registers or {})


class TestEngineSemantics:
    def test_result_fields_match_reference(self):
        source = "ADDQ r1, 2, r0\nMULQ r0, r0, r0\nRET"
        reference = Machine(parse_program(source), Memory(), {1: 5},
                            cost_model=ALPHA_175).run()
        threaded = _engine_run(source, {1: 5}, cost_model=ALPHA_175)
        assert threaded == reference
        assert threaded.value == 49

    def test_memory_effects_visible(self):
        memory = Memory()
        memory.map_region(0x1000, struct.pack("<QQ", 5, 0), writable=True,
                          name="table")
        result = _engine_run("""
            LDQ  r2, 0(r1)
            ADDQ r2, 1, r2
            STQ  r2, 8(r1)
            LDQ  r0, 8(r1)
            RET
        """, {1: 0x1000}, memory)
        assert result.value == 6
        assert memory.load_quad(0x1008) == 6

    def test_run_program_one_shot(self):
        result = ExecutionEngine(parse_program("ADDQ r1, 1, r0\nRET")).run(
            Memory(), {1: 41})
        assert result.value == 42

    def test_branch_to_invalid_target_is_reference_identical(self):
        from repro.alpha.isa import Branch, Reg
        program = (Branch("BEQ", Reg(1), 50), Ret())
        machine_error = None
        try:
            Machine(program, Memory(), {1: 0}).run()
        except MachineError as error:
            machine_error = str(error)
        with pytest.raises(MachineError) as info:
            ExecutionEngine(program).run(Memory(), {1: 0})
        assert str(info.value) == machine_error

    def test_empty_program_trap(self):
        with pytest.raises(MachineError) as info:
            ExecutionEngine(()).run(Memory())
        assert "pc 0" in str(info.value)

    def test_step_limit_boundary_matches_reference(self):
        """Sweep max_steps across looping programs so the limit lands at
        every offset inside a compiled block.  The block that would cross
        the limit steps on the reference machine, so outcomes and memory
        post-state match it exactly: for the concrete engine, and for the
        abstract engine over a loop whose checked LDQ and STQ pass the
        rd()/wr() checks (first predicate pair) or get stuck on the last
        store (second)."""
        source = "\n".join(["ADDQ r0, 1, r0"] * 6
                           + ["top: SUBQ r0, 1, r0", "BNE r0, top", "RET"])
        program = parse_program(source)
        for max_steps in range(1, 30):
            expected = _outcome(lambda: Machine(
                program, Memory(), {}, max_steps=max_steps).run())
            actual = _outcome(lambda: ExecutionEngine(
                program, max_steps=max_steps).run(Memory()))
            assert actual == expected, f"max_steps={max_steps}"

        checked = parse_program("""
            top: LDQ  r2, 0(r1)
                 ADDQ r2, r0, r2
                 STQ  r2, 8(r1)
                 ADDQ r1, 8, r1
                 SUBQ r3, 1, r3
                 BNE  r3, top
                 ADDQ r2, 0, r0
                 RET
        """)
        registers = {1: 0x1000, 3: 4}

        def in_table(address):
            return 0x1000 <= address < 0x1028

        for can_write in (in_table, lambda address: address < 0x1020):
            for max_steps in range(1, 30):
                reference, engine = _table_memory(), _table_memory()
                expected = _outcome(lambda: AbstractMachine(
                    checked, reference, in_table, can_write, registers,
                    max_steps=max_steps).run())
                actual = _outcome(lambda: abstract_engine(
                    checked, in_table, can_write,
                    max_steps=max_steps).run(engine, registers))
                assert actual == expected, f"max_steps={max_steps}"
                assert engine.region("table") == reference.region("table")
        assert expected[0] == "SafetyViolation"

    def test_budget_charged_whole_at_the_crossing_block(self):
        """The block that would cross the step limit is charged whole at
        entry, like every other block: ``run`` and ``run_batch`` raise
        the same BudgetExceeded with the block-entry clock, although the
        step limit would stop the block before its last cycle."""
        program = parse_program(
            "\n".join(["top: ADDQ r0, 1, r0"] + ["ADDQ r0, 1, r0"] * 4
                      + ["BR top"]))
        engine = ExecutionEngine(program, max_steps=10)
        with pytest.raises(BudgetExceeded) as single:
            engine.run(Memory(), cycle_budget=11)
        memory, rebind = reusable_packet_memory()
        done, accepted, pairs, batched = engine.run_batch(
            memory, rebind, [bytes(64)], filter_registers, 0, 11)
        assert (done, accepted, pairs) == (0, 0, [])
        for error in (single.value, batched):
            assert type(error) is BudgetExceeded
            assert (error.budget, error.cycles, error.steps) == (11, 12, 6)
        assert str(batched) == str(single.value)
        # Within budget, the block steps on the reference to the limit.
        with pytest.raises(MachineError, match="exceeded 10 steps"):
            engine.run(Memory(), cycle_budget=12)


class TestCodeCache:
    def test_unchecked_translations_shared(self):
        clear_code_cache()
        program = parse_program("ADDQ r0, 1, r0\nRET")
        first = ExecutionEngine(program, cost_model=ALPHA_175)
        second = ExecutionEngine(program, cost_model=ALPHA_175)
        assert code_cache_size() == 1
        assert first._code is second._code

    def test_checked_translations_not_cached(self):
        clear_code_cache()
        program = parse_program("LDQ r0, 0(r1)\nRET")
        abstract_engine(program, lambda a: True, lambda a: False)
        assert code_cache_size() == 0

    def test_unhashable_cost_model_still_compiles(self):
        class Weird:
            __hash__ = None

            def cycles(self, instruction):
                return 2

        result = ExecutionEngine(parse_program("RET"),
                                 cost_model=Weird()).run(Memory())
        assert result.cycles == 2


class TestAbstractEngine:
    def test_blocks_like_abstract_machine(self):
        memory1 = Memory()
        memory1.map_region(0, bytes(64), name="buf")
        memory2 = Memory()
        memory2.map_region(0, bytes(64), name="buf")
        program = parse_program("ADDQ r1, 0, r2\nLDQ r0, 8(r2)\nRET")
        reference = AbstractMachine(program, memory1, lambda a: False,
                                    lambda a: False, {1: 0})
        with pytest.raises(SafetyViolation) as expected:
            reference.run()
        engine = abstract_engine(program, lambda a: False, lambda a: False)
        with pytest.raises(SafetyViolation) as actual:
            engine.run(memory2, {1: 0})
        assert str(actual.value) == str(expected.value)
        assert actual.value.pc == expected.value.pc == 1
        assert actual.value.address == expected.value.address


class TestReusableMemories:
    def test_packet_rebind_equals_fresh_memory(self):
        program = parse_program("LDQ r4, 0(r1)\nLDQ r5, 0(r3)\n"
                                "ADDQ r4, r5, r0\nRET")
        engine = ExecutionEngine(program)
        memory, rebind = reusable_packet_memory()
        for size in (60, 64, 72, 61):
            packet = bytes((i * 7 + size) & 0xFF for i in range(size))
            rebind(packet)
            reused = engine.run(memory, filter_registers(size))
            fresh = engine.run(packet_memory(packet), filter_registers(size))
            assert reused == fresh

    def test_packet_rebind_rezeroes_scratch(self):
        program = parse_program("ADDQ r2, 0, r4\nSTQ r4, 0(r3)\n"
                                "LDQ r0, 0(r3)\nRET")
        engine = ExecutionEngine(program)
        memory, rebind = reusable_packet_memory()
        rebind(bytes(64))
        assert engine.run(memory, filter_registers(64)).value == 64
        rebind(bytes(60))
        assert memory.load_quad(
            filter_registers(60)[3]) == 0  # scratch cleared

    def test_packet_region_stays_read_only(self):
        memory, rebind = reusable_packet_memory()
        rebind(bytes(64))
        base = filter_registers(64)[1]
        with pytest.raises(MachineError):
            memory.store_quad(base, 1)

    def test_sfi_rebind_equals_fresh_memory(self):
        program = parse_program("LDQ r4, 8(r1)\nADDQ r4, 1, r0\nRET")
        engine = ExecutionEngine(program)
        memory, rebind = reusable_sfi_memory()
        for size in (64, 100, 60):
            packet = bytes((i + size) & 0xFF for i in range(size))
            rebind(packet)
            reused = engine.run(memory, sfi_registers(size))
            fresh = engine.run(sfi_memory(packet), sfi_registers(size))
            assert reused == fresh
