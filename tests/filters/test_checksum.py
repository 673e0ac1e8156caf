"""The §4 loop experiment: checksum semantics, certification with loop
invariants, and the factor-of-two claim."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.alpha.abstract import AbstractMachine
from repro.alpha.machine import Machine
from repro.alpha.parser import parse_program
from repro.errors import CertificationError
from repro.filters.checksum import (
    CHECKSUM_LOOP_PC,
    CHECKSUM_SOURCE,
    NAIVE_CHECKSUM_SOURCE,
    NAIVE_LOOP_PC,
    checksum_invariant,
    checksum_memory,
    checksum_policy,
    checksum_registers,
    naive_invariant,
    pad_to_words,
    reference_checksum,
)
from repro.pcc import certify, validate
from repro.perf.cost import ALPHA_175


@pytest.fixture(scope="module")
def checksum_certified():
    return certify(CHECKSUM_SOURCE, checksum_policy(),
                   invariants={CHECKSUM_LOOP_PC: checksum_invariant()})


def _checksum(source, data):
    program = parse_program(source)
    machine = Machine(program, checksum_memory(data),
                      checksum_registers(data), cost_model=ALPHA_175)
    return machine.run()


class TestSemantics:
    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=1, max_size=200))
    def test_matches_rfc1071(self, data):
        assert _checksum(CHECKSUM_SOURCE, data).value == \
            reference_checksum(data)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=120))
    def test_naive_matches_rfc1071(self, data):
        assert _checksum(NAIVE_CHECKSUM_SOURCE, data).value == \
            reference_checksum(data)

    def test_real_ip_header(self):
        header = bytes.fromhex(
            "450000735a2a40004011000ac0a80001c0a800c7")
        value = reference_checksum(header)
        assert _checksum(CHECKSUM_SOURCE, header).value == value

    def test_padding_preserves_checksum(self):
        data = b"\x12\x34\x56\x78\x9a\xbc"
        assert reference_checksum(data) == \
            reference_checksum(pad_to_words(data))


class TestCertification:
    def test_certifies_with_loop_invariant(self, checksum_certified):
        report = validate(checksum_certified.binary.to_bytes(),
                          checksum_policy())
        assert report.instructions == len(checksum_certified.program)

    def test_naive_certifies_too(self):
        certify(NAIVE_CHECKSUM_SOURCE, checksum_policy(),
                invariants={NAIVE_LOOP_PC: naive_invariant()})

    def test_without_invariant_rejected(self):
        with pytest.raises(CertificationError):
            certify(CHECKSUM_SOURCE, checksum_policy())

    def test_with_too_weak_invariant_rejected(self):
        from repro.logic.formulas import Truth
        with pytest.raises(CertificationError):
            certify(CHECKSUM_SOURCE, checksum_policy(),
                    invariants={CHECKSUM_LOOP_PC: Truth()})

    def test_invariants_travel_in_binary(self, checksum_certified):
        assert len(checksum_certified.binary.invariants) > 0

    def test_abstract_machine_never_blocks(self, checksum_certified):
        policy = checksum_policy()
        rng = random.Random(3)
        for length in (8, 24, 56, 64, 256):
            data = bytes(rng.randrange(256) for __ in range(length))
            registers = checksum_registers(data)
            can_read, can_write = policy.checkers(registers, lambda a: 0)
            machine = AbstractMachine(checksum_certified.program,
                                      checksum_memory(data), can_read,
                                      can_write, registers)
            assert machine.run().value == reference_checksum(data)


class TestPerformanceClaim:
    def test_optimized_beats_naive_by_about_2x(self):
        """The paper: the 64-bit version beats the kernel C version by a
        factor of two."""
        rng = random.Random(9)
        data = bytes(rng.randrange(256) for __ in range(1480))
        optimized = _checksum(CHECKSUM_SOURCE, data).cycles
        naive = _checksum(NAIVE_CHECKSUM_SOURCE, data).cycles
        assert 1.6 < naive / optimized < 2.6

    def test_core_loop_is_8_instructions(self):
        """The paper's core loop is 8 instructions; ours is 7 (loop body
        plus the compare at `check`)."""
        # instructions from `loop:` (pc 3) to BNE (inclusive)
        assert 7 <= 11 - CHECKSUM_LOOP_PC + 1 <= 9
