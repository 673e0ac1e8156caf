"""Loop support beyond the single checksum loop: multiple cut points,
invariant-table wire format, and wrong-invariant rejection."""

import random
import struct

import pytest

from repro.alpha.machine import Machine
from repro.errors import CertificationError
from repro.filters.checksum import (
    checksum_memory,
    checksum_policy,
    checksum_registers,
    pad_to_words,
)
from repro.logic.formulas import conj, eq, lt
from repro.logic.terms import Var, and64, mod64
from repro.pcc import certify, validate
from repro.vcgen.policy import word_identity

#: Two sequential loops over the same buffer: the first sums the words,
#: the second XORs them; result is sum (+) xor in r0.  Each backward
#: branch needs its own invariant — two cut points in one binary.
TWO_LOOPS = """
        SUBQ   r4, r4, r4      % i := 0
        SUBQ   r0, r0, r0      % sum := 0
        BR     check1
loop1:  ADDQ   r1, r4, r5
        LDQ    r5, 0(r5)
        ADDQ   r0, r5, r0
        ADDQ   r4, 8, r4
check1: CMPULT r4, r2, r5
        BNE    r5, loop1
        SUBQ   r4, r4, r4      % i := 0 again
        SUBQ   r6, r6, r6      % xor := 0
        BR     check2
loop2:  ADDQ   r1, r4, r5
        LDQ    r5, 0(r5)
        XOR    r6, r5, r6
        ADDQ   r4, 8, r4
check2: CMPULT r4, r2, r5
        BNE    r5, loop2
        ADDQ   r0, r6, r0
        RET
"""

LOOP1_PC = 3
LOOP2_PC = 12


def _loop_invariant():
    from repro.filters.checksum import checksum_invariant
    return checksum_invariant()


def _reference(data: bytes) -> int:
    words = struct.unpack(f"<{len(pad_to_words(data)) // 8}Q",
                          pad_to_words(data))
    total = sum(words) % (1 << 64)
    xored = 0
    for word in words:
        xored ^= word
    return (total + xored) % (1 << 64)


class TestTwoLoops:
    @pytest.fixture(scope="class")
    def certified(self):
        invariant = _loop_invariant()
        return certify(TWO_LOOPS, checksum_policy(),
                       invariants={LOOP1_PC: invariant,
                                   LOOP2_PC: invariant})

    def test_certifies_and_validates(self, certified):
        report = validate(certified.binary.to_bytes(), checksum_policy())
        assert report.instructions == len(certified.program)

    def test_invariant_table_has_two_entries(self, certified):
        from repro.pcc.container import unpack_invariants
        table = unpack_invariants(certified.binary.invariants)
        assert set(table) == {LOOP1_PC, LOOP2_PC}

    def test_semantics(self, certified):
        rng = random.Random(17)
        for length in (8, 40, 160):
            data = bytes(rng.randrange(256) for __ in range(length))
            machine = Machine(certified.program, checksum_memory(data),
                              checksum_registers(data))
            assert machine.run().value == _reference(data)

    def test_missing_one_invariant_rejected(self):
        with pytest.raises(CertificationError):
            certify(TWO_LOOPS, checksum_policy(),
                    invariants={LOOP1_PC: _loop_invariant()})

    def test_wrong_invariant_rejected(self):
        # claims r4 stays below 8 — not preserved by the increment
        bogus = conj([
            word_identity(Var("r1")),
            word_identity(Var("r2")),
            word_identity(Var("r4")),
            eq(and64(Var("r4"), 7), 0),
            lt(mod64(Var("r4")), 8),
        ])
        with pytest.raises(CertificationError):
            certify(TWO_LOOPS, checksum_policy(),
                    invariants={LOOP1_PC: bogus,
                                LOOP2_PC: bogus})
