"""Binary encoding tests: real Alpha words, round-trips, tamper rejection."""

import pytest
from hypothesis import given, strategies as st

from repro.alpha.encoding import (
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.alpha.isa import (
    BRANCH_NAMES,
    Br,
    Branch,
    Lda,
    Ldah,
    Ldq,
    Lit,
    NUM_REGS,
    OPERATE_NAMES,
    Operate,
    Reg,
    Ret,
    Stq,
)
from repro.errors import EncodingError

regs = st.integers(min_value=0, max_value=NUM_REGS - 1).map(Reg)
lits = st.integers(min_value=0, max_value=255).map(Lit)
disp16 = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)

instructions = st.one_of(
    st.builds(Operate, st.sampled_from(sorted(OPERATE_NAMES)), regs,
              st.one_of(regs, lits), regs),
    st.builds(Lda, regs, disp16, regs),
    st.builds(Ldah, regs, disp16, regs),
    st.builds(Ldq, regs, disp16, regs),
    st.builds(Stq, regs, disp16, regs),
    st.builds(Branch, st.sampled_from(BRANCH_NAMES), regs,
              st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)),
    st.builds(Br, st.integers(min_value=-(1 << 20), max_value=(1 << 20) - 1)),
    st.just(Ret()),
)


class TestKnownEncodings:
    """Spot-check against the Alpha Architecture Reference Manual."""

    def test_ret(self):
        assert encode_instruction(Ret()) == 0x6BFA8001

    def test_ldq_opcode(self):
        word = encode_instruction(Ldq(Reg(0), 8, Reg(1)))
        assert word >> 26 == 0x29
        assert word & 0xFFFF == 8

    def test_stq_opcode(self):
        word = encode_instruction(Stq(Reg(0), -8, Reg(1)))
        assert word >> 26 == 0x2D
        assert word & 0xFFFF == 0xFFF8  # sign-extended -8

    def test_addq_operate_format(self):
        word = encode_instruction(Operate("ADDQ", Reg(1), Lit(8), Reg(2)))
        assert word >> 26 == 0x10          # INTA
        assert (word >> 5) & 0x7F == 0x20  # ADDQ function
        assert (word >> 12) & 1 == 1       # literal flag
        assert (word >> 13) & 0xFF == 8    # the literal

    def test_beq_branch_format(self):
        word = encode_instruction(Branch("BEQ", Reg(2), 1))
        assert word >> 26 == 0x39
        assert word & 0x1FFFFF == 1

    def test_physical_register_mapping(self):
        # logical r9/r10 are Alpha a0/a1 ($16/$17), still caller-save
        word = encode_instruction(Operate("ADDQ", Reg(9), Reg(10), Reg(0)))
        assert (word >> 21) & 0x1F == 16
        assert (word >> 16) & 0x1F == 17


class TestRoundTrip:
    @given(instructions)
    def test_instruction_round_trip(self, instruction):
        word = encode_instruction(instruction)
        assert 0 <= word < (1 << 32)
        assert decode_instruction(word) == instruction

    def test_program_round_trip(self):
        program = (
            Operate("ADDQ", Reg(0), Lit(8), Reg(1)),
            Ldq(Reg(0), 8, Reg(0)),
            Branch("BEQ", Reg(2), 1),
            Stq(Reg(0), 0, Reg(1)),
            Ret(),
        )
        code = encode_program(program)
        assert len(code) == 4 * len(program)
        assert decode_program(code) == program


class TestRejection:
    def test_unknown_opcode(self):
        # opcode 0x00 (CALL_PAL) is outside the policy subset
        with pytest.raises(EncodingError):
            decode_instruction(0x00000001)

    def test_reserved_register_rejected(self):
        # LDQ with ra = $9 (s0, callee-save) is outside the policy subset
        word = (0x29 << 26) | (9 << 21) | (1 << 16)
        with pytest.raises(EncodingError):
            decode_instruction(word)

    def test_unknown_operate_function(self):
        word = (0x10 << 26) | (0x7F << 5)
        with pytest.raises(EncodingError):
            decode_instruction(word)

    def test_nonzero_sbz_bits(self):
        good = encode_instruction(Operate("ADDQ", Reg(0), Reg(1), Reg(2)))
        with pytest.raises(EncodingError):
            decode_instruction(good | (1 << 13))

    def test_ragged_code_section(self):
        with pytest.raises(EncodingError):
            decode_program(b"\x01\x02\x03")

    def test_empty_code_section(self):
        with pytest.raises(EncodingError):
            decode_program(b"")

    def test_every_single_bit_flip_decodes_or_rejects(self):
        """Decoding never crashes: each flip either yields a valid
        instruction or raises EncodingError."""
        program = (Ldq(Reg(0), 8, Reg(1)), Ret())
        code = bytearray(encode_program(program))
        for position in range(len(code) * 8):
            mutated = bytearray(code)
            mutated[position // 8] ^= 1 << (position % 8)
            try:
                decode_program(bytes(mutated))
            except Exception as error:
                from repro.errors import PccError
                assert isinstance(error, PccError)
