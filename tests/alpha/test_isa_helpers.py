"""ISA metadata helpers (used by the SFI rewriter's register audit)."""

import pytest

from repro.alpha.isa import (
    Br,
    Branch,
    Lda,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Reg,
    Ret,
    Stq,
    block_exits,
    branch_target,
    read_registers,
    written_register,
)
from repro.errors import AssemblyError


class TestRegisterMetadata:
    def test_written_register(self):
        assert written_register(Operate("ADDQ", Reg(1), Lit(2), Reg(3))) == 3
        assert written_register(Ldq(Reg(4), 0, Reg(1))) == 4
        assert written_register(Lda(Reg(5), 0, Reg(0))) == 5
        assert written_register(Ldah(Reg(6), 0, Reg(0))) == 6
        assert written_register(Stq(Reg(2), 0, Reg(3))) is None
        assert written_register(Branch("BEQ", Reg(1), 0)) is None
        assert written_register(Ret()) is None

    def test_read_registers(self):
        assert read_registers(Operate("ADDQ", Reg(1), Reg(2), Reg(3))) \
            == {1, 2}
        assert read_registers(Operate("ADDQ", Reg(1), Lit(2), Reg(3))) \
            == {1}
        assert read_registers(Stq(Reg(2), 0, Reg(3))) == {2, 3}
        assert read_registers(Ldq(Reg(4), 8, Reg(1))) == {1}
        assert read_registers(Branch("BNE", Reg(7), 1)) == {7}
        assert read_registers(Ret()) == set()
        assert read_registers(Br(1)) == set()

    def test_branch_target(self):
        assert branch_target(5, Branch("BEQ", Reg(0), 3)) == 9
        assert branch_target(5, Br(-2)) == 4

    def test_block_exits(self):
        program = (Operate("ADDQ", Reg(1), Lit(1), Reg(1)),
                   Branch("BEQ", Reg(1), 1), Br(-3), Ret(), Br(5))
        assert block_exits(program, 1) == (None, 1)   # cut by a leader
        assert block_exits(program, 2) == (3, 2)
        assert block_exits(program, 3) == (0, None)
        assert block_exits(program, 4) == (None, None)
        assert block_exits(program, 5) == (10, None)  # leaves the program


class TestConstructionGuards:
    def test_register_bounds(self):
        with pytest.raises(AssemblyError):
            Reg(11)
        with pytest.raises(AssemblyError):
            Reg(-1)

    def test_literal_bounds(self):
        with pytest.raises(AssemblyError):
            Lit(256)

    def test_displacement_bounds(self):
        with pytest.raises(AssemblyError):
            Ldq(Reg(0), 1 << 15, Reg(1))
        with pytest.raises(AssemblyError):
            Lda(Reg(0), -(1 << 15) - 1, Reg(1))

    def test_branch_offset_bounds(self):
        with pytest.raises(AssemblyError):
            Branch("BEQ", Reg(0), 1 << 20)

    def test_unknown_mnemonics(self):
        with pytest.raises(AssemblyError):
            Operate("FROB", Reg(0), Reg(1), Reg(2))
        with pytest.raises(AssemblyError):
            Branch("BNEVER", Reg(0), 0)
