"""The BPF baseline: verifier, interpreter semantics, filter agreement."""

import pytest

from repro.baselines.bpf import (
    BPF_FILTERS,
    BpfInterpreter,
    alu_add_k,
    jeq,
    jmp_ja,
    ld_b_abs,
    ld_h_abs,
    ld_imm,
    ld_w_abs,
    ld_w_ind,
    ldx_imm,
    ldx_msh,
    ret_a,
    ret_k,
    st,
    stx,
    tax,
    txa,
    verify_bpf,
)
from repro.baselines.bpf.isa import BpfInstruction, ld_mem, ldx_mem
from repro.errors import BpfVerifyError
from repro.filters import ORACLES

PACKET = bytes(range(1, 65))  # 64 distinct bytes


def run(program, packet=PACKET):
    verify_bpf(program)
    return BpfInterpreter(program).run(packet)


class TestVerifier:
    def test_accepts_all_shipped_filters(self):
        for program in BPF_FILTERS.values():
            verify_bpf(program)

    def test_rejects_empty(self):
        with pytest.raises(BpfVerifyError):
            verify_bpf([])

    def test_rejects_missing_ret(self):
        with pytest.raises(BpfVerifyError):
            verify_bpf([ld_h_abs(12)])

    def test_rejects_branch_out_of_range(self):
        with pytest.raises(BpfVerifyError):
            verify_bpf([jeq(1, 5, 0), ret_k(0)])

    def test_rejects_bad_scratch_index(self):
        with pytest.raises(BpfVerifyError):
            verify_bpf([st(16), ret_k(0)])

    def test_rejects_constant_divide_by_zero(self):
        from repro.baselines.bpf.isa import BPF_ALU, BPF_DIV, BPF_K
        div = BpfInstruction(BPF_ALU | BPF_DIV | BPF_K, k=0)
        with pytest.raises(BpfVerifyError):
            verify_bpf([div, ret_k(0)])

    def test_rejects_unknown_opcode(self):
        with pytest.raises(BpfVerifyError):
            verify_bpf([BpfInstruction(0x00 | 0xE0), ret_k(0)])


class TestInterpreter:
    def test_loads_are_big_endian(self):
        stats = run([ld_h_abs(0), ret_a()])
        assert stats.verdict == (PACKET[0] << 8) | PACKET[1]
        stats = run([ld_w_abs(4), ret_a()])
        assert stats.verdict == int.from_bytes(PACKET[4:8], "big")

    def test_byte_load(self):
        assert run([ld_b_abs(10), ret_a()]).verdict == PACKET[10]

    def test_out_of_bounds_read_rejects_packet(self):
        """The BPF run-time check: reading past the packet returns 0."""
        stats = run([ld_w_abs(62), ret_k(1)])
        assert stats.verdict == 0

    def test_indirect_load(self):
        program = [ldx_imm(8), ld_w_ind(4), ret_a()]
        assert run(program).verdict == int.from_bytes(PACKET[12:16], "big")

    def test_msh_idiom(self):
        # X := 4 * (pkt[14] & 0xf); pkt[14] = 15 -> X = 60
        program = [ldx_msh(14), txa(), ret_a()]
        assert run(program).verdict == 4 * (PACKET[14] & 0x0F)

    def test_scratch_memory(self):
        program = [ld_imm(123), st(3), ld_imm(0), ld_mem(3), ret_a()]
        assert run(program).verdict == 123

    def test_stx_and_ldx_mem(self):
        program = [ldx_imm(7), stx(0), ldx_imm(0), ldx_mem(0), txa(),
                   ret_a()]
        assert run(program).verdict == 7

    def test_alu_is_32_bit(self):
        program = [ld_imm(0xFFFFFFFF), alu_add_k(1), ret_a()]
        assert run(program).verdict == 0

    def test_tax_txa(self):
        program = [ld_imm(9), tax(), ld_imm(0), txa(), ret_a()]
        assert run(program).verdict == 9

    def test_jump_semantics(self):
        program = [ld_imm(5), jeq(5, 1, 0), ret_k(0), ret_k(1)]
        assert run(program).verdict == 1

    def test_unconditional_jump(self):
        program = [jmp_ja(1), ret_k(7), ret_k(42)]
        assert run(program).verdict == 42

    def test_cycle_accounting(self):
        stats = run([ld_h_abs(0), ret_a()])
        assert stats.instructions == 2
        assert stats.cycles > 2 * 10  # dispatch-dominated


class TestFilterAgreement:
    def test_against_oracles(self, small_trace):
        for name, program in BPF_FILTERS.items():
            interpreter = BpfInterpreter(program)
            oracle = ORACLES[name]
            for frame in small_trace:
                assert bool(interpreter.run(frame).verdict) == \
                    oracle(frame), f"{name} vs oracle on {frame[:40].hex()}"

    def test_agreement_with_pcc_filters(self, small_trace):
        """BPF and native PCC implementations decide identically."""
        from repro.alpha.machine import Machine
        from repro.filters import FILTERS, filter_registers, packet_memory
        for spec in FILTERS:
            interpreter = BpfInterpreter(BPF_FILTERS[spec.name])
            for frame in small_trace[:300]:
                native = Machine(spec.program, packet_memory(frame),
                                 filter_registers(len(frame))).run()
                assert bool(native.value) == \
                    bool(interpreter.run(frame).verdict)
