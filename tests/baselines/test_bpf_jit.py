"""The BPF-to-Alpha compiler: semantics (JIT == interpreter == oracle),
check placement, and certifiability of the compiled code — the "replace
the interpreter with a compiler" variant of §3.1, made trustless by PCC.
"""

import pytest

from repro.alpha.machine import Machine
from repro.baselines.bpf import BPF_FILTERS, BpfInterpreter, compile_bpf
from repro.baselines.bpf.isa import (
    alu_add_k,
    alu_and_k,
    alu_lsh_k,
    alu_rsh_k,
    jeq,
    jge,
    jgt,
    jset,
    jmp_ja,
    ld_b_abs,
    ld_h_abs,
    ld_h_ind,
    ld_imm,
    ld_mem,
    ld_w_abs,
    ldx_msh,
    ret_a,
    ret_k,
    st,
    tax,
    txa,
)
from repro.errors import BpfError
from repro.filters import ORACLES, filter_registers, packet_memory

PACKET = bytes(range(1, 101))


def _run_jit(bpf_program, frame):
    program = compile_bpf(bpf_program)
    machine = Machine(program, packet_memory(frame),
                      filter_registers(len(frame)))
    return machine.run().value


def _agree(bpf_program, frame):
    jit = _run_jit(bpf_program, frame)
    interp = BpfInterpreter(bpf_program).run(frame).verdict
    assert jit == interp, (jit, interp)
    return jit


class TestJitSemantics:
    def test_loads(self):
        assert _agree([ld_h_abs(0), ret_a()], PACKET) == \
            (PACKET[0] << 8) | PACKET[1]
        assert _agree([ld_w_abs(4), ret_a()], PACKET) == \
            int.from_bytes(PACKET[4:8], "big")
        assert _agree([ld_b_abs(10), ret_a()], PACKET) == PACKET[10]

    def test_unaligned_word_load(self):
        # offset 5 crosses an 8-byte boundary: bytes 5..8
        assert _agree([ld_w_abs(5), ret_a()], PACKET) == \
            int.from_bytes(PACKET[5:9], "big")

    def test_out_of_bounds_rejects(self):
        assert _agree([ld_w_abs(98), ret_k(1)], PACKET) == 0

    def test_indirect_and_msh(self):
        program = [ldx_msh(14), ld_h_ind(16), ret_a()]
        assert _agree(program, PACKET) > 0

    def test_alu_and_masking(self):
        program = [ld_imm(0xFFFFFFFF), alu_add_k(1), ret_a()]
        assert _agree(program, PACKET) == 0  # 32-bit wrap
        program = [ld_imm(0xF0), alu_lsh_k(4), alu_rsh_k(8), ret_a()]
        assert _agree(program, PACKET) == 0x0F

    def test_large_constants(self):
        program = [ld_imm(0x8002CE00), ret_a()]
        assert _agree(program, PACKET) == 0x8002CE00
        program = [ld_w_abs(0), alu_and_k(0xFFFFFF00), ret_a()]
        assert _agree(program, PACKET) == \
            int.from_bytes(PACKET[:4], "big") & 0xFFFFFF00

    def test_jumps(self):
        program = [ld_imm(5), jeq(5, 1, 0), ret_k(0), ret_k(1)]
        assert _agree(program, PACKET) == 1
        program = [ld_imm(5), jgt(4, 1, 0), ret_k(0), ret_k(1)]
        assert _agree(program, PACKET) == 1
        program = [ld_imm(5), jge(6, 0, 1), ret_k(7), ret_k(1)]
        assert _agree(program, PACKET) == 1
        program = [ld_imm(6), jset(2, 1, 0), ret_k(0), ret_k(1)]
        assert _agree(program, PACKET) == 1
        program = [jmp_ja(1), ret_k(9), ret_k(3)]
        assert _agree(program, PACKET) == 3

    def test_scratch_and_transfers(self):
        program = [ld_imm(123), st(0), ld_imm(0), ld_mem(0), tax(),
                   ld_imm(0), txa(), ret_a()]
        assert _agree(program, PACKET) == 123

    def test_high_scratch_cells_rejected(self):
        with pytest.raises(BpfError):
            compile_bpf([st(5), ret_k(0)])

    def test_division_unsupported(self):
        from repro.baselines.bpf.isa import BPF_ALU, BPF_DIV, BPF_K, BpfInstruction
        with pytest.raises(BpfError):
            compile_bpf([BpfInstruction(BPF_ALU | BPF_DIV | BPF_K, k=2),
                         ret_k(0)])


class TestJitOnTrace:
    def test_all_filters_agree_with_interpreter(self, small_trace):
        for name, bpf_program in BPF_FILTERS.items():
            compiled = compile_bpf(bpf_program)
            interpreter = BpfInterpreter(bpf_program)
            for frame in small_trace[:250]:
                machine = Machine(compiled, packet_memory(frame),
                                  filter_registers(len(frame)))
                assert bool(machine.run().value) == \
                    bool(interpreter.run(frame).verdict), name

    def test_all_filters_match_oracles(self, small_trace):
        for name, bpf_program in BPF_FILTERS.items():
            compiled = compile_bpf(bpf_program)
            oracle = ORACLES[name]
            for frame in small_trace[:250]:
                machine = Machine(compiled, packet_memory(frame),
                                  filter_registers(len(frame)))
                assert bool(machine.run().value) == oracle(frame), name


class TestJitCertifies:
    """The kernel need not trust the JIT: its output carries proofs."""

    @pytest.mark.parametrize("name", ["filter1", "filter2", "filter4"])
    def test_compiled_filters_certify(self, name, filter_policy):
        from repro.pcc import certify, validate
        certified = certify(compile_bpf(BPF_FILTERS[name]), filter_policy)
        validate(certified.binary.to_bytes(), filter_policy)

    def test_compiled_filter3_certifies(self, filter_policy):
        from repro.pcc import certify
        certify(compile_bpf(BPF_FILTERS["filter3"]), filter_policy)

    def test_jit_sits_between_interpreter_and_handcoded(self, small_trace):
        from repro.perf import run_approach
        from repro.filters.programs import FILTERS
        sample = small_trace[:200]
        for spec in FILTERS:
            interp = run_approach(spec, "bpf", sample)
            jit = run_approach(spec, "bpf-jit", sample)
            hand = run_approach(spec, "pcc", sample)
            assert hand.cycles_per_packet < jit.cycles_per_packet \
                < interp.cycles_per_packet, spec.name
