"""SFI baseline: rewriting correctness, containment of malicious code,
and the PCC-validates-SFI experiment (§3.1)."""

import pytest

from repro.alpha.machine import Machine
from repro.alpha.parser import parse_program
from repro.baselines.sfi import (
    SfiConfig,
    sfi_memory,
    sfi_policy,
    sfi_registers,
    sfi_rewrite,
)
from repro.errors import SfiError
from repro.filters import FILTERS, ORACLES
from repro.pcc import certify, validate


def _run_sfi(program, frame):
    machine = Machine(program, sfi_memory(frame),
                      sfi_registers(len(frame)))
    return machine.run()


class TestRewriting:
    def test_expansion_counts(self):
        program = parse_program("LDQ r4, 8(r1)\nSTQ r4, 0(r3)\nRET")
        rewritten = sfi_rewrite(program)
        # preamble 4 + (load 4) + (store 4) + ret
        assert len(rewritten) == 4 + 4 + 4 + 1

    def test_write_only_mode_is_cheaper(self):
        program = parse_program("LDQ r4, 8(r1)\nSTQ r4, 0(r3)\nRET")
        both = sfi_rewrite(program)
        write_only = sfi_rewrite(program, SfiConfig(sandbox_reads=False))
        assert len(write_only) < len(both)

    def test_branch_offsets_fixed_up(self, small_trace):
        """Rewritten filters still compute the same verdicts (branches
        cross expanded regions)."""
        for spec in FILTERS:
            rewritten = sfi_rewrite(spec.program)
            oracle = ORACLES[spec.name]
            for frame in small_trace[:300]:
                assert bool(_run_sfi(rewritten, frame).value) == \
                    oracle(frame), spec.name

    def test_dedicated_registers_enforced(self):
        with pytest.raises(SfiError):
            sfi_rewrite(parse_program("ADDQ r9, 1, r9\nRET"))

    def test_scratch_base_clobber_rejected(self):
        with pytest.raises(SfiError):
            sfi_rewrite(parse_program(
                "ADDQ r3, 8, r3\nSTQ r3, 0(r3)\nRET"))


class TestContainment:
    """SFI's actual guarantee: even a malicious filter cannot escape its
    segments — reads snap into the packet segment, writes into scratch."""

    def test_wild_read_contained(self):
        # tries to read far outside the packet
        malicious = parse_program("""
            LDAH r4, 0x7000(r1)
            LDQ  r0, 0(r4)
            RET
        """)
        rewritten = sfi_rewrite(malicious)
        frame = bytes(64)
        result = _run_sfi(rewritten, frame)  # no MachineError: contained
        assert result.value == 0

    def test_wild_write_contained(self):
        malicious = parse_program("""
            LDAH r4, 0x7000(r3)
            STQ  r2, 0(r4)
            RET
        """)
        rewritten = sfi_rewrite(malicious)
        frame = bytes(range(64))
        memory = sfi_memory(frame)
        machine = Machine(rewritten, memory, sfi_registers(len(frame)))
        machine.run()
        # the write landed inside scratch, not anywhere else
        assert bytes(memory.region("packet"))[:64] == frame

    def test_unaligned_access_snapped(self):
        malicious = parse_program("LDQ r0, 3(r1)\nRET")
        rewritten = sfi_rewrite(malicious)
        _run_sfi(rewritten, bytes(64))  # aligned by masking: no trap

    def test_semantics_difference_from_bpf_at_boundary(self):
        """The paper §3.1: SFI filters may read past the packet length
        (anywhere in the 2048-byte segment), where BPF would reject —
        'some working packet filters in the BPF semantics will not behave
        as expected in the SFI semantics'."""
        reader = parse_program("LDQ r0, 1024(r1)\nRET")
        rewritten = sfi_rewrite(reader)
        result = _run_sfi(rewritten, bytes(64))  # packet only 64 bytes
        assert result.value == 0  # reads segment padding, no fault


class TestSfiAsPcc:
    """§3.1: 'we produced safety proofs attesting that the resulting SFI
    packet filter binaries are safe with respect to the [SFI] safety
    policy' — PCC replaces the load-time SFI validator."""

    @pytest.fixture(scope="class")
    def certified_sfi(self):
        policy = sfi_policy()
        return {
            spec.name: certify(sfi_rewrite(spec.program), policy)
            for spec in FILTERS[:2]  # two suffice for the integration test
        }

    def test_rewritten_filters_certify(self, certified_sfi):
        policy = sfi_policy()
        for name, certified in certified_sfi.items():
            report = validate(certified.binary.to_bytes(), policy)
            assert report.instructions == len(certified.program)

    def test_unsandboxed_code_fails_sfi_policy(self):
        """Raw (unrewritten) filters do NOT satisfy the segment policy —
        the sandboxing instructions are what makes the proof go through."""
        from repro.errors import CertificationError
        policy = sfi_policy()
        with pytest.raises(CertificationError):
            certify(FILTERS[0].program, policy)

    def test_abstract_machine_respects_segments(self, certified_sfi):
        from repro.alpha.abstract import AbstractMachine
        policy = sfi_policy()
        frame = bytes(range(64))
        for name, certified in certified_sfi.items():
            registers = sfi_registers(len(frame))
            can_read, can_write = policy.checkers(registers, lambda a: 0)
            machine = AbstractMachine(certified.program, sfi_memory(frame),
                                      can_read, can_write, registers)
            machine.run()  # never blocks
