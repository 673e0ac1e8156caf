"""The four packet filters: certification, execution, oracle agreement,
and the empirical Safety Theorem (certified code never blocks the
abstract machine)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alpha.abstract import AbstractMachine
from repro.alpha.machine import Machine
from repro.errors import CertificationError
from repro.filters import (
    FILTERS,
    ORACLES,
    filter_registers,
    packet_memory,
)
from repro.filters.programs import SCRATCH_COUNTER
from repro.filters.trace import TraceConfig, generate_packet
from repro.pcc import certify
import random


def _run_native(program, frame):
    memory = packet_memory(frame)
    machine = Machine(program, memory, filter_registers(len(frame)))
    return bool(machine.run().value)


def _run_abstract(policy, program, frame):
    memory = packet_memory(frame)
    registers = filter_registers(len(frame))
    can_read, can_write = policy.checkers(registers, lambda a: 0)
    machine = AbstractMachine(program, memory, can_read, can_write,
                              registers)
    return bool(machine.run().value)


class TestCertification:
    def test_all_four_filters_certify_automatically(self,
                                                    certified_filters):
        """The paper's headline experiment: full automation, no manual
        proof steps, for all four filters."""
        for name in ("filter1", "filter2", "filter3", "filter4"):
            assert certified_filters[name].binary.size > 0

    def test_binary_sizes_in_paper_range(self, certified_filters):
        """Table 1 reports 385..1024 bytes; our encodings are fatter but
        must stay the same order of magnitude (within ~4x)."""
        for name in ("filter1", "filter2", "filter3", "filter4"):
            size = certified_filters[name].binary.size
            assert 300 < size < 4200, f"{name}: {size} bytes"

    def test_scratch_writer_certifies(self, certified_filters):
        assert certified_filters["scratch-counter"] is not None

    def test_packet_writer_rejected(self, filter_policy):
        """Writing into the packet violates the policy."""
        bad = """
            LDQ  r4, 8(r1)
            STQ  r4, 8(r1)
            RET
        """
        with pytest.raises(CertificationError):
            certify(bad, filter_policy)

    def test_unchecked_variable_read_rejected(self, filter_policy):
        """Reading at an unchecked computed offset cannot be certified."""
        bad = """
            LDQ  r4, 8(r1)
            AND  r4, 248, r4
            ADDQ r1, r4, r4
            LDQ  r0, 0(r4)
            RET
        """
        with pytest.raises(CertificationError):
            certify(bad, filter_policy)

    def test_read_past_minimum_rejected(self, filter_policy):
        """Offset 64 is not covered by r2 >= 64."""
        with pytest.raises(CertificationError):
            certify("LDQ r0, 64(r1)\nRET", filter_policy)

    def test_backward_branch_rejected(self, filter_policy):
        """Rule (3) of the §3 policy: all branches forward — enforced by
        requiring (absent) loop invariants."""
        bad = """
        top: SUBQ r2, 8, r2
             BNE  r2, top
             RET
        """
        with pytest.raises(CertificationError):
            certify(bad, filter_policy)


class TestOracleAgreement:
    def test_against_trace(self, small_trace):
        for spec in FILTERS:
            program = spec.program
            oracle = ORACLES[spec.name]
            for frame in small_trace:
                assert _run_native(program, frame) == oracle(frame), \
                    f"{spec.name} disagrees on {frame[:40].hex()}"

    def test_acceptance_rates_plausible(self, small_trace):
        """Filter 1 accepts most traffic; 4 is the most selective."""
        rates = {}
        for spec in FILTERS:
            accepted = sum(_run_native(spec.program, frame)
                           for frame in small_trace)
            rates[spec.name] = accepted / len(small_trace)
        assert rates["filter1"] > 0.5
        assert rates["filter1"] > rates["filter2"] > rates["filter3"]
        assert 0.005 < rates["filter4"] < 0.3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_packets(self, seed):
        rng = random.Random(seed)
        frame = generate_packet(rng, TraceConfig())
        for spec in FILTERS:
            assert _run_native(spec.program, frame) == \
                ORACLES[spec.name](frame)


class TestSafetyTheorem:
    """Theorem 2.1, empirically: certified filters never block the
    abstract machine, on traces and on adversarial frames."""

    def test_never_blocks_on_trace(self, filter_policy, certified_filters,
                                   small_trace):
        for name in ("filter1", "filter2", "filter3", "filter4"):
            program = certified_filters[name].program
            for frame in small_trace[:400]:
                _run_abstract(filter_policy, program, frame)  # no raise

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=64, max_size=200))
    def test_never_blocks_on_garbage_frames(self, filter_policy, blob):
        """Adversarial packet *contents* cannot make certified code trap —
        the whole point of kernel-extension safety."""
        for spec in FILTERS:
            _run_abstract(filter_policy, spec.program, blob)

    def test_concrete_and_abstract_agree(self, filter_policy, small_trace):
        for spec in FILTERS:
            for frame in small_trace[:100]:
                assert (_run_native(spec.program, frame)
                        == _run_abstract(filter_policy, spec.program,
                                         frame))


class TestScratchMemory:
    def test_counter_accumulates_across_invocations(self, small_trace):
        """The scratch-writer filter counts IP packets via STQ/LDQ."""
        program = SCRATCH_COUNTER.program
        import struct
        count = 0
        scratch = bytes(16)
        for frame in small_trace[:200]:
            memory = packet_memory(frame)
            memory.region("scratch")[:] = scratch  # persist across calls
            machine = Machine(program, memory,
                              filter_registers(len(frame)))
            machine.run()
            scratch = bytes(memory.region("scratch"))
            count += ORACLES["filter1"](frame)
        assert struct.unpack("<Q", scratch[:8])[0] == count
