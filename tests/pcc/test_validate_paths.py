"""Consumer-side validation: every rejection path, exercised.

validate() must catch and wrap every malformed-input failure as
ValidationError — an uncaught exception in the kernel's validator would
itself be a denial-of-service vector.
"""

import pytest

from repro.errors import ValidationError
from repro.lf.binary import serialize_lf
from repro.lf.encode import encode_formula
from repro.lf.syntax import LfConst, LfInt, lf_app
from repro.logic.formulas import Truth, eq
from repro.logic.terms import Var
from repro.pcc import validate
from repro.pcc.container import PccBinary, pack_invariants


def _reject(blob, policy):
    with pytest.raises(ValidationError):
        validate(blob, policy)


class TestRejectionPaths:
    def test_garbage_bytes(self, resource_policy):
        _reject(b"not a pcc binary at all", resource_policy)

    def test_empty_code_section(self, resource_policy, resource_certified):
        binary = resource_certified.binary
        _reject(PccBinary(b"", binary.relocation,
                          binary.proof).to_bytes(), resource_policy)

    def test_non_alpha_code_section(self, resource_policy,
                                    resource_certified):
        binary = resource_certified.binary
        _reject(PccBinary(b"\xff" * 8, binary.relocation,
                          binary.proof).to_bytes(), resource_policy)

    def test_code_with_wild_branch(self, resource_policy,
                                   resource_certified):
        from repro.alpha.encoding import encode_instruction
        from repro.alpha.isa import Br, Ret
        import struct
        # BR +100 jumps far outside the two-instruction program
        words = [encode_instruction(Br(100)), encode_instruction(Ret())]
        code = b"".join(struct.pack("<I", word) for word in words)
        binary = resource_certified.binary
        _reject(PccBinary(code, binary.relocation,
                          binary.proof).to_bytes(), resource_policy)

    def test_malformed_proof_stream(self, resource_policy,
                                    resource_certified):
        binary = resource_certified.binary
        _reject(PccBinary(binary.code, binary.relocation,
                          b"\xff\xff\xff").to_bytes(), resource_policy)

    def test_malformed_invariant_section(self, resource_policy,
                                         resource_certified):
        binary = resource_certified.binary
        _reject(PccBinary(binary.code, binary.relocation, binary.proof,
                          b"\x01\x02junk").to_bytes(), resource_policy)

    def test_invariant_decoding_to_non_formula(self, resource_policy,
                                               resource_certified):
        binary = resource_certified.binary
        bogus = pack_invariants({0: LfInt(42)})  # an int is not a formula
        _reject(PccBinary(binary.code, binary.relocation, binary.proof,
                          bogus).to_bytes(), resource_policy)

    def test_spurious_invariant_changes_predicate(self, resource_policy,
                                                  resource_certified):
        """Adding an (unneeded but well-formed) invariant changes the
        safety predicate, orphaning the proof."""
        binary = resource_certified.binary
        extra = pack_invariants(
            {3: encode_formula(eq(Var("r0"), Var("r0")), {}, 0)})
        _reject(PccBinary(binary.code, binary.relocation, binary.proof,
                          extra).to_bytes(), resource_policy)

    def test_proof_of_trivial_truth_rejected(self, resource_policy,
                                             resource_certified):
        """A (perfectly valid) proof of `true` is not a proof of SP."""
        binary = resource_certified.binary
        table, stream = serialize_lf(LfConst("truei"))
        _reject(PccBinary(binary.code, table, stream).to_bytes(),
                resource_policy)

    def test_invariant_with_unbound_variable(self):
        """A bit flip in the checksum loop invariant (seed 145) decodes
        to a formula whose safety predicate has a variable with no LF
        binding; encoding it must fail as a ValidationError."""
        from repro.filters.checksum import (
            CHECKSUM_LOOP_PC,
            CHECKSUM_SOURCE,
            checksum_invariant,
            checksum_policy,
        )
        from repro.pcc import certify
        from repro.pcc.mutate import bitflip_section

        policy = checksum_policy()
        blob = certify(CHECKSUM_SOURCE, policy, invariants={
            CHECKSUM_LOOP_PC: checksum_invariant()}).binary.to_bytes()
        mutant = bitflip_section(blob, "invariants", 145)
        with pytest.raises(ValidationError, match="no LF binding"):
            validate(mutant, policy)


class TestAcceptancePath:
    def test_report_fields_complete(self, resource_policy,
                                    resource_certified):
        report = validate(resource_certified.binary.to_bytes(),
                          resource_policy)
        assert report.binary_bytes == resource_certified.binary.size
        assert report.code_bytes + report.relocation_bytes \
            + report.proof_bytes <= report.binary_bytes
        assert report.peak_memory_bytes == 0  # not measured by default

    def test_pccbinary_object_accepted_directly(self, resource_policy,
                                                resource_certified):
        report = validate(resource_certified.binary, resource_policy)
        assert report.instructions == 7


class TestMonotonicTiming:
    """``validation_seconds`` must come from a monotonic clock (the
    loader's cached-vs-cold comparisons and Figure 9 subtract it)."""

    def test_clock_is_perf_counter(self):
        import importlib
        import time

        validate_module = importlib.import_module("repro.pcc.validate")
        assert validate_module._CLOCK is time.perf_counter

    def test_wall_clock_step_cannot_go_negative(self, monkeypatch,
                                                resource_policy,
                                                resource_certified):
        """Simulate NTP stepping time.time() backwards mid-validation:
        the reported duration must stay non-negative regardless."""
        import time as time_module

        backwards = iter([2_000_000_000.0, 1_000_000_000.0,
                          999_999_999.0])
        monkeypatch.setattr(time_module, "time",
                            lambda: next(backwards, 0.0))
        report = validate(resource_certified.binary.to_bytes(),
                          resource_policy)
        assert report.validation_seconds >= 0.0
