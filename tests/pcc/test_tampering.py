"""Tamper-proofness (§2.3): "any attempt to alter either the native code
or safety proof in a PCC binary is either detected or harmless".

We verify exactly that statement: every single-bit flip of the code
section is either rejected by validation, or the accepted program is still
*semantically safe* (its own recomputed safety predicate was proved by the
enclosed proof — and we double-check by running it on the abstract
machine, which blocks on any violation).
"""

import struct

import pytest

from repro.alpha.abstract import AbstractMachine
from repro.alpha.machine import Memory
from repro.errors import ValidationError
from repro.pcc import validate
from repro.pcc.container import PccBinary, _HEADER


def _flip(blob: bytes, position: int, bit: int) -> bytes:
    mutated = bytearray(blob)
    mutated[position] ^= 1 << bit
    return bytes(mutated)


class TestCodeTampering:
    def test_every_code_bit_flip_detected_or_harmless(
            self, resource_policy, resource_certified):
        blob = resource_certified.binary.to_bytes()
        code_start = _HEADER.size
        code_end = code_start + len(resource_certified.binary.code)
        rejected = 0
        accepted_safe = 0
        for position in range(code_start, code_end):
            for bit in range(8):
                mutated = _flip(blob, position, bit)
                try:
                    report = validate(mutated, resource_policy)
                except ValidationError:
                    rejected += 1
                    continue
                # Accepted: must still be safe — run it on the abstract
                # machine under the policy; blocking would break the
                # paper's guarantee.
                memory = Memory()
                memory.map_region(0x1000, struct.pack("<QQ", 5, 41),
                                  writable=True, name="table")
                registers = {0: 0x1000}
                can_read, can_write = resource_policy.checkers(
                    registers, lambda address: 5 if address == 0x1000 else 41)
                machine = AbstractMachine(report.program, memory, can_read,
                                          can_write, registers)
                machine.run()  # must not raise SafetyViolation
                accepted_safe += 1
        # sanity: most flips must actually change the predicate
        assert rejected > accepted_safe
        assert rejected + accepted_safe == (code_end - code_start) * 8

    def test_swapping_load_and_store_rejected(self, resource_policy,
                                              resource_certified):
        """A targeted semantic attack: replace the conditional store with
        an unconditional one by rewriting the branch offset."""
        binary = resource_certified.binary
        code = bytearray(binary.code)
        # branch displacement of the BEQ at instruction 4: zero it so the
        # branch becomes a no-op fall-through (making the store
        # unconditional, which the policy forbids)
        word = int.from_bytes(code[16:20], "little")
        word &= ~0x1FFFFF
        code[16:20] = word.to_bytes(4, "little")
        mutated = PccBinary(bytes(code), binary.relocation, binary.proof,
                            binary.invariants)
        with pytest.raises(ValidationError):
            validate(mutated.to_bytes(), resource_policy)


class TestProofTampering:
    @pytest.mark.parametrize("section", ["relocation", "proof"])
    def test_bit_flips_never_validate_unsafely(self, section,
                                               resource_policy,
                                               resource_certified):
        binary = resource_certified.binary
        blob = binary.to_bytes()
        start = _HEADER.size + len(binary.code)
        if section == "proof":
            start += len(binary.relocation)
            length = len(binary.proof)
        else:
            length = len(binary.relocation)
        outcomes = {"rejected": 0, "accepted": 0}
        step = max(1, length // 40)  # sample across the section
        for position in range(start, start + length, step):
            for bit in (0, 3, 7):
                mutated = _flip(blob, position, bit)
                try:
                    validate(mutated, resource_policy)
                    outcomes["accepted"] += 1
                except ValidationError:
                    outcomes["rejected"] += 1
        # A proof-section flip can at best leave an equivalent proof; it
        # must never validate a DIFFERENT predicate.  Rejection dominates.
        assert outcomes["rejected"] > 0

    def test_proof_transplant_rejected(self, resource_policy,
                                       certified_filters, filter_policy,
                                       resource_certified):
        """Grafting filter1's (valid) proof onto the resource-access code
        must fail: the proof proves the wrong predicate."""
        donor = certified_filters["filter1"].binary
        frankenstein = PccBinary(
            code=resource_certified.binary.code,
            relocation=donor.relocation,
            proof=donor.proof,
        )
        with pytest.raises(ValidationError):
            validate(frankenstein.to_bytes(), resource_policy)

    def test_empty_proof_rejected(self, resource_policy,
                                  resource_certified):
        stripped = PccBinary(resource_certified.binary.code, b"", b"")
        with pytest.raises(ValidationError):
            validate(stripped.to_bytes(), resource_policy)
