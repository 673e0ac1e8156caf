"""The code producer: compilation & certification (paper Figure 1, §2.2).

:func:`certify` takes assembly source (or a parsed program), a safety
policy, and optional loop invariants; it computes the safety predicate,
proves it with the automatic prover, encodes the proof in LF and packs the
PCC binary.  The encoder replays every rule of the proof against the
predicate, so a wrong proof fails here instead of shipping (the paper's
producer has every incentive to ship only valid proofs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.alpha.encoding import encode_program
from repro.alpha.isa import Program
from repro.alpha.parser import parse_program
from repro.errors import CertificationError, PccError
from repro.lf.encode import encode_formula, decode_logic_formula
from repro.logic.formulas import Formula
from repro.pcc.container import PccBinary, pack_invariants, pack_proof
from repro.proof.encode import encode_proof
from repro.proof.proofs import Proof
from repro.prover import Prover
from repro.vcgen.policy import SafetyPolicy
from repro.vcgen.vcgen import safety_predicate


@dataclass(frozen=True)
class CertificationResult:
    """Everything the producer learned while certifying, for inspection."""

    binary: PccBinary
    program: Program
    predicate: Formula
    proof: Proof


def canonicalize_invariants(
        invariants: Mapping[int, Formula]) -> dict[int, Formula]:
    """Round-trip invariants through the LF wire encoding.

    Producer and consumer must compute *structurally identical* safety
    predicates, and the wire format canonicalizes bound-variable names; by
    certifying against the round-tripped invariants, the producer proves
    exactly the predicate the consumer will recompute.
    """
    result: dict[int, Formula] = {}
    for pc, formula in invariants.items():
        encoded = encode_formula(formula, {}, 0)
        result[pc] = decode_logic_formula(encoded)
    return result


def certify(source: str | Program, policy: SafetyPolicy,
            invariants: Mapping[int, Formula] | None = None,
            ) -> CertificationResult:
    """Build a PCC binary for ``source`` under ``policy``.

    Raises :class:`CertificationError` if assembly, proving, or encoding
    fails — including the case where the prover is simply not clever
    enough (the paper's "requires intervention from the programmer").
    """
    try:
        if isinstance(source, str):
            program = parse_program(source)
        else:
            program = tuple(source)

        canonical = canonicalize_invariants(invariants or {})
        predicate = safety_predicate(program, policy.precondition,
                                     policy.postcondition, canonical)
        proof = Prover().prove(predicate)
        proof_lf = encode_proof(proof, predicate)
        relocation, proof_bytes = pack_proof(proof_lf)
        invariant_bytes = pack_invariants(
            {pc: encode_formula(formula, {}, 0)
             for pc, formula in canonical.items()})
        binary = PccBinary(
            code=encode_program(program),
            relocation=relocation,
            proof=proof_bytes,
            invariants=invariant_bytes,
        )
        return CertificationResult(binary, program, predicate, proof)
    except CertificationError:
        raise
    except PccError as error:
        raise CertificationError(f"certification failed: {error}") from error
