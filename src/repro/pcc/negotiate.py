"""Run-time safety-policy negotiation (paper §4, future work).

"Another possibility is to allow the consumer and producer to 'negotiate'
a safety policy at run time.  This would work by allowing the producer to
send an encoding of a proposed safety policy ... to the consumer.  If the
consumer determines that the proposed policy implies some basic notion of
safety, then it can allow the producer to produce PCC binaries using the
new policy."

The mechanism falls out of the machinery already in place:

* the producer proposes a new *precondition* ``P`` (an encoded formula),
  together with a PCC proof of the implication ``BasePre => P`` — where
  ``BasePre`` is the consumer's own published precondition;
* the consumer validates that implication with the ordinary LF type
  checker.  If it holds, every invocation state the consumer guarantees
  (``BasePre``) also satisfies ``P``, so binaries certified under the
  *proposed* policy are safe to run under the consumer's invocation
  contract;
* thereafter the consumer validates the producer's binaries against the
  proposed policy.

Everything stays proof-checked; the producer never gains authority, only
vocabulary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import CertificationError, PccError, ValidationError
from repro.lf.binary import deserialize_lf, serialize_lf
from repro.lf.encode import decode_logic_formula, encode_formula
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.lf.typecheck import check_proof_term
from repro.logic.formulas import Formula, Implies
from repro.proof.encode import encode_proof
from repro.prover import Prover
from repro.vcgen.policy import SafetyPolicy


@dataclass(frozen=True)
class PolicyProposal:
    """The wire message a producer sends to open a negotiation."""

    precondition_table: bytes
    precondition_stream: bytes
    proof_table: bytes
    proof_stream: bytes

    def to_bytes(self) -> bytes:
        from repro.pcc.container import _read_varint, _varint

        out = bytearray()
        for section in (self.precondition_table, self.precondition_stream,
                        self.proof_table, self.proof_stream):
            out += _varint(len(section))
            out += section
        return bytes(out)

    def digest(self) -> str:
        """Content address of the proposal (sha256 over its sections).

        Mirrors the loader's keying discipline
        (:func:`repro.pcc.loader.policy_fingerprint`): two proposals with
        the same digest carry byte-identical preconditions and proofs, so
        a consumer may cache its accept/reject decision on this key.
        """
        hasher = hashlib.sha256()
        for section in (self.precondition_table, self.precondition_stream,
                        self.proof_table, self.proof_stream):
            hasher.update(len(section).to_bytes(4, "little"))
            hasher.update(section)
        return hasher.hexdigest()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PolicyProposal":
        from repro.pcc.container import _read_varint

        sections = []
        offset = 0
        for __ in range(4):
            length, offset = _read_varint(data, offset)
            if offset + length > len(data):
                raise ValidationError("truncated policy proposal")
            sections.append(data[offset:offset + length])
            offset += length
        if offset != len(data):
            raise ValidationError("trailing bytes in policy proposal")
        return cls(*sections)


def propose_policy(base: SafetyPolicy,
                   proposed_precondition: Formula) -> PolicyProposal:
    """Producer side: prove ``BasePre => P`` and pack the proposal.

    Raises :class:`CertificationError` when the implication is not
    provable — i.e. the proposal asks for more than the consumer's
    invocation contract guarantees.
    """
    implication = Implies(base.precondition, proposed_precondition)
    try:
        proof_lf = encode_proof(Prover().prove(implication), implication)
    except PccError as error:
        raise CertificationError(
            f"cannot justify proposed policy: {error}") from error
    pre_table, pre_stream = serialize_lf(
        encode_formula(proposed_precondition, {}, 0))
    proof_table, proof_stream = serialize_lf(proof_lf)
    return PolicyProposal(pre_table, pre_stream, proof_table, proof_stream)


def accept_policy(base: SafetyPolicy,
                  proposal: PolicyProposal | bytes) -> SafetyPolicy:
    """Consumer side: validate the proposal; returns the negotiated
    policy to validate future binaries against.

    Raises :class:`ValidationError` if the enclosed proof does not
    establish ``BasePre => P`` for the enclosed ``P``.

    The returned policy has a different loader fingerprint than ``base``
    whenever ``P`` differs from ``BasePre`` (the fingerprint covers the
    precondition bytes), so any :class:`repro.pcc.loader.ExtensionLoader`
    cache entries made under the old contract can never satisfy a load
    under the new one.
    """
    if isinstance(proposal, bytes):
        proposal = PolicyProposal.from_bytes(proposal)
    try:
        precondition_lf = deserialize_lf(proposal.precondition_table,
                                         proposal.precondition_stream)
        proposed = decode_logic_formula(precondition_lf)
        proof_term = deserialize_lf(proposal.proof_table,
                                    proposal.proof_stream)
    except PccError as error:
        raise ValidationError(
            f"malformed policy proposal: {error}") from error

    implication = Implies(base.precondition, proposed)
    expected = LfApp(LfConst("pf"), encode_formula(implication, {}, 0))
    try:
        check_proof_term(proof_term, expected, SIGNATURE)
    except PccError as error:
        raise ValidationError(
            f"policy proposal does not imply the base policy's "
            f"guarantees: {error}") from error

    return SafetyPolicy(
        name=f"{base.name}+negotiated",
        precondition=proposed,
        postcondition=base.postcondition,
        # Invocation states still come from the base contract, so the
        # semantic interpretation (used by tests/abstract machine) is
        # inherited unchanged.
        make_checkers=base.make_checkers,
    )
