"""Run-time policy negotiation (§4 future work, implemented).

The producer proposes a new precondition P with a proof that the base
policy's guarantees imply it; the consumer validates the implication and
then accepts binaries certified under P.
"""

import pytest

from repro.errors import CertificationError, ValidationError
from repro.logic.formulas import Forall, Implies, conj, eq, ge, lt, rd
from repro.logic.terms import Var, add64, and64
from repro.pcc import certify, validate
from repro.pcc.negotiate import PolicyProposal, accept_policy, propose_policy
from repro.vcgen.policy import word_identity


def _restricted_precondition():
    """A weaker vocabulary: only the first 32 bytes are readable."""
    r1 = Var("r1")
    i = Var("i")
    guard = conj([ge(i, 0), lt(i, 32), eq(and64(i, 7), 0)])
    return conj([
        word_identity(r1),
        Forall("i", Implies(guard, rd(add64(r1, i)))),
    ])


class TestNegotiation:
    def test_round_trip(self, filter_policy):
        proposal = propose_policy(filter_policy,
                                  _restricted_precondition())
        blob = proposal.to_bytes()
        negotiated = accept_policy(filter_policy,
                                   PolicyProposal.from_bytes(blob))
        assert negotiated.name.endswith("+negotiated")

        # a binary certified under the negotiated policy validates
        certified = certify("LDQ r4, 8(r1)\nADDQ r4, 0, r0\nRET",
                            negotiated)
        report = validate(certified.binary.to_bytes(), negotiated)
        assert report.instructions == 3

        # and runs safely under the BASE policy's semantics (that is the
        # entire point of requiring BasePre => P)
        from repro.filters.policy import filter_registers, packet_memory
        from repro.alpha.abstract import AbstractMachine
        frame = bytes(range(64))
        registers = filter_registers(len(frame))
        can_read, can_write = filter_policy.checkers(registers,
                                                     lambda a: 0)
        AbstractMachine(report.program, packet_memory(frame), can_read,
                        can_write, registers).run()

    def test_overreaching_proposal_rejected_at_source(self, filter_policy):
        """Asking to read beyond what the base policy guarantees cannot
        even be proposed (the producer cannot prove the implication)."""
        r1, i = Var("r1"), Var("i")
        greedy = conj([
            word_identity(r1),
            Forall("i", Implies(
                conj([ge(i, 0), lt(i, 4096), eq(and64(i, 7), 0)]),
                rd(add64(r1, i)))),
        ])
        with pytest.raises(CertificationError):
            propose_policy(filter_policy, greedy)

    def test_forged_proposal_rejected_by_consumer(self, filter_policy):
        """Swapping the proposed precondition after proving invalidates
        the proof."""
        honest = propose_policy(filter_policy, _restricted_precondition())
        from repro.lf.binary import serialize_lf
        from repro.lf.encode import encode_formula
        r1 = Var("r1")
        greedy = conj([
            word_identity(r1),
            Forall("i", Implies(
                conj([ge(Var("i"), 0), lt(Var("i"), 4096),
                      eq(and64(Var("i"), 7), 0)]),
                rd(add64(r1, Var("i"))))),
        ])
        table, stream = serialize_lf(encode_formula(greedy, {}, 0))
        forged = PolicyProposal(table, stream, honest.proof_table,
                                honest.proof_stream)
        with pytest.raises(ValidationError):
            accept_policy(filter_policy, forged)

    def test_garbage_proposal_rejected(self, filter_policy):
        with pytest.raises(ValidationError):
            accept_policy(filter_policy, b"\x00\x01garbage")

    def test_base_binary_may_fail_negotiated_policy(self, filter_policy):
        """Narrowing works both ways: a binary reading offset 40 is fine
        under the base policy but not under the 32-byte proposal."""
        negotiated = accept_policy(
            filter_policy,
            propose_policy(filter_policy, _restricted_precondition()))
        source = "LDQ r4, 40(r1)\nADDQ r4, 0, r0\nRET"
        certify(source, filter_policy)  # fine under base
        with pytest.raises(CertificationError):
            certify(source, negotiated)
