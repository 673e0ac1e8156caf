#!/usr/bin/env python3
"""Run-time safety-policy negotiation (paper §4 future work, implemented).

"Another possibility is to allow the consumer and producer to 'negotiate'
a safety policy at run time ... If the consumer determines that the
proposed policy implies some basic notion of safety, then it can allow the
producer to produce PCC binaries using the new policy."

A monitoring application wants its filters certified against a *simpler*
vocabulary than the kernel's full packet-filter policy: "the first 32
bytes of the packet are readable, full stop".  It sends the kernel the
proposed precondition together with a PCC proof that the kernel's own
guarantees imply it; the kernel validates that implication and from then
on accepts binaries certified under the simpler policy.

Run:  python examples/policy_negotiation.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import CertificationError, ValidationError
from repro.filters.policy import packet_filter_policy
from repro.logic.formulas import Forall, Implies, conj, eq, ge, lt, rd
from repro.logic.pretty import pp_formula
from repro.logic.terms import Var, add64, and64
from repro.pcc import certify, validate
from repro.pcc.negotiate import accept_policy, propose_policy
from repro.vcgen.policy import word_identity


def headers_only_precondition():
    """The proposed vocabulary: 32 readable header bytes."""
    r1, i = Var("r1"), Var("i")
    guard = conj([ge(i, 0), lt(i, 32), eq(and64(i, 7), 0)])
    return conj([word_identity(r1),
                 Forall("i", Implies(guard, rd(add64(r1, i))))])


def main() -> None:
    kernel_policy = packet_filter_policy()
    proposed = headers_only_precondition()
    print("Proposed precondition:")
    print(" ", pp_formula(proposed), "\n")

    # -- producer: prove  BasePre => Proposed,  pack the proposal ----------
    proposal = propose_policy(kernel_policy, proposed)
    wire = proposal.to_bytes()
    print(f"Proposal packed: {len(wire)} bytes "
          f"(precondition + implication proof).")

    # -- consumer: validate the implication, adopt the policy ---------------
    negotiated = accept_policy(kernel_policy, wire)
    print(f"Kernel accepted; negotiated policy: {negotiated.name!r}\n")

    # -- the simpler vocabulary in action ------------------------------------
    ethertype_filter = """
        LDQ    r4, 8(r1)
        EXTWL  r4, 4, r4
        CMPEQ  r4, 8, r0
        RET
    """
    certified = certify(ethertype_filter, negotiated)
    report = validate(certified.binary.to_bytes(), negotiated)
    print(f"Filter certified under the negotiated policy "
          f"({report.proof_bytes}-byte proof) and validated in "
          f"{report.validation_seconds * 1000:.1f} ms.")

    # Narrowing is real: offset 40 was fine under the kernel policy but is
    # outside the negotiated 32-byte window.
    try:
        certify("LDQ r4, 40(r1)\nADDQ r4, 0, r0\nRET", negotiated)
    except CertificationError:
        print("A filter reading offset 40 is (correctly) uncertifiable "
              "under the negotiated policy.")

    # And a greedy proposal cannot even be constructed:
    r1, i = Var("r1"), Var("i")
    greedy = conj([word_identity(r1),
                   Forall("i", Implies(
                       conj([ge(i, 0), lt(i, 1 << 20),
                             eq(and64(i, 7), 0)]),
                       rd(add64(r1, i))))])
    try:
        propose_policy(kernel_policy, greedy)
    except CertificationError:
        print("A proposal asking for a megabyte of packet is "
              "(correctly) unprovable — negotiation grants vocabulary, "
              "never authority.")


if __name__ == "__main__":
    main()
