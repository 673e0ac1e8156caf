"""The automatic theorem prover (certification, paper §2.2).

Given a safety predicate from the VC generator, :class:`~repro.prover.prover.Prover`
searches for a natural-deduction proof whose steps are the LF signature's
proof constants.  The search
is goal-directed and deterministic: quantifiers and implications are
introduced structurally, hypotheses are decomposed into a fact database,
and atoms are discharged by a handful of strategies (fact lookup modulo
word-equality, universal-fact instantiation, the arithmetic schemas, and a
linear-arithmetic pipeline that bridges machine operators to pure integer
arithmetic).

Like the paper's prover this is a *producer-side, untrusted* component:
the encoder reads every step it emits off the signature, and the
consumer's LF type checker checks the proof that ships.  It is complete enough to certify
every program shipped in this repository fully automatically — the paper
reports the same experience for packet filters.
"""

from repro.prover.prover import Prover, prove_safety_predicate

__all__ = ["Prover", "prove_safety_predicate"]
