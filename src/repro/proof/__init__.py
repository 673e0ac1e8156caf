"""Natural-deduction proofs: the producer's proof layer (rule set Delta, §2.2).

A proof is a natural-deduction tree (:class:`repro.proof.proofs.Proof`)
under the rules in :mod:`repro.proof.rules`:

* the predicate-calculus rules (implication/conjunction/disjunction
  introduction and elimination, universal quantification, hypotheses), and
* the two's-complement arithmetic rules — the paper's "first-order
  predicate calculus extended with two's-complement integer arithmetic".

Each arithmetic rule is an axiom *schema*.  The ones whose instances need
a small side-condition computation (evaluating a ground inequality, or
summing the rows of the Farkas certificate a ``linarith`` step carries)
are the functions of :mod:`repro.lf.arith`, which the consumer's LF
signature runs too.  Every schema's unconditional soundness is
property-tested by random instantiation in
``tests/proof/test_rule_soundness.py``.

None of this package is in the consumer's trusted core.  The prover
builds these trees, and :mod:`repro.proof.encode` replays every rule
top-down while it encodes a tree as the LF object that ships; the
consumer type-checks that object (:mod:`repro.lf`).  The Delta checker
(:mod:`repro.proof.checker`) is a test reference: the suite cross-checks
it against the LF checker on every shipped proof.
"""
