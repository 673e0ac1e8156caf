"""Proof objects and the trusted proof checker (the rule set Delta, §2.2).

A proof is a natural-deduction tree (:class:`repro.proof.proofs.Proof`);
the checker (:mod:`repro.proof.checker`) verifies, top-down, that the tree
proves a given goal formula under the rules in :mod:`repro.proof.rules`:

* the predicate-calculus rules (implication/conjunction/disjunction
  introduction and elimination, universal quantification, hypotheses), and
* the two's-complement arithmetic rules — the paper's "first-order
  predicate calculus extended with two's-complement integer arithmetic".

Each arithmetic rule is an axiom *schema* whose instances are verified by a
small side-condition computation (e.g. evaluating a ground inequality, or
checking a Fourier-Motzkin refutation for the ``linarith`` rule).  Every
schema's unconditional soundness is property-tested by random instantiation
in ``tests/proof/test_rule_soundness.py``.

This checker and the LF type checker (:mod:`repro.lf`) are independent
validators of the same proofs; the PCC pipeline uses LF (as in the paper)
and the test suite cross-checks the two on every shipped proof.
"""
