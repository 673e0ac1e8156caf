"""The proof renderer reads every step off the signature as the encoder
does: it validates while it prints, rejects invalid proofs, and handles
sharing."""

import pytest

from repro.errors import ProofError
from repro.logic.formulas import And, Implies, Truth, eq
from repro.logic.terms import Var
from repro.proof.explain import explain_proof
from repro.proof.proofs import Proof


class TestExplain:
    def test_simple_tree(self):
        goal = And(Truth(), Truth())
        proof = Proof("andi", (), (Proof("truei"), Proof("truei")))
        text = explain_proof(proof, goal)
        assert "andi" in text and text.count("truei") == 2

    def test_hypothesis_annotation(self):
        goal = Implies(eq(Var("x"), 1), eq(Var("x"), 1))
        proof = Proof("impi", ("h",), (Proof("hyp", ("h",)),))
        text = explain_proof(proof, goal)
        assert "[h: x = 1]" in text

    def test_shared_subproofs_referenced(self):
        shared = Proof("andi", (), (Proof("truei"), Proof("truei")))
        proof = Proof("andi", (), (shared, shared))
        goal = And(And(Truth(), Truth()), And(Truth(), Truth()))
        text = explain_proof(proof, goal)
        assert "[see #" in text

    def test_invalid_proof_rejected(self):
        with pytest.raises(ProofError):
            explain_proof(Proof("truei"), eq(1, 2))
        with pytest.raises(ProofError):
            explain_proof(Proof("wizardry"), Truth())

    def test_depth_elision(self):
        goal = Truth()
        proof = Proof("truei")
        for __ in range(5):
            goal = And(goal, Truth())
            proof = Proof("andi", (), (proof, Proof("truei")))
        text = explain_proof(proof, goal, max_depth=2)
        assert "..." in text

    def test_real_certified_proof(self, resource_certified):
        text = explain_proof(resource_certified.proof,
                             resource_certified.predicate, max_depth=40)
        assert "mod_word" in text
        assert "norm_mod_eq" in text
        assert "eqsub" in text
