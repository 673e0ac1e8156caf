"""Adversarial proofs: a malicious producer hands the checker garbage.

The consumer must reject every one of these without crashing — ProofError
is the only acceptable outcome.  Several cases target the exact soundness
pitfalls of the rule set (eigenvariable capture, schema side conditions,
premise-count confusion, parameter smuggling)."""

import pytest

from repro.errors import ProofError
from repro.logic.formulas import (
    And,
    Atom,
    Falsity,
    Forall,
    Implies,
    Truth,
    eq,
    ge,
    rd,
)
from repro.logic.terms import App, Int, Var, add64, and64, mod64
from repro.proof.checker import check_proof
from repro.proof.proofs import Proof


def rejected(proof, goal, hyps=None):
    with pytest.raises(ProofError):
        check_proof(proof, goal, hyps)


class TestForgery:
    def test_cannot_prove_falsity_from_nothing(self):
        for rule in ("truei", "eqrefl", "arith_eval", "hyp"):
            rejected(Proof(rule, params=("x",) if rule == "hyp" else ()),
                     Falsity())

    def test_unsound_universal_generalization(self):
        """ALL x. x = 7 from the hypothesis x = 7 — classic eigenvariable
        violation."""
        goal = Forall("x", eq(Var("x"), 7))
        proof = Proof("alli", ("x",), (Proof("hyp", ("h",)),))
        rejected(proof, goal, {"h": eq(Var("x"), 7)})

    def test_bogus_arith_eval(self):
        rejected(Proof("arith_eval"), eq(Int(2), Int(3)))

    def test_smuggled_linarith(self):
        """Premises that do NOT imply the goal: no weights on -x <= 0 and
        the negated goal x <= 0 leave a positive constant."""
        premises = (ge(Var("x"), 0),)
        for weights in ((1, 1), (0, 1), (1, 0), (3, 5)):
            proof = Proof("linarith", (*premises, weights),
                          (Proof("hyp", ("p",)),))
            with pytest.raises(ProofError, match="does not follow"):
                check_proof(proof, ge(Var("x"), 1), {"p": premises[0]})

    def test_mod_word_on_unbounded_variable(self):
        rejected(Proof("mod_word"), eq(mod64(Var("x")), Var("x")))

    def test_add64_exact_wrong_conclusion(self):
        a, b = Var("a"), Var("b")
        goal = eq(add64(a, b), App("add", (a, Int(0))))
        rejected(Proof("add64_exact", (),
                       (Proof("truei"), Proof("truei"), Proof("truei"))),
                 goal)

    def test_eqsub_template_mismatch(self):
        """The claimed template does not produce the goal."""
        template = rd(Var("?h"))
        proof = Proof("eqsub", (template, "?h", Var("a"), Var("b")),
                      (Proof("hyp", ("e",)), Proof("hyp", ("r",))))
        rejected(proof, rd(Var("a")),  # should be rd(b)
                 {"e": eq(Var("a"), Var("b")), "r": rd(Var("a"))})

    def test_premise_count_mismatch(self):
        goal = And(Truth(), Truth())
        rejected(Proof("andi", (), (Proof("truei"),) * 3), goal)

    def test_malformed_params_do_not_crash(self):
        """Garbage parameter types must raise ProofError, not TypeError."""
        for rule, params in (
                ("andel", (42,)),
                ("alle", (Truth(), "not a term"),),
                ("eqtrans", ("nonsense",)),
                ("eqsub", (1, 2, 3, 4)),
                ("impi", (None,))):
            with pytest.raises(ProofError):
                check_proof(Proof(rule, params, ()), Truth())
        # Strings where terms belong still reach the arithmetic, which
        # turns them down like any other non-consequence.
        premise = Atom("le", ("x", "y"))
        with pytest.raises(ProofError, match="does not follow"):
            check_proof(Proof("linarith", (premise, (1, 1)), ()),
                        Atom("lt", ("x", "y")))

    def test_cyclic_premises_depth_limited(self):
        """A pathologically deep proof hits the depth limit instead of
        exhausting the Python stack."""
        deep = Proof("truei")
        for __ in range(200):
            deep = Proof("andel", (Truth(),), (deep,))
        with pytest.raises(ProofError):
            check_proof(deep, Truth(), max_depth=50)

    def test_and_submask_reversed_masks(self):
        """Claiming 2040 is a submask of 8 must fail."""
        goal = eq(and64(Var("a"), Int(2040)), 0)
        proof = Proof("and_submask", (Int(8),), (Proof("hyp", ("p",)),))
        rejected(proof, goal, {"p": eq(and64(Var("a"), Int(8)), 0)})

    def test_disallowed_hypothetical_reuse_after_scope_exit(self):
        """A hypothesis introduced under one implication is not available
        in a sibling branch."""
        goal = And(Implies(eq(Var("x"), 1), eq(Var("x"), 1)),
                   eq(Var("x"), 1))
        proof = Proof(
            "andi", (),
            (Proof("impi", ("h",), (Proof("hyp", ("h",)),)),
             Proof("hyp", ("h",))))  # out of scope here
        rejected(proof, goal)
