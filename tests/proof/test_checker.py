"""Unit tests for the producer's proof steps: each signature constant's
valid instances encode to proofs both LF checkers accept, and malformed
ones are rejected by the encoder or by both checkers.  The checkers are
the consumer's trusted code, so the rejection cases matter as much as the
acceptance cases."""

import pytest

from repro.errors import ProofError
from repro.lf.arith import SCHEMAS
from repro.logic.formulas import (
    And,
    Falsity,
    Forall,
    Implies,
    Or,
    Truth,
    conj,
    eq,
    ge,
    le,
    lt,
    ne,
    rd,
)
from repro.logic.terms import App, Int, Var, add64, mod64, sel, srl64
from repro.proof.proofs import Proof, proof_rules_used, proof_size
from tests.proof_checks import lf_accepts, lf_rejects


def ok(proof, goal, hyps=None):
    lf_accepts(proof, goal, hyps)


def bad(proof, goal, hyps=None):
    lf_rejects(proof, goal, hyps)


def hyps_proof(*labels):
    """The andi chain of ``hyp`` steps proving a ``linarith`` step's
    conjunction of premises."""
    proofs = [Proof("hyp", (label,)) for label in labels]
    result = proofs[-1]
    for proof in reversed(proofs[:-1]):
        result = Proof("andi", (), (proof, result))
    return result


class TestPropositional:
    def test_truei(self):
        ok(Proof("truei"), Truth())
        bad(Proof("truei"), Falsity())

    def test_andi(self):
        goal = And(Truth(), Truth())
        ok(Proof("andi", (), (Proof("truei"), Proof("truei"))), goal)
        bad(Proof("andi", (), (Proof("truei"),)), goal)
        bad(Proof("andi", (), (Proof("truei"), Proof("truei"))), Truth())

    def test_projections(self):
        both = Proof("andi", (), (Proof("eqrefl"), Proof("eqrefl")))
        ok(Proof("andel", (eq(2, 2),), (both,)), eq(1, 1))
        ok(Proof("ander", (eq(1, 1),), (both,)), eq(2, 2))
        # claiming a different right conjunct makes the andi premise
        # oblige eq(3, 4), which eqrefl cannot prove
        bad(Proof("andel", (eq(3, 4),), (both,)), eq(1, 1))

    def test_impi_and_hyp(self):
        goal = Implies(eq(Var("x"), 1), eq(Var("x"), 1))
        ok(Proof("impi", ("h",), (Proof("hyp", ("h",)),)), goal)
        # label shadowing in scope is rejected
        bad(Proof("impi", ("h",), (Proof("hyp", ("h",)),)), goal,
            {"h": Truth()})
        # hypothesis mismatch
        bad(Proof("impi", ("h",), (Proof("hyp", ("h",)),)),
            Implies(eq(Var("x"), 1), eq(Var("x"), 2)))

    def test_impe(self):
        hyps = {"imp": Implies(Truth(), eq(1, 1)), "t": Truth()}
        proof = Proof("impe", (Truth(),),
                      (Proof("hyp", ("imp",)), Proof("hyp", ("t",))))
        ok(proof, eq(1, 1), hyps)
        bad(proof, eq(1, 2), hyps)

    def test_disjunction(self):
        goal = Or(eq(1, 1), Falsity())
        ok(Proof("ori1", (), (Proof("eqrefl"),)), goal)
        bad(Proof("ori2", (), (Proof("eqrefl"),)), goal)

    def test_ore(self):
        hyps = {"or": Or(Truth(), Truth())}
        branch = Proof("impi", ("u",), (Proof("truei"),))
        proof = Proof("ore", (Truth(), Truth()),
                      (Proof("hyp", ("or",)), branch, branch))
        ok(proof, Truth(), hyps)

    def test_falsee(self):
        hyps = {"boom": Falsity()}
        ok(Proof("falsee", (), (Proof("hyp", ("boom",)),)), eq(1, 2), hyps)

    def test_unknown_rule(self):
        bad(Proof("abracadabra"), Truth())


class TestQuantifiers:
    def test_alli(self):
        goal = Forall("x", eq(Var("x"), Var("x")))
        ok(Proof("alli", ("x",), (Proof("eqrefl"),)), goal)

    def test_alli_eigenvariable_condition(self):
        goal = Forall("x", eq(Var("x"), Var("y")))
        # eigenvariable occurring in a hypothesis is rejected
        bad(Proof("alli", ("z",),
                  (Proof("hyp", ("h",)),)), goal, {"h": eq(Var("z"), 1)})
        # eigenvariable free in the goal is rejected
        bad(Proof("alli", ("y",), (Proof("eqrefl"),)), goal)

    def test_alle(self):
        source = Forall("i", ge(Var("i"), Var("i")))
        hyps = {"all": source}
        proof = Proof("alle", (source, Int(7)), (Proof("hyp", ("all",)),))
        ok(proof, ge(7, 7), hyps)
        bad(proof, ge(8, 8), hyps)


class TestEquality:
    def test_eqrefl(self):
        ok(Proof("eqrefl"), eq(add64(Var("x"), 1), add64(Var("x"), 1)))
        bad(Proof("eqrefl"), eq(Var("x"), Var("y")))

    def test_eqsym_eqtrans(self):
        hyps = {"ab": eq(Var("a"), Var("b")), "bc": eq(Var("b"), Var("c"))}
        ok(Proof("eqsym", (), (Proof("hyp", ("ab",)),)),
           eq(Var("b"), Var("a")), hyps)
        ok(Proof("eqtrans", (Var("b"),),
                 (Proof("hyp", ("ab",)), Proof("hyp", ("bc",)))),
           eq(Var("a"), Var("c")), hyps)

    def test_eqsub(self):
        hyps = {"ab": eq(Var("a"), Var("b")), "ra": rd(Var("a"))}
        template = Forall("?h", rd(Var("?h")))
        proof = Proof("eqsub", (template, Var("a"), Var("b")),
                      (Proof("hyp", ("ab",)), Proof("hyp", ("ra",))))
        ok(proof, rd(Var("b")), hyps)
        bad(proof, rd(Var("c")), hyps)


class TestArithmeticSchemas:
    def test_arith_eval(self):
        ok(Proof("arith_eval"), lt(3, 4))
        bad(Proof("arith_eval"), lt(4, 3))
        bad(Proof("arith_eval"), lt(Var("x"), 4))  # not ground
        # memory-dependent atoms are never "ground"
        bad(Proof("arith_eval"), eq(sel(Var("rm"), 0), 0))

    def test_mod_word(self):
        term = add64(Var("a"), Var("b"))
        ok(Proof("mod_word"), eq(mod64(term), term))
        bad(Proof("mod_word"), eq(mod64(Var("a")), Var("a")))  # plain var

    def test_norm_mod_eq(self):
        left = add64(add64(Var("x"), 8), (1 << 64) - 8)
        ok(Proof("norm_mod_eq"), eq(mod64(left), mod64(Var("x"))))
        bad(Proof("norm_mod_eq"), eq(mod64(left), mod64(Var("y"))))

    def test_word_bounds(self):
        term = srl64(Var("x"), 3)
        ok(Proof("word_ge0"), ge(term, 0))
        ok(Proof("word_lt_mod"), lt(term, 1 << 64))
        bad(Proof("word_ge0"), ge(Var("x"), 0))

    def test_cmp_semantics(self):
        a, b = Var("a"), Var("b")
        flag = App("cmpult", (a, b))
        hyps = {"f": ne(flag, 0)}
        proof = Proof("cmpult_true", (), (Proof("hyp", ("f",)),))
        ok(proof, lt(mod64(a), mod64(b)), hyps)
        bad(proof, lt(mod64(b), mod64(a)), hyps)

    def test_add64_exact_premises_required(self):
        a, b = Var("a"), Var("b")
        goal = eq(add64(a, b), App("add", (a, b)))
        bad(Proof("add64_exact", (), ()), goal)  # missing premises

    def test_and_mask_disjoint(self):
        term = App("and64", (App("and64", (Var("x"), Int(248))), Int(7)))
        ok(Proof("and_mask_disjoint"), eq(term, 0))
        overlapping = App("and64",
                          (App("and64", (Var("x"), Int(12))), Int(7)))
        bad(Proof("and_mask_disjoint"), eq(overlapping, 0))

    def test_linarith(self):
        # x - 56 <= 0, 64 - y <= 0 and the negated goal y - x <= 0 sum to
        # 8 <= 0.
        premises = (le(Var("x"), 56), ge(Var("y"), 64))
        hyps = {"p0": premises[0], "p1": premises[1]}
        proof = Proof("linarith", (conj(premises), (1, 1, 1)),
                      (hyps_proof("p0", "p1"),))
        ok(proof, lt(Var("x"), Var("y")), hyps)
        bad(proof, lt(Var("y"), Var("x")), hyps)

    @pytest.mark.parametrize("weights, reason", [
        ((1, 1), "one weight per row"),
        ((1, 1, 1, 1), "one weight per row"),
        ((1, -1, 1), "nonnegative integers"),
        ((1, True, 1), "nonnegative integers"),
        ((1, 1.0, 1), "nonnegative integers"),
        ((1, 2, 1), "does not follow"),
        ((0, 0, 0), "does not follow"),
    ])
    def test_linarith_rejects_bad_certificates(self, weights, reason):
        premises = (le(Var("x"), 56), ge(Var("y"), 64))
        goal = lt(Var("x"), Var("y"))
        proof = Proof("linarith", (conj(premises), weights),
                      (hyps_proof("p0", "p1"),))
        assert lf_rejects(proof, goal,
                          {"p0": premises[0], "p1": premises[1]},
                          match="side condition") == "checker"
        # The side condition runs this schema; it says why.
        with pytest.raises(ProofError, match=reason):
            SCHEMAS["linarith"](goal, (*premises, weights), {})

    def test_linarith_needs_a_certificate(self):
        premises = (le(Var("x"), 56), ge(Var("y"), 64))
        proof = Proof("linarith", premises, (hyps_proof("p0", "p1"),))
        assert lf_rejects(proof, lt(Var("x"), Var("y")),
                          {"p0": premises[0], "p1": premises[1]}) \
            == "producer"

    def test_linarith_cannot_use_ne_premises(self):
        # The ne premise has no rows; the negated goal y = x has two, and
        # no weights cancel them into a positive constant.
        premise = ne(Var("x"), Var("y"))
        for weights in ((1, 1), (0, 1), (2, 1)):
            proof = Proof("linarith", (premise, weights),
                          (Proof("hyp", ("p",)),))
            bad(proof, ne(Var("y"), Var("x")), {"p": premise})

    def test_linarith_eq_goal_needs_both_branches(self):
        # The goal x = 5 negates to x <= 4 or x >= 6: one refutation per
        # branch, each against the premises x <= 5 and x >= 5.
        premises = (le(Var("x"), 5), ge(Var("x"), 5))
        hyps = {"p0": premises[0], "p1": premises[1]}
        premise_proof = hyps_proof("p0", "p1")
        ok(Proof("linarith", (conj(premises), (0, 1, 1, 1, 0, 1)),
                 (premise_proof,)), eq(Var("x"), 5), hyps)
        bad(Proof("linarith", (conj(premises), (0, 1, 1)),
                  (premise_proof,)),
            eq(Var("x"), 5), hyps)


class TestAccounting:
    def test_proof_size_counts_shared_once(self):
        shared = Proof("eqrefl")
        proof = Proof("andi", (), (shared, shared))
        assert proof_size(proof) == 2

    def test_rules_used(self):
        proof = Proof("andi", (), (Proof("truei"), Proof("truei")))
        assert proof_rules_used(proof) == {"andi": 1, "truei": 2}
