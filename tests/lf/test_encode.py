"""Formula/term/proof encoding into LF, and the decoding side conditions
rely on.  The key invariants:

* every Delta-checked proof encodes to a *well-typed* LF object whose type
  is ``pf(encoding of the goal)`` — validated here for representative
  proofs of every rule family;
* formula decoding is a left inverse of encoding up to canonical bound
  names (what invariant canonicalization depends on).
"""

import pytest

from repro.errors import LfError
from repro.lf.encode import (
    decode_logic_formula,
    decode_logic_term,
    encode_formula,
    encode_term,
)
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst, LfInt, LfLam, LfVar, lf_app
from repro.lf.typecheck import check_proof_term
from repro.logic.formulas import (
    And,
    Forall,
    Implies,
    Truth,
    eq,
    ge,
    le,
    lt,
    ne,
    rd,
)
from repro.logic.terms import Int, Var, add64, and64, mod64, sel, srl64
from repro.proof.checker import check_proof
from repro.proof.encode import encode_proof
from repro.proof.proofs import Proof


def _validate(proof, goal):
    """Check with Delta, encode, check with LF — both must accept."""
    check_proof(proof, goal)
    lf_proof = encode_proof(proof, goal)
    expected = LfApp(LfConst("pf"), encode_formula(goal, {}, 0))
    check_proof_term(lf_proof, expected, SIGNATURE)


class TestTermEncoding:
    def test_integers(self):
        assert encode_term(Int(7), {}, 0) == LfInt(7)

    def test_operators(self):
        term = add64(Int(1), Int(2))
        assert encode_term(term, {}, 0) == \
            lf_app(LfConst("add64"), LfInt(1), LfInt(2))

    def test_bound_variables(self):
        assert encode_term(Var("x"), {"x": 0}, 1) == LfVar(0)
        assert encode_term(Var("x"), {"x": 0}, 3) == LfVar(2)

    def test_free_registers_become_constants(self):
        assert encode_term(Var("r4"), {}, 0) == LfConst("r4")

    def test_unknown_free_variable_rejected(self):
        with pytest.raises(LfError):
            encode_term(Var("mystery"), {}, 0)

    def test_term_decode_round_trip(self):
        term = and64(srl64(sel(Var("rm"), add64(Var("r1"), 8)), 46), 60)
        encoded = encode_term(term, {}, 0)
        assert decode_logic_term(encoded) == term


class TestFormulaEncoding:
    def test_quantifier_sorts(self):
        individual = Forall("i", ge(Var("i"), 0))
        memory = Forall("rm", eq(sel(Var("rm"), 0), 0))
        enc_i = encode_formula(individual, {}, 0)
        enc_m = encode_formula(memory, {}, 0)
        assert enc_i.fn == LfConst("all")
        assert enc_m.fn == LfConst("allm")
        assert enc_i.arg.ty == LfConst("tm")
        assert enc_m.arg.ty == LfConst("mem")

    def test_decode_canonicalizes_bound_names(self):
        formula = Forall("i", Implies(lt(Var("i"), Var("r2")),
                                      rd(add64(Var("r1"), Var("i")))))
        encoded = encode_formula(formula, {}, 0)
        decoded = decode_logic_formula(encoded)
        assert isinstance(decoded, Forall)
        assert decoded.var == "v0"
        # decode is idempotent through another round trip
        again = decode_logic_formula(encode_formula(decoded, {}, 0))
        assert again == decoded

    def test_decode_rejects_junk(self):
        with pytest.raises(LfError):
            decode_logic_formula(LfInt(3))


class TestDecodingSharing:
    """A node shared on the wire decodes once, to one shared logic node:
    a 16-level sharing chain is 2^16 nodes as a tree."""

    DEPTH = 16

    @classmethod
    def _terms(cls):
        """``t_0 = 1``, ``t_{k+1} = add64(t_k, t_k)``, as LF."""
        term = LfInt(1)
        for __ in range(cls.DEPTH):
            term = lf_app(LfConst("add64"), term, term)
        return term

    @classmethod
    def _assert_shared(cls, term):
        """Each ``add64`` level's two children are one object."""
        for __ in range(cls.DEPTH - 1):
            left, right = term.args
            assert left is right
            term = left
        assert term.args == (Int(1), Int(1))

    def test_shared_term_decodes_shared(self):
        self._assert_shared(decode_logic_term(self._terms()))

    def test_shared_formula_decodes_shared(self):
        """``f_0 = eq(t, t)`` with ``t = add64(x, 1)`` under a quantifier
        on ``x``, ``f_{k+1} = and(f_k, f_k)``: connectives, atoms and the
        scoped terms in them."""
        term = lf_app(LfConst("add64"), LfVar(0), LfInt(1))
        formula = lf_app(LfConst("eq"), term, term)
        for __ in range(self.DEPTH):
            formula = lf_app(LfConst("and"), formula, formula)
        decoded = decode_logic_formula(
            LfApp(LfConst("all"), LfLam(LfConst("tm"), formula)))
        assert decoded.var == "v0"
        decoded = decoded.body
        for __ in range(self.DEPTH):
            assert decoded.left is decoded.right
            decoded = decoded.left
        left, right = decoded.args
        assert left is right
        assert left == add64(Var("v0"), 1)


class TestProofEncoding:
    def test_propositional_families(self):
        goal = Implies(eq(Var("r0"), 0),
                       And(Truth(), eq(Var("r0"), 0)))
        proof = Proof("impi", ("h",), (
            Proof("andi", (), (Proof("truei"), Proof("hyp", ("h",)))),))
        _validate(proof, goal)

    def test_quantifier_families(self):
        goal = Forall("x", Implies(eq(Var("x"), 1), eq(Var("x"), 1)))
        proof = Proof("alli", ("x",), (
            Proof("impi", ("h",), (Proof("hyp", ("h",)),)),))
        _validate(proof, goal)

    def test_memory_quantifier(self):
        goal = Forall("rm", Implies(ne(sel(Var("rm"), 8), 0),
                                    ne(sel(Var("rm"), 8), 0)))
        proof = Proof("alli", ("rm",), (
            Proof("impi", ("h",), (Proof("hyp", ("h",)),)),))
        _validate(proof, goal)

    def test_equality_families(self):
        a = add64(Var("r1"), 8)
        goal = Implies(eq(mod64(a), a), eq(mod64(a), a))
        proof = Proof("impi", ("h",), (Proof("hyp", ("h",)),))
        _validate(proof, goal)
        # eqsub through a template
        goal2 = Implies(eq(Var("r1"), Var("r2")),
                        Implies(rd(Var("r1")), rd(Var("r2"))))
        proof2 = Proof("impi", ("e",), (
            Proof("impi", ("r",), (
                Proof("eqsub", (rd(Var("?h")), "?h", Var("r1"), Var("r2")),
                      (Proof("hyp", ("e",)), Proof("hyp", ("r",)))),)),))
        _validate(proof2, goal2)

    def test_arithmetic_families(self):
        term = add64(Var("r1"), Var("r2"))
        _validate(Proof("mod_word"), eq(mod64(term), term))
        _validate(Proof("arith_eval"), lt(3, 4))
        _validate(Proof("word_ge0"), ge(term, 0))
        masked = and64(and64(Var("r1"), Int(248)), Int(7))
        _validate(Proof("and_mask_disjoint"), eq(masked, 0))

    def test_linarith_encoding(self):
        premises = (le(Var("r1"), 56), ge(Var("r2"), 64))
        goal = Implies(premises[0], Implies(premises[1],
                                            lt(Var("r1"), Var("r2"))))
        proof = Proof("impi", ("a",), (
            Proof("impi", ("b",), (
                Proof("linarith", (*premises, (1, 1, 1)),
                      (Proof("hyp", ("a",)), Proof("hyp", ("b",)))),)),))
        _validate(proof, goal)

    def test_invalid_proof_rejected_by_encoder(self):
        with pytest.raises(LfError):
            encode_proof(Proof("truei"), eq(1, 2))

    def test_unknown_rule_rejected_by_encoder(self):
        with pytest.raises(LfError, match="unknown rule"):
            encode_proof(Proof("no_such_rule"), eq(1, 1))

    def test_shared_subproof_replayed_under_each_hypothesis(self):
        """One ``impi h. hyp h`` node proves ``A => A`` but not
        ``B => A``: the second use binds ``h`` to another formula at the
        same depth, so the memo may not answer for it."""
        a, b = eq(1, 1), eq(2, 2)
        shared = Proof("impi", ("h",), (Proof("hyp", ("h",)),))
        with pytest.raises(LfError, match="does not match"):
            encode_proof(Proof("andi", (), (shared, shared)),
                         And(Implies(a, a), Implies(b, a)))
