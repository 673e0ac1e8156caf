"""Prover unit tests: each strategy exercised on a minimal goal, plus
failure behaviour (the prover must fail cleanly, never claim falsehoods —
every emitted proof is encoded and checked by both LF checkers here)."""

import pytest

from repro.errors import ProverError
from repro.logic.formulas import (
    And,
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
    wr,
)
from repro.logic.terms import (
    Int,
    Var,
    add64,
    and64,
    cmpult,
    mod64,
    or64,
    sel,
    sll64,
    srl64,
    sub64,
    upd,
)
from repro.prover import Prover, prove_safety_predicate
from tests.proof_checks import lf_accepts


def proves(goal):
    """Prove ``goal``; the proof, closed over the goal's free variables
    with ``alli`` steps, must encode and pass both LF checkers."""
    proof = Prover().prove(goal)
    lf_accepts(proof, goal)
    return proof


def fails(goal):
    with pytest.raises(ProverError):
        Prover().prove(goal)


class TestStructural:
    def test_truth(self):
        proves(Truth())

    def test_conjunction(self):
        proves(And(Truth(), eq(1, 1)))

    def test_implication_and_hypothesis(self):
        proves(Implies(eq(Var("x"), 1), eq(Var("x"), 1)))

    def test_conjunction_decomposition(self):
        hypothesis = And(eq(Var("x"), 1), ne(Var("y"), 0))
        proves(Implies(hypothesis, ne(Var("y"), 0)))

    def test_forall(self):
        proves(Forall("x", ge(mod64(Var("x")), 0)))

    def test_disjunction_introduction(self):
        proves(Or(eq(1, 2), eq(3, 3)))

    def test_case_split_on_or_hypothesis(self):
        disjunction = Or(eq(Var("x"), 1), eq(Var("x"), 1))
        proves(Implies(disjunction, eq(Var("x"), 1)))

    def test_ex_falso(self):
        # contradictory linear hypotheses prove anything
        hyps = And(lt(Var("x"), 3), ge(Var("x"), 5))
        proves(Implies(hyps, eq(Var("y"), 77)))

    def test_unprovable_fails_cleanly(self):
        fails(eq(Var("x"), Var("y")))
        fails(Forall("x", lt(Var("x"), 100)))


class TestWordEquality:
    def test_paper_arithmetic_rule(self):
        """e1 (+) e2 (-) e2 = e1 if e1 mod 2^64 = e1 — the paper's example
        rule, derived from the mod-chain."""
        e1 = Var("x")
        goal = Implies(eq(mod64(e1), e1),
                       eq(sub64(add64(e1, Var("y")), Var("y")), e1))
        proves(goal)

    def test_commutativity_modulo_words(self):
        a, b = add64(Var("x"), Var("y")), add64(Var("y"), Var("x"))
        proves(eq(a, b))

    def test_congruence_through_sel(self):
        precondition = eq(mod64(Var("r0")), Var("r0"))
        goal = Implies(precondition,
                       eq(sel(Var("rm"), add64(Var("r0"), 0)),
                          sel(Var("rm"), Var("r0"))))
        proves(goal)

    def test_constant_folding_of_zero_idiom(self):
        goal = eq(and64(sub64(Var("r4"), Var("r4")), 7), 0)
        proves(goal)

    def test_sel_upd_same(self):
        memory = upd(Var("rm"), Var("a"), Var("v"))
        goal = eq(sel(memory, Var("a")), mod64(Var("v")))
        proves(goal)

    def test_or_disjoint_rewrite(self):
        masked = and64(Var("x"), 248)
        aligned_base = and64(Var("y"), Int((1 << 64) - 2048))
        goal = eq(or64(masked, aligned_base), add64(masked, aligned_base))
        proves(goal)


class TestLinearArithmetic:
    def test_transitivity_via_constants(self):
        hyps = conj([le(Var("x"), 56), ge(Var("y"), 64)])
        proves(Implies(hyps, lt(Var("x"), Var("y"))))

    def test_cmp_flag_saturation(self):
        flag_fact = ne(cmpult(Var("x"), Var("y")), 0)
        hyps = conj([eq(mod64(Var("x")), Var("x")),
                     eq(mod64(Var("y")), Var("y")), flag_fact])
        proves(Implies(hyps, lt(Var("x"), Var("y"))))

    def test_and_bound_enrichment(self):
        term = and64(Var("x"), 60)
        proves(le(term, 60))
        proves(Implies(ge(Var("y"), 64), lt(term, Var("y"))))

    def test_add64_exact_bridging(self):
        # and64(x, 60) + 16 fits, so add64 becomes pure + and bounds flow
        small = and64(Var("x"), 60)
        total = add64(small, 16)
        proves(Implies(ge(Var("len"), 100), lt(total, Var("len"))))

    def test_shift_truncation_bound(self):
        truncated = sll64(srl64(Var("i"), 3), 3)
        hyps = conj([eq(mod64(Var("i")), Var("i")), lt(Var("i"), Var("n"))])
        proves(Implies(hyps, le(truncated, Var("i"))))

    def test_ne_goal(self):
        proves(Implies(ge(Var("x"), 1), ne(Var("x"), 0)))


class TestSafetyAtoms:
    def test_direct_fact(self):
        proves(Implies(rd(Var("r1")), rd(Var("r1"))))

    def test_fact_modulo_word_equality(self):
        hyps = conj([eq(mod64(Var("r0")), Var("r0")), rd(Var("r0"))])
        proves(Implies(hyps, rd(add64(Var("r0"), 0))))

    def test_universal_instantiation_constant_offset(self):
        guard = conj([ge(Var("i"), 0), lt(Var("i"), Var("r2")),
                      eq(and64(Var("i"), 7), 0)])
        universal = Forall("i", Implies(guard,
                                        rd(add64(Var("r1"), Var("i")))))
        hyps = conj([universal, ge(Var("r2"), 64)])
        proves(Implies(hyps, rd(add64(Var("r1"), 8))))

    def test_universal_instantiation_computed_offset(self):
        """The Filter 4 pattern: a masked, bounds-checked offset."""
        guard = conj([ge(Var("i"), 0), lt(Var("i"), Var("r2")),
                      eq(and64(Var("i"), 7), 0)])
        universal = Forall("i", Implies(guard,
                                        rd(add64(Var("r1"), Var("i")))))
        offset = and64(add64(and64(srl64(Var("w"), 46), 60), 16), 248)
        checked = ne(cmpult(offset, Var("r2")), 0)
        hyps = conj([universal, eq(mod64(Var("r2")), Var("r2")), checked])
        proves(Implies(hyps, rd(add64(Var("r1"), offset))))

    def test_conditional_write_fact(self):
        hyps = conj([
            eq(mod64(Var("r0")), Var("r0")),
            Implies(ne(sel(Var("rm"), Var("r0")), 0),
                    wr(add64(Var("r0"), 8))),
            ne(sel(Var("rm"), add64(Var("r0"), 0)), 0),
        ])
        proves(Implies(hyps, wr(add64(Var("r0"), 8))))

    def test_unreadable_fails(self):
        fails(rd(Var("r1")))


class TestDeterminism:
    def test_same_input_same_proof(self):
        goal = Implies(conj([le(Var("x"), 56), ge(Var("y"), 64)]),
                       lt(Var("x"), Var("y")))
        assert Prover().prove(goal) == Prover().prove(goal)

    def test_entry_point(self):
        proof = prove_safety_predicate(Truth())
        lf_accepts(proof, Truth())
