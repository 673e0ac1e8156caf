"""The simplifier must be *unconditionally* semantics-preserving: every
rewrite it performs holds for all integer values of the free variables.
Property-based tests evaluate original and simplified forms on random
environments; unit tests pin the specific rewrites the VC pipeline relies
on."""

from hypothesis import given, strategies as st

from repro.logic.formulas import (
    And,
    Falsity,
    Forall,
    Implies,
    Or,
    Truth,
    eq,
    ge,
    holds,
    lt,
    ne,
)
from repro.logic.simplify import simplify_formula, simplify_term
from repro.logic.terms import (
    App,
    Int,
    Var,
    WORD_MOD,
    add64,
    and64,
    eval_term,
    mod64,
    sel,
    srl64,
    upd,
)

values = st.integers(min_value=0, max_value=WORD_MOD - 1)

# random terms over three variables
_leaves = st.one_of(
    st.integers(min_value=-8, max_value=WORD_MOD + 8).map(Int),
    st.sampled_from([Var("a"), Var("b"), Var("c")]),
)


def _combine(children):
    ops = ["add64", "sub64", "mul64", "and64", "or64", "xor64",
           "sll64", "srl64"]
    return st.builds(
        lambda op, left, right: App(op, (left, right)),
        st.sampled_from(ops), children, children)


terms = st.recursive(_leaves, _combine, max_leaves=12)


class TestTermSimplification:
    @given(terms, values, values, values)
    def test_semantics_preserved(self, term, a, b, c):
        env = {"a": a, "b": b, "c": c}
        assert eval_term(simplify_term(term), env) == eval_term(term, env)

    def test_constant_folding(self):
        assert simplify_term(add64(3, 4)) == Int(7)
        assert simplify_term(srl64(16, 2)) == Int(4)

    def test_nested_displacement_folding(self):
        # (x (+) 8) (+) (2^64 - 8)  ->  x (+) 0  — the Figure 5 address
        term = add64(add64(Var("x"), 8), WORD_MOD - 8)
        assert simplify_term(term) == add64(Var("x"), 0)

    def test_add64_zero_not_dropped(self):
        # x (+) 0 == x only when x is in word range; must NOT simplify
        term = add64(Var("x"), 0)
        assert simplify_term(term) == term

    def test_and_zero(self):
        assert simplify_term(and64(Var("x"), 0)) == Int(0)

    def test_mod64_of_word_valued(self):
        inner = add64(Var("x"), Var("y"))
        assert simplify_term(mod64(inner)) == inner
        # but mod64 of a bare variable must stay
        assert simplify_term(mod64(Var("x"))) == mod64(Var("x"))

    def test_sel_of_upd_same_literal_address(self):
        term = sel(upd(Var("rm"), 8, Var("v")), 8)
        assert simplify_term(term) == mod64(Var("v"))

    def test_sel_of_upd_different_address_kept(self):
        term = sel(upd(Var("rm"), 8, Var("v")), 16)
        assert simplify_term(term) == term


class TestFormulaSimplification:
    def test_ground_atoms_decided(self):
        assert simplify_formula(eq(3, 3)) == Truth()
        assert simplify_formula(lt(4, 3)) == Falsity()

    def test_unit_laws(self):
        body = ne(Var("x"), 0)
        assert simplify_formula(And(Truth(), body)) == body
        assert simplify_formula(And(body, Falsity())) == Falsity()
        assert simplify_formula(Or(body, Truth())) == Truth()
        assert simplify_formula(Or(Falsity(), body)) == body
        assert simplify_formula(Implies(Falsity(), body)) == Truth()
        assert simplify_formula(Implies(Truth(), body)) == body
        assert simplify_formula(Implies(body, Truth())) == Truth()

    def test_forall_of_truth_collapses(self):
        assert simplify_formula(Forall("i", eq(1, 1))) == Truth()

    @given(values, values)
    def test_formula_semantics_preserved(self, a, b):
        formula = Implies(lt(Var("a"), Var("b")),
                          And(ne(mod64(add64(Var("a"), 1)), 0),
                              ge(Var("b"), 0)))
        env = {"a": a, "b": b}
        assert holds(simplify_formula(formula), env) == holds(formula, env)

    def test_simplification_is_deterministic(self):
        formula = And(eq(add64(add64(Var("x"), 8), WORD_MOD - 8), Var("x")),
                      Truth())
        assert simplify_formula(formula) == simplify_formula(formula)
