"""Pretty-printer tests: paper notation, totality, and injectivity on the
structures the prover sorts by."""

from hypothesis import given, strategies as st

from repro.logic.formulas import (
    And,
    Falsity,
    Forall,
    Implies,
    Or,
    Truth,
    ne,
    rd,
    wr,
)
from repro.logic.pretty import pp_formula, pp_term
from repro.logic.terms import (
    App,
    Int,
    Var,
    add64,
    mod64,
    sel,
    sub64,
    upd,
)


class TestNotation:
    def test_circled_operators(self):
        assert pp_term(add64(Var("r0"), 8)) == "(r0 (+) 8)"
        assert pp_term(sub64(Var("a"), Var("b"))) == "(a (-) b)"

    def test_mod_notation(self):
        assert pp_term(mod64(Var("r0"))) == "(r0 mod 2^64)"

    def test_memory_operations(self):
        term = sel(upd(Var("rm"), Var("a"), Var("v")), Var("b"))
        assert pp_term(term) == "sel(upd(rm, a, v), b)"

    def test_formula_connectives(self):
        formula = Implies(ne(sel(Var("rm"), Var("r0")), 0),
                          wr(add64(Var("r0"), 8)))
        assert pp_formula(formula) == \
            "(sel(rm, r0) != 0 => wr((r0 (+) 8)))"

    def test_quantifier(self):
        formula = Forall("i", rd(Var("i")))
        assert pp_formula(formula) == "(ALL i. rd(i))"

    def test_truth_values(self):
        assert pp_formula(Truth()) == "true"
        assert pp_formula(Falsity()) == "false"

    def test_connective_spelling(self):
        conj = And(Truth(), Falsity())
        disj = Or(Truth(), Falsity())
        assert "/\\" in pp_formula(conj)
        assert "\\/" in pp_formula(disj)


_leaves = st.one_of(
    st.integers(min_value=0, max_value=1 << 64).map(Int),
    st.sampled_from([Var("a"), Var("b")]),
)
_terms = st.recursive(
    _leaves,
    lambda children: st.builds(
        lambda op, x, y: App(op, (x, y)),
        st.sampled_from(["add64", "sub64", "and64", "srl64"]),
        children, children),
    max_leaves=10)


class TestProperties:
    @given(_terms)
    def test_total(self, term):
        assert isinstance(pp_term(term), str)

    @given(_terms, _terms)
    def test_injective_enough_for_sorting(self, a, b):
        """Distinct terms must render distinctly: the prover's determinism
        relies on pretty-printed sort keys separating different facts."""
        if a != b:
            assert pp_term(a) != pp_term(b)

    @given(_terms)
    def test_cache_consistency(self, term):
        assert pp_term(term) == pp_term(term)
