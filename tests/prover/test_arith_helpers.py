"""Unit tests for the prover's search utilities (untrusted, but they must
be deterministic and correct to keep certification reproducible)."""

from hypothesis import given, strategies as st

from repro.logic.terms import (
    App,
    Int,
    Var,
    WORD_MOD,
    add64,
    and64,
    eval_term,
    sel,
    sub64,
)
from repro.prover.arith import (
    is_word_valued,
    linear_difference,
    match_term,
)

words = st.integers(min_value=0, max_value=WORD_MOD - 1)


class TestMatching:
    def test_exact(self):
        pattern = add64(Var("r1"), Var("i"))
        term = add64(Var("r1"), Int(8))
        binding = match_term(pattern, term, frozenset(("i",)))
        assert binding == {"i": Int(8)}

    def test_nonlinear_pattern_must_agree(self):
        pattern = add64(Var("i"), Var("i"))
        assert match_term(pattern, add64(Int(3), Int(3)),
                          frozenset(("i",))) == {"i": Int(3)}
        assert match_term(pattern, add64(Int(3), Int(4)),
                          frozenset(("i",))) is None

    def test_non_wildcard_vars_match_literally(self):
        pattern = add64(Var("r1"), Var("i"))
        assert match_term(pattern, add64(Var("r2"), Int(8)),
                          frozenset(("i",))) is None

    def test_structural_mismatch(self):
        assert match_term(add64(Var("i"), 0), sub64(Var("x"), 0),
                          frozenset(("i",))) is None


class TestLinearDifference:
    def test_simple_offset(self):
        base = Var("r1")
        term = add64(Var("r1"), Int(8))
        assert linear_difference(term, base) == Int(8)

    def test_identity_gives_zero(self):
        assert linear_difference(Var("r1"), Var("r1")) == Int(0)

    def test_swapped_operands(self):
        base = Var("r1")
        offset = and64(Var("x"), 248)
        term = add64(offset, Var("r1"))
        difference = linear_difference(term, base)
        assert difference is not None

    @given(words, words)
    def test_difference_is_semantically_correct(self, r1, x):
        base = Var("r1")
        offset = and64(Var("x"), 248)
        term = add64(base, offset)
        difference = linear_difference(term, base)
        env = {"r1": r1, "x": x}
        lhs = eval_term(term, env)
        rhs = eval_term(add64(base, difference), env)
        assert lhs == rhs

    def test_non_unit_coefficient_unsupported(self):
        term = App("add64", (Var("r1"),
                             App("add64", (Var("x"), Var("x")))))
        assert linear_difference(term, Var("r1")) is None


class TestWordValued:
    def test_classification(self):
        assert is_word_valued(add64(Var("x"), 1))
        assert is_word_valued(sel(Var("rm"), Var("a")))
        assert is_word_valued(Int(5))
        assert not is_word_valued(Int(-1))
        assert not is_word_valued(Int(WORD_MOD))
        assert not is_word_valued(Var("x"))
        assert not is_word_valued(App("add", (Var("x"), Int(1))))
