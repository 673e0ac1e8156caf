"""Unit tests for formulas, substitution and semantic truth."""

import pytest

from repro.errors import LogicError
from repro.logic.formulas import (
    And,
    Atom,
    Falsity,
    Forall,
    Implies,
    Or,
    Truth,
    conj,
    conjuncts,
    eq,
    formula_size,
    formula_vars,
    ge,
    gt,
    holds,
    le,
    lt,
    ne,
    rd,
    wr,
)
from repro.logic.subst import rename_bound, subst_formula, subst_term
from repro.logic.terms import Int, Var, add64, make_memory, sel


class TestConstruction:
    def test_unknown_predicate(self):
        with pytest.raises(LogicError):
            Atom("divides", (Int(2), Int(4)))

    def test_wrong_arity(self):
        with pytest.raises(LogicError):
            Atom("rd", (Int(0), Int(1)))

    def test_conj_empty_is_truth(self):
        assert conj([]) == Truth()

    def test_conj_roundtrips_through_conjuncts(self):
        parts = [eq(1, 1), ne(2, 3), lt(0, 5)]
        assert conjuncts(conj(parts)) == parts

    def test_formula_vars_respects_binding(self):
        formula = Forall("i", Implies(lt(Var("i"), Var("r2")),
                                      rd(add64(Var("r1"), Var("i")))))
        assert formula_vars(formula) == {"r1", "r2"}

    def test_formula_size_counts_terms(self):
        assert formula_size(eq(1, 2)) == 3
        assert formula_size(And(Truth(), Falsity())) == 3


class TestSubstitution:
    def test_subst_term(self):
        term = add64(Var("r0"), Var("r1"))
        result = subst_term(term, {"r0": Int(5)})
        assert result == add64(5, Var("r1"))

    def test_subst_formula_under_binder_shadows(self):
        formula = Forall("i", eq(Var("i"), Var("j")))
        result = subst_formula(formula, {"i": Int(1), "j": Int(2)})
        assert result == Forall("i", eq(Var("i"), Int(2)))

    def test_capture_avoided(self):
        # substituting j := i under a binder for i must rename the binder
        formula = Forall("i", eq(Var("i"), Var("j")))
        result = subst_formula(formula, {"j": Var("i")})
        assert isinstance(result, Forall)
        assert result.var != "i"
        assert result.body == eq(Var(result.var), Var("i"))

    def test_rename_bound(self):
        formula = Forall("i", rd(Var("i")))
        assert rename_bound(formula, "k") == Forall("k", rd(Var("k")))

    def test_identity_substitution_preserves_object(self):
        formula = Forall("i", eq(Var("i"), Var("i")))
        assert subst_formula(formula, {"x": Int(0)}) == formula


class TestSemantics:
    def test_connectives(self):
        assert holds(And(Truth(), Truth()), {})
        assert not holds(And(Truth(), Falsity()), {})
        assert holds(Or(Falsity(), Truth()), {})
        assert holds(Implies(Falsity(), Falsity()), {})
        assert not holds(Implies(Truth(), Falsity()), {})

    def test_comparisons(self):
        env = {"x": 3, "y": 4}
        assert holds(lt(Var("x"), Var("y")), env)
        assert holds(le(Var("x"), 3), env)
        assert holds(ge(Var("y"), 4), env)
        assert holds(gt(Var("y"), Var("x")), env)
        assert not holds(eq(Var("x"), Var("y")), env)
        assert holds(ne(Var("x"), Var("y")), env)

    def test_rd_wr_need_policy(self):
        with pytest.raises(LogicError):
            holds(rd(Int(8)), {})
        assert holds(rd(Int(8)), {}, can_read=lambda a: a == 8)
        assert not holds(wr(Int(8)), {}, can_read=lambda a: True,
                         can_write=lambda a: False)

    def test_forall_sampled_refutation(self):
        # ALL i. i < 64 is refuted by the default samples
        assert not holds(Forall("i", lt(Var("i"), 64)), {})
        assert holds(Forall("i", ge(Var("i"), 0)), {},
                     forall_samples=(0, 5, 100))

    def test_memory_atoms(self):
        memory = make_memory({0x10: 3})
        formula = ne(sel(Var("rm"), 0x10), 0)
        assert holds(formula, {"rm": memory})
