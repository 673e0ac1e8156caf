"""LF term manipulation: shifting, substitution, normalization."""

from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfVar,
    alpha_beta_equal,
    lf_app,
    lf_size,
    normalize,
    shift,
    spine,
    subst,
    whnf,
)

TM = LfConst("tm")


class TestDeBruijn:
    def test_shift_free_variables(self):
        assert shift(LfVar(0), 2) == LfVar(2)
        assert shift(LfVar(1), 3, cutoff=2) == LfVar(1)

    def test_shift_under_binder(self):
        term = LfLam(TM, LfApp(LfVar(0), LfVar(1)))
        shifted = shift(term, 1)
        assert shifted == LfLam(TM, LfApp(LfVar(0), LfVar(2)))

    def test_subst_basics(self):
        assert subst(LfVar(0), LfConst("c")) == LfConst("c")
        assert subst(LfVar(1), LfConst("c")) == LfVar(0)

    def test_subst_under_binder_shifts_replacement(self):
        term = LfLam(TM, LfVar(1))  # refers to the enclosing binder
        assert subst(term, LfVar(0)) == LfLam(TM, LfVar(1))


class TestNormalization:
    def test_beta(self):
        identity = LfLam(TM, LfVar(0))
        assert whnf(LfApp(identity, LfConst("c"))) == LfConst("c")

    def test_nested_beta(self):
        const_fn = LfLam(TM, LfLam(TM, LfVar(1)))
        term = lf_app(const_fn, LfConst("a"), LfConst("b"))
        assert normalize(term) == LfConst("a")

    def test_normalize_under_binders(self):
        identity = LfLam(TM, LfVar(0))
        term = LfLam(TM, LfApp(identity, LfVar(0)))
        assert normalize(term) == LfLam(TM, LfVar(0))

    def test_alpha_is_structural(self):
        # hints differ, de Bruijn structure identical
        a = LfLam(TM, LfVar(0), hint="x")
        b = LfLam(TM, LfVar(0), hint="y")
        assert alpha_beta_equal(a, b)

    def test_beta_equality(self):
        identity = LfLam(TM, LfVar(0))
        assert alpha_beta_equal(LfApp(identity, LfInt(7)), LfInt(7))
        assert not alpha_beta_equal(LfInt(7), LfInt(8))


class TestHelpers:
    def test_spine(self):
        term = lf_app(LfConst("f"), LfInt(1), LfInt(2))
        head, args = spine(term)
        assert head == LfConst("f")
        assert args == [LfInt(1), LfInt(2)]

    def test_lf_size(self):
        assert lf_size(LfInt(3)) == 1
        assert lf_size(lf_app(LfConst("f"), LfInt(1))) == 3
