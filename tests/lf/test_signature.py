"""The LF signature is itself a formal object: every declared type must be
well-formed (a type or a kind) in the signature built so far.  This is the
consumer's own sanity check on its published policy logic."""

import pytest

from repro.errors import LfError
from repro.lf.encode import encode_formula
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import (
    KIND,
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfVar,
    TYPE,
    lf_app,
    whnf,
)
from repro.lf.typecheck import check_proof_term, infer_type
from repro.logic.formulas import Implies, eq, ge, le, lt
from repro.logic.terms import (
    WORD_MOD,
    Int,
    Var,
    and64,
    extbl,
    extll,
    extwl,
    sll64,
    srl64,
)
from repro.proof.rules import RULES


class TestWellFormedness:
    def test_every_declaration_is_a_type_or_kind(self):
        for name, entry in SIGNATURE.entries.items():
            sort = whnf(infer_type(entry.ty, SIGNATURE))
            assert sort in (TYPE, KIND), f"{name} has malformed type"

    def test_core_classes_present(self):
        for name in ("tm", "mem", "form", "pf", "true", "false", "and",
                     "or", "imp", "all", "allm", "eq", "rd", "wr"):
            assert name in SIGNATURE.entries

    def test_every_logic_operator_declared(self):
        from repro.logic.terms import OPS
        for op in OPS:
            assert op in SIGNATURE.entries, f"operator {op} undeclared"

    def test_state_constants_declared(self):
        for index in range(11):
            assert f"r{index}" in SIGNATURE.entries
        assert "rm" in SIGNATURE.entries

    def test_side_condition_arities_positive(self):
        for name, entry in SIGNATURE.entries.items():
            if entry.side_condition is not None:
                assert entry.side_arity > 0, name

    def test_rule_coverage(self):
        """Every Delta rule has an LF counterpart (ext_bound splits into
        three width-specific constants; hyp/linarith premises are encoded
        structurally)."""
        lf_names = set(SIGNATURE.entries)
        structural = {"hyp"}  # encoded as LF variables, not constants
        renamed = {"ext_bound": {"extbl_bound", "extwl_bound",
                                 "extll_bound"},
                   "cmp_bool": {"cmpeq_bool", "cmpult_bool",
                                "cmpule_bool"}}
        for rule in RULES:
            if rule in structural:
                continue
            expected = renamed.get(rule, {rule})
            assert expected & lf_names, f"no LF constant for rule {rule}"

    def test_schema_constants_are_guarded(self):
        """Every axiom schema whose soundness depends on literal values
        must carry a side condition — forgetting one would let a malicious
        proof instantiate it unsoundly."""
        must_be_guarded = (
            "arith_eval", "mod_word", "norm_mod_eq", "word_ge0",
            "word_lt_mod", "and_ubound", "and_mask_disjoint", "add_align",
            "srl_bound", "sll_align", "extbl_bound", "extwl_bound",
            "extll_bound", "linarith", "or_disjoint", "and_submask",
            "shift_trunc_le", "sll_lt_of_srl", "sll_ubound",
        )
        for name in must_be_guarded:
            entry = SIGNATURE.entries[name]
            assert entry.side_condition is not None, name


class TestProofIrrelevantDeclarations:
    def test_pf_family(self):
        pf = SIGNATURE.entries["pf"].ty
        assert isinstance(pf, LfPi)
        assert pf.dom == LfConst("form")
        assert pf.cod == TYPE


class TestSllUbound:
    """``(a << k) <= c`` from ``0 <= a <= m``, through the LF checker:
    ``impi`` twice, then ``sll_ubound a k m c h1 h2``."""

    @staticmethod
    def _check(k, m, c):
        a = Var("r1")
        low, high = ge(a, 0), le(a, m)
        goal = Implies(low, Implies(high, le(sll64(a, k), c)))
        low_lf, high_lf = (encode_formula(f, {}, 0) for f in (low, high))
        conclusion = encode_formula(goal.right.right, {}, 0)
        step = lf_app(LfConst("sll_ubound"), LfConst("r1"), LfInt(k),
                      LfInt(m), LfInt(c), LfVar(1), LfVar(0))
        inner = lf_app(LfConst("impi"), high_lf, conclusion,
                       LfLam(LfApp(LfConst("pf"), high_lf), step))
        proof = lf_app(
            LfConst("impi"), low_lf, encode_formula(goal.right, {}, 0),
            LfLam(LfApp(LfConst("pf"), low_lf), inner))
        expected = LfApp(LfConst("pf"), encode_formula(goal, {}, 0))
        check_proof_term(proof, expected, SIGNATURE)

    def test_accepts_a_byte_scaled_by_eight(self):
        self._check(3, 255, 2040)

    def test_rejects_a_bound_below_m_shifted(self):
        with pytest.raises(LfError, match="sll_ubound"):
            self._check(3, 255, 2039)

    def test_rejects_a_shift_that_wraps(self):
        with pytest.raises(LfError, match="sll_ubound"):
            self._check(3, 1 << 61, WORD_MOD - 1)


class TestLiteralBounds:
    """The side conditions no corpus proof reaches, through the LF
    checker: each accepts a valid instance and rejects the same instance
    with one literal pushed past its bound."""

    #: (constant, operator, shift, smallest bound): ``constant r1 k c``
    #: proves ``op(r1, k) < c`` for every literal ``c`` from the bound up.
    LT_BOUNDS = (
        ("srl_bound", srl64, 8, 1 << 56),
        ("extbl_bound", extbl, 0, 1 << 8),
        ("extwl_bound", extwl, 0, 1 << 16),
        ("extll_bound", extll, 0, 1 << 32),
    )

    @staticmethod
    def _check(goal, constant, *args):
        proof = lf_app(LfConst(constant), *args)
        expected = LfApp(LfConst("pf"), encode_formula(goal, {}, 0))
        check_proof_term(proof, expected, SIGNATURE)

    def _lt_bound(self, constant, op, k, bound):
        self._check(lt(op(Var("r1"), k), bound), constant, LfConst("r1"),
                    LfInt(k), LfInt(bound))

    @pytest.mark.parametrize("constant, op, k, bound", LT_BOUNDS)
    def test_lt_bound_accepts_the_smallest_bound(self, constant, op, k,
                                                 bound):
        self._lt_bound(constant, op, k, bound)

    @pytest.mark.parametrize("constant, op, k, bound", LT_BOUNDS)
    def test_lt_bound_rejects_one_below(self, constant, op, k, bound):
        with pytest.raises(LfError, match=constant):
            self._lt_bound(constant, op, k, bound - 1)

    def test_word_lt_mod_accepts_the_largest_word(self):
        self._check(lt(Int(WORD_MOD - 1), WORD_MOD), "word_lt_mod",
                    LfInt(WORD_MOD - 1))

    def test_word_lt_mod_rejects_a_literal_past_the_word(self):
        with pytest.raises(LfError, match="word_lt_mod"):
            self._check(lt(Int(WORD_MOD), WORD_MOD), "word_lt_mod",
                        LfInt(WORD_MOD))

    @staticmethod
    def _submask(wide, narrow):
        """``impi`` over ``r1 & wide = 0``, then ``and_submask r1 wide
        narrow h``."""
        premise = eq(and64(Var("r1"), wide), 0)
        goal = Implies(premise, eq(and64(Var("r1"), narrow), 0))
        premise_lf = encode_formula(premise, {}, 0)
        step = lf_app(LfConst("and_submask"), LfConst("r1"), LfInt(wide),
                      LfInt(narrow), LfVar(0))
        proof = lf_app(LfConst("impi"), premise_lf,
                       encode_formula(goal.right, {}, 0),
                       LfLam(LfApp(LfConst("pf"), premise_lf), step))
        expected = LfApp(LfConst("pf"), encode_formula(goal, {}, 0))
        check_proof_term(proof, expected, SIGNATURE)

    def test_and_submask_accepts_a_narrower_mask(self):
        self._submask(0xFF, 0x0F)

    def test_and_submask_rejects_a_wider_mask(self):
        with pytest.raises(LfError, match="and_submask"):
            self._submask(0x0F, 0xFF)
