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
from repro.logic.formulas import Implies, Truth, conj, eq, ge, le, lt, rd
from repro.logic.terms import (
    WORD_MOD,
    App,
    Int,
    Var,
    and64,
    extbl,
    extll,
    extwl,
    sll64,
    srl64,
)


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
        """A guarded constant's side arity is its Π-telescope's length:
        the condition runs once, on the full application."""
        for name, entry in SIGNATURE.entries.items():
            if entry.side_condition is not None:
                assert entry.side_arity > 0, name
                binders, ty = 0, entry.ty
                while isinstance(ty, LfPi):
                    binders, ty = binders + 1, ty.cod
                assert entry.side_arity == binders, name

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


# -- side conditions at their boundaries --------------------------------------

def _tm(op, *args):
    return lf_app(LfConst(op), *args)


def _form(formula):
    return encode_formula(formula, {}, 0)


def _cert(*weights):
    cert = LfConst("cnil")
    for weight in reversed(weights):
        cert = lf_app(LfConst("ccons"), LfInt(weight), cert)
    return cert


_R1, _R2 = LfConst("r1"), LfConst("r2")
_TOP = (1 << 64) - 1
#: ``add64(sub64(r1, r1), c)``: a mask whose linear form is the constant c.
_ZERO_REG = _tm("add64", _tm("sub64", _R1, _R1), LfInt(0))
_X, _Y = Var("r1"), Var("r2")
_LINARITH = (_form(conj([le(_X, 56), ge(_Y, 64)])), _form(lt(_X, _Y)))
_EQ_PREMISES = _form(conj([le(_X, 5), ge(_X, 5)]))

#: (constant, its non-proof arguments, does the side condition hold?),
#: one accepted and one rejected spine on each side of every bound.
SIDE_CONDITION_CASES = [
    ("srl_bound", (_R1, LfInt(8), LfInt(1 << 56)), True),
    ("srl_bound", (_R1, LfInt(8), LfInt((1 << 56) - 1)), False),
    ("srl_bound", (_R1, LfInt(64), LfInt(1 << 64)), True),
    ("srl_bound", (_R1, LfInt(64), LfInt(_TOP)), False),
    ("srl_bound", (_R1, _R2, LfInt(1 << 64)), False),
    ("sll_align", (_R1, LfInt(3), LfInt(7)), True),
    ("sll_align", (_R1, LfInt(3), LfInt(8)), False),
    ("sll_align", (_R1, LfInt(3), LfInt(-1)), False),
    ("sll_align", (_R1, LfInt(3), _tm("add64", LfInt(0), LfInt(7))), False),
    ("add_align", (_R1, _R2, LfInt(7)), True),
    ("add_align", (_R1, _R2, LfInt(_TOP)), True),
    ("add_align", (_R1, _R2, LfInt(8)), False),
    ("add_align", (_R1, _R2, LfInt(1 << 64)), False),
    ("add_align", (_R1, _R2, LfInt(-1)), False),
    ("and_ubound", (_R1, LfInt(_TOP)), True),
    ("and_ubound", (_R1, LfInt(1 << 64)), False),
    ("and_ubound", (_R1, LfInt(-1)), False),
    ("and_ubound", (_R1, _R2), False),
    ("extbl_bound", (_R1, _R2, LfInt(1 << 8)), True),
    ("extbl_bound", (_R1, _R2, LfInt((1 << 8) - 1)), False),
    ("extwl_bound", (_R1, _R2, LfInt(1 << 16)), True),
    ("extwl_bound", (_R1, _R2, LfInt((1 << 16) - 1)), False),
    ("extll_bound", (_R1, _R2, LfInt(1 << 32)), True),
    ("extll_bound", (_R1, _R2, LfInt((1 << 32) - 1)), False),
    ("extll_bound", (_R1, _R2, _R2), False),
    ("sll_ubound", (_R1, LfInt(3), LfInt(255), LfInt(2040)), True),
    ("sll_ubound", (_R1, LfInt(3), LfInt(255), LfInt(2039)), False),
    ("sll_ubound", (_R1, LfInt(3), LfInt(1 << 61), LfInt(1 << 64)), False),
    ("sll_ubound", (_R1, LfInt(3), LfInt((1 << 61) - 1), LfInt(_TOP)),
     True),
    ("sll_ubound", (_R1, _R2, LfInt(1), LfInt(_TOP)), False),
    ("and_mask_disjoint", (_R1, LfInt(0xF0), LfInt(0x0F)), True),
    ("and_mask_disjoint", (_R1, LfInt(0x18), LfInt(0x0F)), False),
    ("and_mask_disjoint", (_R1, _ZERO_REG, LfInt(_TOP)), True),
    ("and_mask_disjoint", (_R1, _R2, LfInt(0)), False),
    ("and_submask", (_R1, LfInt(0xFF), LfInt(0x0F)), True),
    ("and_submask", (_R1, LfInt(0x0F), LfInt(0x1F)), False),
    ("and_submask", (_R1, LfInt(0xFF), _R2), False),
    ("or_disjoint", (_R1, LfInt(0xFF), _R2), True),
    ("or_disjoint", (_R1, _ZERO_REG, _R2), True),
    ("or_disjoint", (_R1, _R2, LfInt(0)), False),
    ("shift_trunc_le", (_R1, LfInt(3)), True),
    ("shift_trunc_le", (_R1, _R2), False),
    ("sll_lt_of_srl", (_R1, LfInt(3), _R2), True),
    ("sll_lt_of_srl", (_R1, _R2, LfInt(3)), False),
    ("mod_word", (_tm("and64", _R1, LfInt(255)),), True),
    ("mod_word", (_tm("sel", LfConst("rm"), _R1),), True),
    ("mod_word", (_tm("add", _R1, LfInt(1)),), False),
    ("mod_word", (_R1,), False),
    ("word_ge0", (LfInt(0),), True),
    ("word_ge0", (LfInt(-1),), False),
    ("word_ge0", (_tm("sub", _R1, _R2),), False),
    ("word_lt_mod", (LfInt(_TOP),), True),
    ("word_lt_mod", (LfInt(1 << 64),), False),
    ("word_lt_mod", (_tm("srl64", _R1, LfInt(3)),), True),
    ("norm_mod_eq", (_tm("add64", _R1, LfInt(8)),
                     _tm("add", LfInt(8), _R1)), True),
    ("norm_mod_eq", (_tm("add64", _R1, LfInt(1 << 64)), _R1), True),
    ("norm_mod_eq", (_tm("add64", _R1, LfInt(8)),
                     _tm("add64", _R1, LfInt(16))), False),
    ("norm_mod_eq", (_tm("mul", LfInt(2), _R1), _tm("add", _R1, _R1)),
     True),
    ("norm_mod_eq", (_tm("mul", _R1, _R1), _tm("add", _R1, _R1)), False),
    ("arith_eval", (_form(eq(App("add", (Int(2), Int(3))), 5)),), True),
    ("arith_eval", (_form(lt(App("add64", (Int(_TOP), Int(1))), 1)),),
     True),
    ("arith_eval", (_form(eq(App("add", (Int(2), Int(3))), 6)),), False),
    ("arith_eval", (_form(eq(_X, _X)),), False),
    ("arith_eval", (_form(eq(App("sel", (Var("rm"), Int(0))), 0)),),
     False),
    ("arith_eval", (_form(rd(8)),), False),
    ("linarith", (*_LINARITH, _cert(1, 1, 1)), True),
    ("linarith", (*_LINARITH, _cert(1, 1)), False),
    ("linarith", (*_LINARITH, _cert(1, 1, 1, 1)), False),
    ("linarith", (*_LINARITH, _cert(1, -1, 1)), False),
    ("linarith", (*_LINARITH, _cert(1, True, 1)), False),
    ("linarith", (*_LINARITH, _cert(1, 1.0, 1)), False),
    ("linarith", (*_LINARITH, _cert(1, 2, 1)), False),
    ("linarith", (*_LINARITH, _cert(0, 0, 0)), False),
    ("linarith", (*_LINARITH, _R1), False),
    ("linarith", (_EQ_PREMISES, _form(eq(_X, 5)), _cert(0, 1, 1, 1, 0, 1)),
     True),
    ("linarith", (_EQ_PREMISES, _form(eq(_X, 5)), _cert(0, 1, 1, 0, 0, 0)),
     False),
    ("linarith", (_form(Truth()), _form(lt(Int(0), 1)), _cert(1)), True),
    ("linarith", (_form(conj([rd(_X), le(_X, 56)])), _form(lt(_X, 57)),
                  _cert(1, 1)), False),
    ("linarith", (_form(conj([le(_X, 56), Truth()])), _form(lt(_X, 57)),
                  _cert(1, 1)), False),
    ("linarith", (_form(le(_X, 56)), _form(rd(_X)), _cert(1, 1)), False),
]


def _side_condition(name, args):
    """Run ``name``'s side condition on ``args``, padded with a proof
    variable for each premise (every guarded constant takes its premises
    last)."""
    entry = SIGNATURE.entries[name]
    return entry.side_condition(
        list(args) + [LfVar(0)] * (entry.side_arity - len(args)))


class TestSideConditionBoundaries:
    @pytest.mark.parametrize(
        "name, args, holds", SIDE_CONDITION_CASES,
        ids=[f"{name}-{index}" for index, (name, __, __)
             in enumerate(SIDE_CONDITION_CASES)])
    def test_side_condition(self, name, args, holds):
        assert _side_condition(name, args) is holds

    def test_every_guarded_constant_has_cases(self):
        guarded = {name for name, entry in SIGNATURE.entries.items()
                   if entry.side_condition is not None}
        assert {name for name, __, holds in SIDE_CONDITION_CASES
                if holds} == guarded
        assert {name for name, __, holds in SIDE_CONDITION_CASES
                if not holds} == guarded

    @pytest.mark.parametrize(
        "name, args, position",
        [(name, args, position)
         for name, args, holds in SIDE_CONDITION_CASES if holds
         for position in range(len(args))])
    def test_a_lambda_argument_is_rejected(self, name, args, position):
        lam = LfLam(LfConst("tm"), LfVar(0))
        forged = args[:position] + (lam,) + args[position + 1:]
        assert _side_condition(name, forged) is False
