"""LF type checking: the trusted validation core.

Covers inference for every term former, side-condition enforcement, and a
battery of ill-typed terms that must be rejected (never crash)."""

import pytest

from repro.errors import LfError
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfVar,
    TYPE,
    lf_app,
)
from repro.lf.typecheck import _Checker, check_proof_term, infer_type

TM = LfConst("tm")
FORM = LfConst("form")
PF = LfConst("pf")


class TestInference:
    def test_constants(self):
        assert infer_type(TM, SIGNATURE) == TYPE
        assert infer_type(LfConst("add64"), SIGNATURE) == \
            LfPi(TM, LfPi(TM, TM))

    def test_undeclared_constant(self):
        with pytest.raises(LfError):
            infer_type(LfConst("no_such_thing"), SIGNATURE)

    def test_integers_are_individuals(self):
        assert infer_type(LfInt(42), SIGNATURE) == TM

    def test_application(self):
        term = lf_app(LfConst("add64"), LfInt(1), LfInt(2))
        assert infer_type(term, SIGNATURE) == TM

    def test_application_type_mismatch(self):
        # and(form, form) applied to an individual
        with pytest.raises(LfError):
            infer_type(LfApp(LfConst("and"), LfInt(1)), SIGNATURE)

    def test_application_of_non_function(self):
        with pytest.raises(LfError):
            infer_type(LfApp(LfInt(1), LfInt(2)), SIGNATURE)

    def test_lambda_and_pi(self):
        identity = LfLam(TM, LfVar(0))
        assert infer_type(identity, SIGNATURE) == LfPi(TM, TM)
        assert infer_type(LfPi(TM, TM), SIGNATURE) == TYPE

    def test_unbound_variable(self):
        with pytest.raises(LfError):
            infer_type(LfVar(0), SIGNATURE)

    def test_context_lookup_shifts(self):
        # \x:tm. \p:pf(eq x x). p  — the inner type mentions the outer var
        eq_xx = lf_app(LfConst("eq"), LfVar(0), LfVar(0))
        term = LfLam(TM, LfLam(LfApp(PF, eq_xx), LfVar(0)))
        inferred = infer_type(term, SIGNATURE)
        assert isinstance(inferred, LfPi)

    def test_truei(self):
        assert infer_type(LfConst("truei"), SIGNATURE) == \
            LfApp(PF, LfConst("true"))

    def test_pf_is_a_family(self):
        # pf : form -> type, so (pf true) : type
        assert infer_type(LfApp(PF, LfConst("true")), SIGNATURE) == TYPE


class TestSideConditions:
    def test_arith_eval_true_instance(self):
        goal = lf_app(LfConst("lt"), LfInt(3), LfInt(4))
        proof = LfApp(LfConst("arith_eval"), goal)
        assert infer_type(proof, SIGNATURE) == LfApp(PF, goal)

    def test_arith_eval_false_instance_rejected(self):
        goal = lf_app(LfConst("lt"), LfInt(4), LfInt(3))
        with pytest.raises(LfError):
            infer_type(LfApp(LfConst("arith_eval"), goal), SIGNATURE)

    def test_arith_eval_non_ground_rejected(self):
        # under a lambda, the argument is a bound variable — not ground
        goal = lf_app(LfConst("lt"), LfVar(0), LfInt(3))
        term = LfLam(TM, LfApp(LfConst("arith_eval"), goal))
        with pytest.raises(LfError):
            infer_type(term, SIGNATURE)

    def test_mod_word(self):
        word = lf_app(LfConst("add64"), LfInt(1), LfInt(2))
        proof = LfApp(LfConst("mod_word"), word)
        infer_type(proof, SIGNATURE)  # accepted
        # a bare lambda-bound variable is not word-valued
        bad = LfLam(TM, LfApp(LfConst("mod_word"), LfVar(0)))
        with pytest.raises(LfError):
            infer_type(bad, SIGNATURE)

    def test_partial_application_is_harmless(self):
        """A partially applied schema constant types as a Pi — it cannot
        stand as a proof of any formula, so skipping the side condition is
        safe."""
        partial = LfConst("norm_mod_eq")
        inferred = infer_type(partial, SIGNATURE)
        assert isinstance(inferred, LfPi)


class TestCheckProofTerm:
    def test_accepts_exact_type(self):
        goal = LfConst("true")
        check_proof_term(LfConst("truei"), LfApp(PF, goal), SIGNATURE)

    def test_rejects_wrong_formula(self):
        wrong = LfApp(PF, LfConst("false"))
        with pytest.raises(LfError):
            check_proof_term(LfConst("truei"), wrong, SIGNATURE)

    def test_accepts_up_to_beta(self):
        # expected type written as a redex: ((\f. pf f) true)
        redex = LfApp(LfLam(FORM, LfApp(PF, LfVar(0))), LfConst("true"))
        check_proof_term(LfConst("truei"), redex, SIGNATURE)

    def test_depth_limit(self):
        term = LfInt(0)
        for __ in range(100):
            term = LfApp(LfLam(TM, LfVar(0)), term)
        with pytest.raises(LfError):
            infer_type(term, SIGNATURE, max_depth=20)


class TestSharedPartialApplication:
    """N spines sharing one k-argument partial application are checked
    in work linear in N + k: the prefix is resumed, not re-checked."""

    @staticmethod
    def _term(shared: int, spines: int):
        """``λf. add64 (P N-1) (… (add64 (P 0) 0))``, where ``f`` takes
        k+1 individuals and ``P = f 0 1 … k-1`` is one shared node."""
        fn_ty = TM
        for __ in range(shared + 1):
            fn_ty = LfPi(TM, fn_ty)
        prefix = lf_app(LfVar(0), *(LfInt(i) for i in range(shared)))
        body = LfInt(0)
        for j in range(spines):
            body = lf_app(LfConst("add64"), LfApp(prefix, LfInt(j)), body)
        return LfLam(fn_ty, body)

    @staticmethod
    def _infer_calls(monkeypatch, term) -> int:
        calls = []
        infer = _Checker.infer

        def counted(self, *args):
            calls.append(None)
            return infer(self, *args)

        monkeypatch.setattr(_Checker, "infer", counted)
        assert isinstance(infer_type(term, SIGNATURE), LfPi)
        monkeypatch.undo()
        return len(calls)

    def test_linear_checker_calls(self, monkeypatch):
        shared = spines = 40
        calls = self._infer_calls(monkeypatch,
                                  self._term(shared, spines))
        assert calls < 5 * (shared + spines)   # N·k would be 1,600
        doubled = self._infer_calls(monkeypatch,
                                    self._term(shared, 2 * spines))
        assert doubled - calls < 5 * spines
