"""Hand-crafted malicious LF proof terms.

The Delta checker never sees these — they go straight at the LF type
checker, the consumer's actual trusted core, attempting the classic
attacks on proof checkers: proving the wrong formula, exploiting
beta-reduction, smuggling side-condition constants under binders,
ill-kinded types, and variable-capture confusions.  Every one must be
rejected with :class:`LfError`.
"""

import pytest

from repro.errors import LfError, ValidationError
from repro.lf.encode import encode_formula
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfVar,
    lf_app,
)
from repro.lf.minicheck import minicheck_proof
from repro.lf.typecheck import check_proof_term, infer_type
from repro.logic.formulas import And, Falsity, Truth, eq, ge, le, lt
from repro.logic.terms import Var

TM = LfConst("tm")
FORM = LfConst("form")
PF = LfConst("pf")


def _pf(formula_lf):
    return LfApp(PF, formula_lf)


def rejected(term, expected):
    with pytest.raises(LfError):
        check_proof_term(term, expected, SIGNATURE)


class TestWrongFormula:
    def test_truei_cannot_prove_false(self):
        target = _pf(encode_formula(Falsity(), {}, 0))
        rejected(LfConst("truei"), target)

    def test_arith_eval_of_true_fact_cannot_stand_for_false(self):
        good_fact = encode_formula(lt(3, 4), {}, 0)
        proof = LfApp(LfConst("arith_eval"), good_fact)
        target = _pf(encode_formula(lt(4, 3), {}, 0))
        rejected(proof, target)

    def test_beta_disguise_rejected_conservatively(self):
        """(\\f. arith_eval f) applied to anything: the side condition is
        checked *inside* the lambda where the argument is a bound variable
        (non-ground), so the whole shape is rejected — even when the
        eventual instance would be true.  Conservative, hence safe: a
        malicious producer gains nothing from beta disguises."""
        good_fact = encode_formula(lt(3, 4), {}, 0)
        disguised = LfApp(
            LfLam(FORM, LfApp(LfConst("arith_eval"), LfVar(0))),
            good_fact)
        rejected(disguised, _pf(good_fact))
        rejected(disguised, _pf(encode_formula(lt(4, 3), {}, 0)))


class TestSideConditionEvasion:
    def test_eta_wrapper_does_not_skip_the_check(self):
        """Wrapping arith_eval in a lambda and applying it must still
        reject the false instance (the redex body is checked under the
        binder, where the argument is non-ground — conservative reject)."""
        bad_fact = encode_formula(eq(2, 3), {}, 0)
        wrapped = LfApp(
            LfLam(FORM, LfApp(LfConst("arith_eval"), LfVar(0))),
            bad_fact)
        rejected(wrapped, _pf(bad_fact))

    def test_direct_false_instance(self):
        bad_fact = encode_formula(eq(2, 3), {}, 0)
        rejected(LfApp(LfConst("arith_eval"), bad_fact), _pf(bad_fact))

    def test_mod_word_on_register_constant(self):
        """State constants (r0 ...) decode to plain variables — never
        word-valued by themselves."""
        r0 = LfConst("r0")
        goal = lf_app(LfConst("eq"), lf_app(LfConst("mod64"), r0), r0)
        rejected(LfApp(LfConst("mod_word"), r0), _pf(goal))


class TestLinarithCertificate:
    """``r1 <= 56`` and ``r2 >= 64`` give ``r1 < r2`` with weights 1, 1,
    1 — but only as a ``ccons``/``cnil`` spine of integer literals."""

    @staticmethod
    def _proof(certificate):
        premises = encode_formula(And(le(Var("r1"), 56), ge(Var("r2"), 64)),
                                  {}, 0)
        goal = encode_formula(lt(Var("r1"), Var("r2")), {}, 0)
        body = lf_app(LfConst("linarith"), premises, goal, certificate,
                      LfVar(0))
        proof = lf_app(LfConst("impi"), premises, goal,
                       LfLam(_pf(premises), body))
        return proof, _pf(lf_app(LfConst("imp"), premises, goal))

    @staticmethod
    def _spine(*weights, tail=LfConst("cnil")):
        for weight in reversed(weights):
            tail = lf_app(LfConst("ccons"), weight, tail)
        return tail

    def test_literal_spine_accepted(self):
        check_proof_term(*self._proof(self._spine(*[LfInt(1)] * 3)),
                         SIGNATURE)

    def test_computed_weight_rejected(self):
        one = lf_app(LfConst("add"), LfInt(1), LfInt(0))
        proof, expected = self._proof(self._spine(one, LfInt(1), LfInt(1)))
        with pytest.raises(LfError, match="side condition of 'linarith'"):
            check_proof_term(proof, expected, SIGNATURE)

    def test_open_tail_rejected(self):
        """The tail is a λ-bound certificate, applied to ``cnil``."""
        proof, expected = self._proof(
            self._spine(*[LfInt(1)] * 3, tail=LfVar(1)))
        wrapped = LfApp(LfLam(LfConst("cert"), proof), LfConst("cnil"))
        with pytest.raises(LfError, match="side condition of 'linarith'"):
            check_proof_term(wrapped, expected, SIGNATURE)


class TestPartialApplication:
    """A side-conditioned constant handed around short of its arguments
    would meet them under a variable head, where no side condition runs.
    Both LF checkers must reject it wherever it is not the head of an
    application: as an argument, or as a lambda's body."""

    @staticmethod
    def _rejected_by_both(term, expected):
        with pytest.raises(LfError, match="not fully applied"):
            check_proof_term(term, expected, SIGNATURE)
        with pytest.raises(LfError, match="not fully applied"):
            minicheck_proof(term, expected, SIGNATURE)

    def test_bare_schema_passed_to_a_lambda(self):
        """(λf:Πx:form. pf x. f (1 < 0)) arith_eval."""
        false_fact = encode_formula(lt(1, 0), {}, 0)
        schema_ty = LfPi(FORM, _pf(LfVar(0)))
        smuggled = LfApp(LfLam(schema_ty, LfApp(LfVar(0), false_fact)),
                         LfConst("arith_eval"))
        self._rejected_by_both(smuggled, _pf(false_fact))

    def test_partial_linarith_passed_to_a_lambda(self):
        """(λf:cert -> pf true -> pf (1 < 0). f cnil truei)
        (linarith true (1 < 0))."""
        true, false_fact = (encode_formula(f, {}, 0)
                            for f in (Truth(), lt(1, 0)))
        partial_ty = LfPi(LfConst("cert"), LfPi(_pf(true), _pf(false_fact)))
        smuggled = LfApp(
            LfLam(partial_ty, lf_app(LfVar(0), LfConst("cnil"),
                                     LfConst("truei"))),
            lf_app(LfConst("linarith"), true, false_fact))
        self._rejected_by_both(smuggled, _pf(false_fact))

    def test_partial_linarith_returned_from_a_lambda(self):
        """(λx:form. linarith true (1 < 0) cnil) true truei."""
        true, false_fact = (encode_formula(f, {}, 0)
                            for f in (Truth(), lt(1, 0)))
        body = lf_app(LfConst("linarith"), true, false_fact,
                      LfConst("cnil"))
        smuggled = lf_app(LfLam(FORM, body), true, LfConst("truei"))
        self._rejected_by_both(smuggled, _pf(false_fact))

    def test_unsafe_store_with_smuggled_schema(self, filter_policy):
        """A store into the read-only packet, shipped with a one-node
        proof of its own safety predicate via a bare arith_eval."""
        from repro.alpha.encoding import encode_program
        from repro.alpha.parser import parse_program
        from repro.pcc import validate
        from repro.pcc.container import PccBinary, pack_proof
        from repro.vcgen.vcgen import safety_predicate

        program = parse_program("STQ r0, 0(r1)\nRET")
        predicate = encode_formula(safety_predicate(
            program, filter_policy.precondition,
            filter_policy.postcondition, {}), {}, 0)
        schema_ty = LfPi(FORM, _pf(LfVar(0)))
        proof = LfApp(LfLam(schema_ty, LfApp(LfVar(0), predicate)),
                      LfConst("arith_eval"))
        relocation, stream = pack_proof(proof)
        blob = PccBinary(encode_program(program), relocation,
                         stream).to_bytes()
        with pytest.raises(ValidationError, match="not fully applied"):
            validate(blob, filter_policy)


class TestIllFormedTerms:
    def test_pf_applied_to_non_formula(self):
        with pytest.raises(LfError):
            infer_type(_pf(LfInt(3)), SIGNATURE)

    def test_kind_confusion(self):
        # \x:pf. x  — pf is a family (form -> type), not a type
        with pytest.raises(LfError):
            infer_type(LfLam(PF, LfVar(0)), SIGNATURE)

    def test_pi_over_kind_rejected(self):
        from repro.lf.syntax import KIND
        with pytest.raises(LfError):
            infer_type(LfPi(KIND, TM), SIGNATURE)

    def test_dangling_de_bruijn_in_body(self):
        with pytest.raises(LfError):
            infer_type(LfLam(TM, LfVar(5)), SIGNATURE)

    def test_self_application_rejected(self):
        omega = LfLam(TM, LfApp(LfVar(0), LfVar(0)))
        with pytest.raises(LfError):
            infer_type(omega, SIGNATURE)


class TestContainerLevel:
    def test_proof_for_sibling_formula_in_same_binary(self, filter_policy,
                                                      certified_filters):
        """Reusing filter2's proof for filter1's code: the recomputed SP
        differs, so the checker's final comparison fails."""
        from repro.pcc.container import PccBinary
        from repro.pcc import validate

        donor = certified_filters["filter2"].binary
        victim = certified_filters["filter1"].binary
        hybrid = PccBinary(victim.code, donor.relocation, donor.proof)
        with pytest.raises(ValidationError):
            validate(hybrid.to_bytes(), filter_policy)

    def test_undeclared_constant_in_proof(self, filter_policy,
                                          certified_filters):
        """A proof whose symbol table names a constant outside the
        published signature is rejected at type checking."""
        from repro.lf.binary import serialize_lf
        from repro.pcc.container import PccBinary
        from repro.pcc import validate

        table, stream = serialize_lf(LfConst("backdoor_axiom"))
        victim = certified_filters["filter1"].binary
        forged = PccBinary(victim.code, table, stream)
        with pytest.raises(ValidationError):
            validate(forged.to_bytes(), filter_policy)
