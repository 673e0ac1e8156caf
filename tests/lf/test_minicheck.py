"""The independent minimal LF checker vs the primary one.

The paper claims anyone distrusting the published validator "can
implement it easily themselves"; we did, and the two implementations must
agree — acceptance AND rejection — on real proofs and on adversarial
terms.  (The mini checker has no DAG memoization, so it only sees the
small artifacts; scaling is the primary checker's job.)
"""

import pytest

from repro.errors import LfError
from repro.lf.encode import encode_formula
from repro.lf.minicheck import MiniChecker, minicheck_proof
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst, LfInt, LfLam, LfVar, lf_app
from repro.lf.typecheck import check_proof_term, infer_type
from repro.logic.formulas import Falsity, eq, lt
from repro.proof.encode import encode_proof


def _expected(certified):
    return LfApp(LfConst("pf"),
                 encode_formula(certified.predicate, {}, 0))


class TestAgreementOnRealProofs:
    def test_resource_access(self, resource_certified):
        lf_proof = encode_proof(resource_certified.proof,
                                resource_certified.predicate)
        expected = _expected(resource_certified)
        check_proof_term(lf_proof, expected, SIGNATURE)   # primary
        minicheck_proof(lf_proof, expected, SIGNATURE)    # independent

    def test_filter1(self, certified_filters):
        certified = certified_filters["filter1"]
        lf_proof = encode_proof(certified.proof, certified.predicate)
        expected = _expected(certified)
        check_proof_term(lf_proof, expected, SIGNATURE)
        minicheck_proof(lf_proof, expected, SIGNATURE)


class TestAgreementOnRejections:
    def test_wrong_formula(self):
        good = encode_formula(lt(3, 4), {}, 0)
        bad = encode_formula(lt(4, 3), {}, 0)
        proof = LfApp(LfConst("arith_eval"), good)
        with pytest.raises(LfError):
            check_proof_term(proof, LfApp(LfConst("pf"), bad), SIGNATURE)
        with pytest.raises(LfError):
            minicheck_proof(proof, LfApp(LfConst("pf"), bad), SIGNATURE)

    def test_false_side_condition(self):
        bad = encode_formula(eq(2, 3), {}, 0)
        proof = LfApp(LfConst("arith_eval"), bad)
        target = LfApp(LfConst("pf"), bad)
        with pytest.raises(LfError):
            check_proof_term(proof, target, SIGNATURE)
        with pytest.raises(LfError):
            minicheck_proof(proof, target, SIGNATURE)

    def test_cannot_prove_falsity(self):
        target = LfApp(LfConst("pf"),
                       encode_formula(Falsity(), {}, 0))
        with pytest.raises(LfError):
            minicheck_proof(LfConst("truei"), target, SIGNATURE)


class TestInferenceAgreement:
    @pytest.mark.parametrize("term", [
        LfInt(7),
        LfConst("truei"),
        lf_app(LfConst("add64"), LfInt(1), LfInt(2)),
        LfLam(LfConst("tm"), LfVar(0)),
        lf_app(LfConst("eq"), LfInt(1), LfInt(1)),
    ])
    def test_same_types(self, term):
        checker = MiniChecker(SIGNATURE)
        assert checker.normalize(checker.infer(term)) == \
            checker.normalize(infer_type(term, SIGNATURE))

    @pytest.mark.parametrize("term", [
        LfVar(0),                                # unbound
        LfApp(LfInt(1), LfInt(2)),               # non-function
        LfConst("no_such_constant"),
        LfLam(LfConst("pf"), LfVar(0)),          # family as a type
    ])
    def test_same_rejections(self, term):
        with pytest.raises(LfError):
            infer_type(term, SIGNATURE)
        with pytest.raises(LfError):
            MiniChecker(SIGNATURE).infer(term)

    def test_budget_guard(self):
        checker = MiniChecker(SIGNATURE, step_budget=10)
        deep = LfInt(0)
        for __ in range(50):
            deep = LfApp(LfLam(LfConst("tm"), LfVar(0)), deep)
        with pytest.raises(LfError):
            checker.infer(deep)
