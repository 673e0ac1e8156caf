"""Producer-side pipeline details: invariant canonicalization, error
wrapping, and the CertificationResult record."""

import pytest

from repro.errors import CertificationError
from repro.logic.formulas import Forall, Implies, conj, eq, ge, lt, rd
from repro.logic.terms import Var, add64, and64
from repro.pcc.producer import CertificationResult, canonicalize_invariants, certify
from repro.vcgen.policy import resource_access_policy, word_identity
from tests.conftest import RESOURCE_ACCESS_SOURCE


class TestCanonicalization:
    def test_binder_names_are_canonicalized(self):
        original = Forall("my_fancy_index", Implies(
            conj([ge(Var("my_fancy_index"), 0),
                  lt(Var("my_fancy_index"), Var("r2")),
                  eq(and64(Var("my_fancy_index"), 7), 0)]),
            rd(add64(Var("r1"), Var("my_fancy_index")))))
        canonical = canonicalize_invariants({3: original})[3]
        assert isinstance(canonical, Forall)
        assert canonical.var == "v0"

    def test_idempotent(self):
        formula = conj([word_identity(Var("r4")),
                        eq(and64(Var("r4"), 7), 0)])
        once = canonicalize_invariants({0: formula})
        twice = canonicalize_invariants(once)
        assert once == twice

    def test_register_variables_survive(self):
        formula = word_identity(Var("r4"))
        assert canonicalize_invariants({0: formula})[0] == formula


class TestCertifyApi:
    def test_accepts_source_text_and_programs(self, resource_policy):
        from repro.alpha.parser import parse_program
        from_text = certify(RESOURCE_ACCESS_SOURCE, resource_policy)
        from_program = certify(parse_program(RESOURCE_ACCESS_SOURCE),
                               resource_policy)
        assert from_text.binary.code == from_program.binary.code

    def test_result_record(self, resource_certified):
        assert isinstance(resource_certified, CertificationResult)
        assert len(resource_certified.program) == 7
        assert resource_certified.predicate is not None
        assert resource_certified.proof is not None

    def test_reproducible_binaries(self, resource_policy):
        first = certify(RESOURCE_ACCESS_SOURCE, resource_policy)
        second = certify(RESOURCE_ACCESS_SOURCE, resource_policy)
        assert first.binary.to_bytes() == second.binary.to_bytes()

    def test_assembly_errors_wrapped(self, resource_policy):
        with pytest.raises(CertificationError):
            certify("FNORD r1, r2, r3\nRET", resource_policy)

    def test_prover_failure_wrapped(self, resource_policy):
        with pytest.raises(CertificationError):
            certify("LDQ r0, 16(r0)\nRET", resource_policy)
