"""Cross-validation of the independent proof checkers.

The repository has two validators for the same encoded proofs: the LF
type checker (the paper's validator) and the minimal LF checker
(:mod:`repro.lf.minicheck`), written separately from the first.  Every
certified artifact must satisfy both, before and after a wire round trip
— a disagreement would mean one of the trusted cores is wrong, so this is
the deepest consistency test in the suite.
"""

import pytest

from repro.filters.kv import KV_PROGRAMS, kv_packet_policy
from repro.lf.encode import encode_formula
from repro.lf.binary import deserialize_lf, serialize_lf
from repro.lf.minicheck import minicheck_proof
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.lf.typecheck import check_proof_term
from repro.proof.encode import encode_proof


def _cross_validate(certified):
    # 1. the LF checker accepts the encoded proof
    lf_proof = encode_proof(certified.proof, certified.predicate)
    expected = LfApp(LfConst("pf"),
                     encode_formula(certified.predicate, {}, 0))
    check_proof_term(lf_proof, expected, SIGNATURE)
    # 2. and still after a wire round trip (what the consumer really sees)
    table, stream = serialize_lf(lf_proof)
    wire_proof = deserialize_lf(table, stream)
    check_proof_term(wire_proof, expected, SIGNATURE)
    # 3. as does the independent minimal LF checker
    minicheck_proof(wire_proof, expected, SIGNATURE)


class TestCrossValidation:
    def test_resource_access(self, resource_certified):
        _cross_validate(resource_certified)

    @pytest.mark.parametrize("name", ["filter1", "filter2", "filter3",
                                      "filter4", "scratch-counter"])
    def test_packet_filters(self, certified_filters, name):
        _cross_validate(certified_filters[name])

    def test_checksum_with_loop(self):
        from repro.filters.checksum import (
            CHECKSUM_LOOP_PC,
            CHECKSUM_SOURCE,
            checksum_invariant,
            checksum_policy,
        )
        from repro.pcc import certify

        certified = certify(
            CHECKSUM_SOURCE, checksum_policy(),
            invariants={CHECKSUM_LOOP_PC: checksum_invariant()})
        _cross_validate(certified)

    def test_sfi_rewritten(self):
        from repro.baselines.sfi import sfi_policy, sfi_rewrite
        from repro.filters.programs import FILTERS
        from repro.pcc import certify

        certified = certify(sfi_rewrite(FILTERS[0].program), sfi_policy())
        _cross_validate(certified)

    def test_m3_compiled(self, filter_policy):
        from repro.baselines.m3 import M3_VIEW_FILTERS, compile_view
        from repro.pcc import certify

        certified = certify(compile_view(M3_VIEW_FILTERS["filter1"]),
                            filter_policy)
        _cross_validate(certified)

    @pytest.mark.parametrize("spec", KV_PROGRAMS,
                             ids=[spec.name for spec in KV_PROGRAMS])
    def test_kv_family(self, spec):
        """The store-bearing family: loops, stores and ``linarith``."""
        from repro.pcc import certify

        _cross_validate(certify(spec.source, kv_packet_policy(),
                                invariants=spec.invariants()))
