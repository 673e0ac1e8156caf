"""The producer's round trip on random programs.

Each program from :mod:`tests.generators` must certify; ``validate`` must
accept its container; minicheck, the independent LF checker, must accept
the wire proof against the predicate ``validate`` recomputed; and every
step of the natural-deduction tree must name a proof constant of the LF
signature, or ``hyp``.  The example count is 10 per generator, or the
loaded Hypothesis profile's under ``--hypothesis-profile=ci``.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.filters.kv import kv_packet_policy
from repro.lf.encode import encode_formula
from repro.lf.minicheck import minicheck_proof
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.pcc import certify, validate
from repro.pcc.container import PccBinary, unpack_proof
from repro.proof.encode import PROOF_CONSTANTS
from repro.proof.proofs import proof_rules_used
from tests.generators import random_filter_source, random_kv_source

_CI = settings.get_profile("ci")
EXAMPLES = _CI.max_examples if settings.default is _CI else 10

_VOCABULARY = frozenset(PROOF_CONSTANTS) | {"hyp"}


def _round_trip(source: str, policy) -> None:
    certified = certify(source, policy)
    blob = certified.binary.to_bytes()
    report = validate(blob, policy)
    binary = PccBinary.from_bytes(blob)
    expected = LfApp(LfConst("pf"), encode_formula(report.predicate, {}, 0))
    minicheck_proof(unpack_proof(binary.relocation, binary.proof), expected,
                    SIGNATURE)
    assert set(proof_rules_used(certified.proof)) <= _VOCABULARY


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=6))
def test_random_filters_round_trip(filter_policy, seed, blocks):
    _round_trip(random_filter_source(random.Random(seed), blocks),
                filter_policy)


@settings(max_examples=EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=6))
def test_random_kv_programs_round_trip(seed, blocks):
    _round_trip(random_kv_source(random.Random(seed), blocks),
                kv_packet_policy())
