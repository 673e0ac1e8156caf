"""Hostile containers nested deeper than the interpreter stack allows.

Both are small (tens of kilobytes) and well formed at the byte level; only
their nesting is hostile.  The validator walks proofs, invariants and
safety predicates with plain recursion, so each must come back as an
ordinary :class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

import pytest

from repro.filters.checksum import (
    CHECKSUM_LOOP_PC,
    CHECKSUM_SOURCE,
    checksum_invariant,
    checksum_policy,
)
from repro.lf.encode import encode_formula
from repro.lf.syntax import LfConst, lf_app
from repro.logic.formulas import Truth
from repro.pcc import certify
from repro.pcc.container import PccBinary, pack_invariants, pack_proof

_TRUE = encode_formula(Truth(), {}, 0)


def _hashed(term):
    """Hash each level as it is built: nodes cache their hash, so the
    serializer's sharing table never recurses down the whole spine."""
    hash(term)
    return term


@pytest.fixture(scope="session")
def deep_proof_blob(certified_filters):
    """filter1's code with a proof nesting 10,500 ``andel`` applications.

    That is past the LF checker's ``max_depth`` of 10,000, but each level
    costs the checker about two interpreter frames, so the stack runs out
    first."""
    proof = LfConst("truei")
    for __ in range(10_500):
        proof = _hashed(lf_app(LfConst("andel"), _TRUE, _TRUE, proof))
    relocation, stream = pack_proof(proof)
    return PccBinary(certified_filters["filter1"].binary.code, relocation,
                     stream).to_bytes()


@pytest.fixture(scope="session")
def checksum_blob():
    return certify(CHECKSUM_SOURCE, checksum_policy(), invariants={
        CHECKSUM_LOOP_PC: checksum_invariant()}).binary.to_bytes()


@pytest.fixture(scope="session")
def deep_invariant_blob(checksum_blob):
    """The certified checksum loop with its invariant nested 7,000 ``and``s
    deep: the invariant decodes, and the VC generator recurses past the
    stack."""
    invariant = encode_formula(checksum_invariant(), {}, 0)
    for __ in range(7_000):
        invariant = _hashed(lf_app(LfConst("and"), invariant, _TRUE))
    binary = PccBinary.from_bytes(checksum_blob)
    return PccBinary(binary.code, binary.relocation, binary.proof,
                     pack_invariants({CHECKSUM_LOOP_PC: invariant})
                     ).to_bytes()
