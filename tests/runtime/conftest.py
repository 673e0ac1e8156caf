"""Fixtures for the dispatch-runtime tests.

The rogue blob is the canonical unproven extension: a well-formed PCC
container whose code section stores through an *unchecked* pointer (no
proof at all), so admission must either reject it or downgrade it to the
checked Figure 3 tier — where its first packet faults with a precise
``wr`` violation.
"""

from __future__ import annotations

import pytest

from repro.alpha.encoding import encode_program
from repro.alpha.parser import parse_program
from repro.filters.kv import KV_PROGRAMS, kv_packet_policy
from repro.pcc import certify
from repro.pcc.container import PccBinary

#: Stores r2 (the frame length) through r1 (the frame base).  The frame
#: region is read-only under the packet-filter policy, so the abstract
#: machine faults at pc=0 with a wr violation on the frame base address.
ROGUE_SOURCE = """
    STQ r2, 0(r1)
    ADDQ r1, 1, r0
    RET
"""


@pytest.fixture(scope="session")
def rogue_blob() -> bytes:
    """A decodable PCC container with no proof: unprovable, downgradable."""
    code = encode_program(parse_program(ROGUE_SOURCE))
    return PccBinary(code, b"", b"", b"").to_bytes()


@pytest.fixture(scope="session")
def undecodable_blob() -> bytes:
    """A PCC container whose code section is garbage: not even
    downgradable (the checked tier still needs a decodable program)."""
    return PccBinary(b"\xff\xee\xdd\xcc", b"", b"", b"").to_bytes()


@pytest.fixture(scope="session")
def filter_blobs(certified_filters) -> dict[str, bytes]:
    """The four paper filters as wire-format PCC binaries."""
    return {name: certified.binary.to_bytes()
            for name, certified in certified_filters.items()
            if name.startswith("filter")}


@pytest.fixture(scope="session")
def kv_policy():
    return kv_packet_policy()


@pytest.fixture(scope="session")
def kv_blobs(kv_policy) -> dict[str, bytes]:
    """The four store-bearing KV programs as wire-format PCC binaries."""
    return {spec.name: certify(spec.source, kv_policy,
                               invariants=spec.invariants()
                               ).binary.to_bytes()
            for spec in KV_PROGRAMS}
