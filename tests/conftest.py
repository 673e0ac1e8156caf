"""Shared fixtures: policies, programs, traces, and certified binaries.

Certification is the expensive step (the paper: 5-10 seconds per filter),
so certified artifacts are session-scoped and shared across test modules.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.filters.policy import packet_filter_policy
from repro.filters.programs import FILTERS, SCRATCH_COUNTER
from repro.filters.trace import TraceConfig, generate_trace
from repro.pcc import certify
from repro.vcgen.policy import resource_access_policy

#: ``--hypothesis-profile=ci`` widens the search of the suites that take
#: their example count from the loaded profile (the LF checker
#: differential, ``tests/pcc/test_checker_differential.py``, the
#: producer round trip, ``tests/pcc/test_certify_roundtrip.py``, and the
#: three compiled-vs-generic batch searches in
#: ``tests/runtime/test_backend_differential.py``); every other suite
#: pins its own count.
settings.register_profile("ci", max_examples=400, deadline=None)

#: The Figure 5 resource-access client, verbatim from the paper.
RESOURCE_ACCESS_SOURCE = """
    ADDQ r0, 8, r1    % address of data in r1
    LDQ  r0, 8(r0)    % data in r0
    LDQ  r2, -8(r1)   % tag in r2
    ADDQ r0, 1, r0    % increment data
    BEQ  r2, L1       % skip if tag == 0
    STQ  r0, 0(r1)    % write back data
L1: RET
"""


@pytest.fixture(scope="session")
def resource_policy():
    return resource_access_policy()


@pytest.fixture(scope="session")
def filter_policy():
    return packet_filter_policy()


@pytest.fixture(scope="session")
def small_trace():
    """A seeded 1,500-packet trace shared by correctness tests."""
    return generate_trace(TraceConfig(packets=1500, seed=42))


@pytest.fixture(scope="session")
def resource_certified(resource_policy):
    return certify(RESOURCE_ACCESS_SOURCE, resource_policy)


@pytest.fixture(scope="session")
def certified_filters(filter_policy):
    """All four paper filters plus the scratch-writer, certified once."""
    return {spec.name: certify(spec.source, filter_policy)
            for spec in FILTERS + (SCRATCH_COUNTER,)}
