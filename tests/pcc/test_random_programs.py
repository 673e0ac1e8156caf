"""The Safety Theorem on randomly generated programs.

Hypothesis generates random straight-line-with-forward-branches filter
programs whose loads stay within the policy's guaranteed window.  Every
one that certifies must (a) validate, and (b) never block the abstract
machine on any packet — the full Theorem 2.1 loop, mechanized.

Programs that do NOT certify (the generator sometimes produces unsafe
ones on purpose) must never slip through validation with a forged binary.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.alpha.abstract import AbstractMachine
from repro.alpha.machine import Machine
from repro.errors import CertificationError
from repro.filters.policy import (
    filter_registers,
    packet_filter_policy,
    packet_memory,
)
from repro.pcc import certify, validate
from tests.generators import random_filter_source as _random_program

_POLICY = packet_filter_policy()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=6))
def test_certified_random_programs_never_block(seed, blocks):
    rng = random.Random(seed)
    source = _random_program(rng, blocks)
    certified = certify(source, _POLICY)  # must succeed: offsets are safe
    report = validate(certified.binary.to_bytes(), _POLICY)

    packet = bytes(rng.randrange(256) for __ in range(64))
    memory = packet_memory(packet)
    registers = filter_registers(len(packet))
    can_read, can_write = _POLICY.checkers(registers, lambda a: 0)
    abstract = AbstractMachine(report.program, memory, can_read,
                               can_write, dict(registers))
    abstract_result = abstract.run()

    concrete = Machine(report.program, packet_memory(packet),
                       dict(registers))
    assert concrete.run().value == abstract_result.value


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_unsafe_random_programs_rejected(seed):
    """Inject one out-of-window access into an otherwise safe program;
    certification must fail (the prover cannot prove a falsehood)."""
    rng = random.Random(seed)
    source = _random_program(rng, 2)
    bad_offset = rng.choice((64, 72, 128, 1000))
    unsafe = f"LDQ r4, {bad_offset}(r1)\n" + source
    try:
        certify(unsafe, _POLICY)
        raised = False
    except CertificationError:
        raised = True
    assert raised
