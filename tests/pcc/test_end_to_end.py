"""End-to-end PCC: produce, validate, execute — the Figure 1 lifecycle."""

import struct

import pytest

from repro.alpha.machine import Memory
from repro.errors import CertificationError, ValidationError
from repro.pcc import certify, validate
from repro.pcc.api import CodeConsumer, CodeProducer
from tests.conftest import RESOURCE_ACCESS_SOURCE


class TestResourceAccess:
    """The §2 worked example, from source to kernel-table mutation."""

    def _table_memory(self, tag, data):
        memory = Memory()
        memory.map_region(0x1000, struct.pack("<QQ", tag, data),
                          writable=True, name="table")
        return memory

    def test_full_lifecycle(self, resource_policy, resource_certified):
        consumer = CodeConsumer(resource_policy)
        extension = consumer.install(resource_certified.binary.to_bytes())

        # writable entry: the data word is incremented
        memory = self._table_memory(tag=5, data=41)
        extension.run(memory, registers={0: 0x1000})
        tag, data = struct.unpack("<QQ", bytes(memory.region("table")))
        assert (tag, data) == (5, 42)

        # read-only entry (tag 0): nothing written
        memory = self._table_memory(tag=0, data=41)
        extension.run(memory, registers={0: 0x1000})
        assert struct.unpack("<QQ", bytes(memory.region("table")))[1] == 41

    def test_report_metrics(self, resource_policy, resource_certified):
        report = validate(resource_certified.binary.to_bytes(),
                          resource_policy, measure_memory=True)
        assert report.instructions == 7
        assert report.validation_seconds > 0
        assert report.peak_memory_bytes > 0
        assert report.code_bytes == 28
        # the paper: proof roughly 3x the code (ours is fatter, but the
        # proof must dominate the code section)
        assert report.proof_bytes > report.code_bytes

    def test_unsafe_variant_cannot_be_certified(self, resource_policy):
        # writing the *tag* (read-only) instead of the data word
        unsafe = """
            ADDQ r0, 8, r1
            LDQ  r2, 0(r0)
            STQ  r2, 0(r0)
            RET
        """
        with pytest.raises(CertificationError):
            certify(unsafe, resource_policy)

    def test_unconditional_write_cannot_be_certified(self, resource_policy):
        # writing the data word without checking the tag
        unsafe = """
            LDQ  r2, 8(r0)
            ADDQ r2, 1, r2
            STQ  r2, 8(r0)
            RET
        """
        with pytest.raises(CertificationError):
            certify(unsafe, resource_policy)

    def test_wrong_policy_rejized(self, resource_policy, filter_policy,
                                   resource_certified):
        """A binary certified for one policy fails another consumer."""
        blob = resource_certified.binary.to_bytes()
        with pytest.raises(ValidationError):
            validate(blob, filter_policy)

    def test_try_install(self, resource_policy, resource_certified):
        consumer = CodeConsumer(resource_policy)
        assert consumer.try_install(
            resource_certified.binary.to_bytes()) is not None
        assert consumer.try_install(b"garbage") is None
        assert len(consumer.loaded) == 1

    def test_producer_facade(self, resource_policy):
        producer = CodeProducer(resource_policy)
        blob = producer.build(RESOURCE_ACCESS_SOURCE)
        consumer = CodeConsumer(resource_policy)
        assert consumer.install(blob) is not None
