"""The extension loader: content-addressed cache, counters, batch pool.

The cache key is ``sha256(binary bytes) x policy fingerprint``; these
tests pin the keying discipline (every policy field participates, byte
identity is required), the counter algebra (hits + misses == loads), and
the batch path (pool fan-out, per-item error isolation, within-batch
dedup).  The tier-1 smoke test pushes a small batch through an actual
``multiprocessing`` pool.
"""

import pytest

from repro.errors import ValidationError
from repro.logic.formulas import conj, rd
from repro.logic.terms import Var, add64
from repro.pcc import validate
from repro.pcc.container import PccBinary
from repro.pcc.loader import ExtensionLoader, policy_fingerprint
from repro.vcgen.policy import SafetyPolicy, resource_access_policy


@pytest.fixture()
def loader(resource_policy):
    return ExtensionLoader(resource_policy, capacity=8)


@pytest.fixture(scope="module")
def resource_blob(resource_certified):
    return resource_certified.binary.to_bytes()


class TestCacheBehaviour:
    def test_second_load_hits_and_returns_cached_report(self, loader,
                                                        resource_blob):
        cold = loader.load(resource_blob)
        warm = loader.load(resource_blob)
        assert warm is cold
        stats = loader.stats()
        assert (stats.loads, stats.hits, stats.misses) == (2, 1, 1)

    def test_warm_report_equals_cold_validate(self, loader, resource_blob,
                                              resource_policy):
        loader.load(resource_blob)
        warm = loader.load(resource_blob)
        cold = validate(resource_blob, resource_policy)
        assert warm.program == cold.program
        assert warm.predicate == cold.predicate

    def test_pccbinary_object_and_bytes_share_an_entry(self, loader,
                                                       resource_certified,
                                                       resource_blob):
        loader.load(resource_certified.binary)
        assert loader.load(resource_blob) is not None
        assert loader.stats().hits == 1

    def test_rejections_are_not_cached(self, loader):
        for __ in range(2):
            with pytest.raises(ValidationError):
                loader.load(b"garbage")
        stats = loader.stats()
        assert stats.misses == 2 and stats.hits == 0 and stats.size == 0

    def test_explicit_evict_forces_revalidation(self, loader,
                                                resource_blob):
        loader.load(resource_blob)
        assert resource_blob in loader
        assert loader.evict(resource_blob) is True
        assert resource_blob not in loader
        assert loader.evict(resource_blob) is False
        loader.load(resource_blob)
        stats = loader.stats()
        assert stats.misses == 2 and stats.evictions == 1

    def test_clear_empties_and_counts(self, loader, resource_blob):
        loader.load(resource_blob)
        assert loader.clear() == 1
        assert len(loader) == 0
        assert loader.stats().evictions == 1

    def test_measure_memory_bypasses_and_refreshes(self, loader,
                                                   resource_blob):
        stale = loader.load(resource_blob)
        assert stale.peak_memory_bytes == 0
        fresh = loader.load(resource_blob, measure_memory=True)
        assert fresh.peak_memory_bytes > 0
        assert loader.stats().misses == 2
        # the refreshed (measured) report is now the cached one
        assert loader.load(resource_blob) is fresh

    def test_capacity_must_be_positive(self, resource_policy):
        with pytest.raises(ValueError):
            ExtensionLoader(resource_policy, capacity=0)


class TestPolicyFingerprint:
    def test_every_field_participates(self):
        r0 = Var("r0")
        base = resource_access_policy()
        variants = [
            base,
            SafetyPolicy(base.name + "x", base.precondition,
                         base.postcondition, base.make_checkers),
            SafetyPolicy(base.name, conj([base.precondition,
                                          rd(add64(r0, 16))]),
                         base.postcondition, base.make_checkers),
            SafetyPolicy(base.name, base.precondition,
                         rd(r0), base.make_checkers),
            SafetyPolicy(base.name, base.precondition,
                         base.postcondition, None),
        ]
        prints = [policy_fingerprint(p) for p in variants]
        assert len(set(prints)) == len(prints)

    def test_structurally_equal_policies_fingerprint_equally(self):
        assert policy_fingerprint(resource_access_policy()) == \
            policy_fingerprint(resource_access_policy())

    def test_fresh_loader_for_equal_policy_still_validates_cold(
            self, resource_policy, resource_blob):
        """Fingerprint equality shares nothing: each loader's cache is
        its own — equality only means a *shared* cache would be sound."""
        first = ExtensionLoader(resource_policy)
        second = ExtensionLoader(resource_policy)
        first.load(resource_blob)
        second.load(resource_blob)
        assert second.stats().misses == 1


class TestBatchSmoke:
    def test_small_batch_through_the_pool(self, filter_policy,
                                          certified_filters):
        """Tier-1 smoke: a small mixed batch through an actual pool."""
        blobs = [certified_filters[name].binary.to_bytes()
                 for name in ("filter1", "filter2")]
        bad = b"\x00" * 40
        loader = ExtensionLoader(filter_policy)
        items = loader.validate_batch(blobs + [bad, blobs[0]],
                                      processes=2)
        assert [item.ok for item in items] == [True, True, False, True]
        assert [item.index for item in items] == [0, 1, 2, 3]
        assert items[2].error and not items[2].cached
        with pytest.raises(ValidationError):
            items[2].unwrap()
        # within-batch dedup: items 0 and 3 share one validation
        assert items[3].report is items[0].report
        stats = loader.stats()
        assert stats.loads == 4 and stats.hits + stats.misses == 4

    def test_serial_and_inprocess_paths_agree(self, filter_policy,
                                              certified_filters):
        blob = certified_filters["filter3"].binary.to_bytes()
        loader = ExtensionLoader(filter_policy)
        serial = loader.validate_batch([blob, b"junk"], processes=0)
        assert [item.ok for item in serial] == [True, False]
        # resubmission: the valid item now comes from the cache
        again = loader.validate_batch([blob, b"junk"], processes=0)
        assert again[0].cached and again[0].report is serial[0].report
        assert not again[1].ok

    def test_batch_results_feed_consumer_install(self, filter_policy,
                                                 certified_filters):
        from repro.pcc.api import CodeConsumer

        blobs = [certified_filters[name].binary.to_bytes()
                 for name in ("filter1", "filter4")]
        consumer = CodeConsumer(filter_policy)
        extensions = consumer.install_batch(blobs + [b"bad"], processes=0)
        assert extensions[0] is not None and extensions[1] is not None
        assert extensions[2] is None
        assert len(consumer.loaded) == 2
        assert consumer.loader_stats().misses == 3

    def test_consumer_install_reuses_cache(self, resource_policy,
                                           resource_blob):
        from repro.pcc.api import CodeConsumer

        consumer = CodeConsumer(resource_policy)
        first = consumer.install(resource_blob)
        second = consumer.install(resource_blob)
        assert second.report is first.report
        stats = consumer.loader_stats()
        assert stats.hits == 1 and stats.misses == 1


class TestDeepNesting:
    """A container nested past the interpreter stack is an ordinary
    rejection: it neither raises out of the consumer nor costs its
    batch-mates their verdicts or the pool a retry."""

    @pytest.fixture(params=["proof", "invariant"])
    def case(self, request, filter_policy, certified_filters):
        from repro.filters.checksum import checksum_policy

        if request.param == "proof":
            return (filter_policy,
                    certified_filters["filter1"].binary.to_bytes(),
                    request.getfixturevalue("deep_proof_blob"))
        return (checksum_policy(), request.getfixturevalue("checksum_blob"),
                request.getfixturevalue("deep_invariant_blob"))

    def test_try_install_returns_none(self, case):
        from repro.pcc.api import CodeConsumer

        policy, __, hostile = case
        assert CodeConsumer(policy).try_install(hostile) is None

    @pytest.mark.parametrize("processes", [0, 2])
    def test_batch_keeps_the_good_verdict(self, case, processes):
        policy, good, hostile = case
        loader = ExtensionLoader(policy)
        items = loader.validate_batch([good, hostile], processes=processes)
        assert [item.ok for item in items] == [True, False]
        assert items[1].error
        stats = loader.stats()
        assert (stats.pool_retries, stats.pool_fallbacks) == (0, 0)


class TestEmptyAndEdgeBatches:
    def test_empty_batch(self, resource_policy):
        assert ExtensionLoader(resource_policy).validate_batch([]) == []

    def test_single_item_batch_stays_in_process(self, resource_policy,
                                                resource_blob):
        loader = ExtensionLoader(resource_policy)
        [item] = loader.validate_batch([resource_blob])
        assert item.ok and item.index == 0

    def test_corrupt_container_isolated(self, resource_policy,
                                        resource_certified):
        binary = resource_certified.binary
        truncated = binary.to_bytes()[:-3]
        swapped = PccBinary(binary.code, binary.proof,
                            binary.relocation).to_bytes()
        loader = ExtensionLoader(resource_policy)
        items = loader.validate_batch(
            [truncated, binary.to_bytes(), swapped], processes=0)
        assert [item.ok for item in items] == [False, True, False]
