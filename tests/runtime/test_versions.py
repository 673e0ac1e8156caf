"""Versioned hot-swap: shadow canaries, auto-promotion, auto-rollback.

The invariants under test are the control plane's contract: the live
version stays authoritative for every packet while a candidate shadows,
promotion is atomic and bumps the version, and rollback restores
bit-identical behaviour because the shadow never perturbed anything in
the first place.
"""

import pytest

from repro.errors import PatchError, UnknownExtensionError, ValidationError
from repro.pcc import certify
from repro.pcc.incremental import certify_incremental
from repro.runtime import (
    CanaryConfig,
    PacketRuntime,
    RuntimeConfig,
    VersionState,
)

#: filter1 with a harmless extra instruction: different bytes (and one
#: extra cycle), identical verdicts — the benign upgrade.
BENIGN_VARIANT = """
    LDQ    r4, 8(r1)
    EXTWL  r4, 4, r4
    CMPEQ  r4, 8, r0
    ADDQ   r3, 0, r3
    RET
"""

#: filter1 with the verdict inverted — diverges on the first packet.
DIVERGENT_VARIANT = """
    LDQ    r4, 8(r1)
    EXTWL  r4, 4, r4
    CMPEQ  r4, 8, r0
    CMPEQ  r0, 0, r0
    RET
"""


@pytest.fixture(scope="module")
def benign_blob(filter_policy):
    return certify(BENIGN_VARIANT, filter_policy).binary.to_bytes()


@pytest.fixture(scope="module")
def divergent_blob(filter_policy):
    return certify(DIVERGENT_VARIANT, filter_policy).binary.to_bytes()


def _runtime(filter_policy, **overrides):
    defaults = dict(shards=2, cycle_budget="auto")
    defaults.update(overrides)
    return PacketRuntime(filter_policy, RuntimeConfig(**defaults))


def _records(report):
    return report.records


class TestUpgradeAdmission:
    def test_upgrade_goes_through_the_loader(self, filter_policy,
                                             filter_blobs, rogue_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        with pytest.raises(ValidationError):
            runtime.upgrade("filter1", rogue_blob)
        assert runtime.extension("filter1").canary is None

    def test_byte_identical_upgrade_rejected(self, filter_policy,
                                             filter_blobs):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        with pytest.raises(ValueError, match="byte-identical"):
            runtime.upgrade("filter1", filter_blobs["filter1"])

    def test_unknown_extension_rejected(self, filter_policy, benign_blob):
        runtime = _runtime(filter_policy)
        with pytest.raises(UnknownExtensionError):
            runtime.upgrade("ghost", benign_blob)

    def test_double_upgrade_rejected(self, filter_policy, filter_blobs,
                                     benign_blob, divergent_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob)
        with pytest.raises(ValueError, match="already in flight"):
            runtime.upgrade("filter1", divergent_blob)

    def test_quarantined_extension_cannot_upgrade(self, filter_policy,
                                                  filter_blobs, benign_blob,
                                                  small_trace):
        runtime = _runtime(filter_policy, cycle_budget=2,
                           fault_threshold=1)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.dispatch(small_trace[:5])
        with pytest.raises(ValueError, match="quarantined"):
            runtime.upgrade("filter1", benign_blob)


class TestPromotion:
    def test_clean_canary_promotes(self, filter_policy, filter_blobs,
                                   benign_blob, small_trace):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        live = runtime.extension("filter1")
        old_budget = live.cycle_budget
        old_digest = live.digest

        shadow = runtime.upgrade(
            "filter1", benign_blob,
            CanaryConfig(sample_fraction=1.0, promote_after=50))
        runtime.dispatch(small_trace[:200])

        assert shadow.state is VersionState.PROMOTED
        assert live.version == 2
        assert live.digest != old_digest
        assert live.canary is None
        # the benign variant costs one extra cycle: promotion must carry
        # the candidate's freshly resolved WCET budget, not the old one
        assert live.cycle_budget == old_budget + 1
        record = runtime.upgrade_log[-1]
        assert record.state == "promoted"
        assert record.clean == 50
        assert record.from_version == 1 and record.to_version == 2

    def test_verdicts_bit_identical_across_promotion(
            self, filter_policy, filter_blobs, benign_blob, small_trace):
        baseline = _runtime(filter_policy)
        baseline.attach("filter1", filter_blobs["filter1"])
        expected = _records(baseline.dispatch(small_trace, collect=True))

        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob,
                        CanaryConfig(sample_fraction=1.0,
                                     promote_after=100))
        got = _records(runtime.dispatch(small_trace, collect=True))
        assert got == expected
        assert runtime.extension("filter1").version == 2

    def test_operator_promote(self, filter_policy, filter_blobs,
                              benign_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob)
        record = runtime.promote("filter1")
        assert record.state == "promoted"
        assert record.reason == "operator promote"
        assert runtime.extension("filter1").version == 2

    def test_promote_without_canary_raises(self, filter_policy,
                                           filter_blobs):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        with pytest.raises(ValueError, match="no upgrade in flight"):
            runtime.promote("filter1")


class TestRollback:
    def test_divergence_rolls_back_immediately(self, filter_policy,
                                               filter_blobs, divergent_blob,
                                               small_trace):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        live = runtime.extension("filter1")
        old_digest = live.digest

        shadow = runtime.upgrade(
            "filter1", divergent_blob,
            CanaryConfig(sample_fraction=1.0, promote_after=10 ** 6))
        runtime.dispatch(small_trace[:50])

        assert shadow.state is VersionState.ROLLED_BACK
        assert shadow.divergences == 1  # the first one decided it
        assert "divergence" in shadow.reason
        assert live.version == 1
        assert live.digest == old_digest
        assert live.canary is None
        assert runtime.upgrade_log[-1].state == "rolled-back"

    def test_rollback_restores_bit_identical_verdicts(
            self, filter_policy, filter_blobs, divergent_blob, small_trace):
        baseline = _runtime(filter_policy)
        baseline.attach("filter1", filter_blobs["filter1"])
        expected = _records(baseline.dispatch(small_trace, collect=True))

        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", divergent_blob,
                        CanaryConfig(sample_fraction=1.0,
                                     promote_after=10 ** 6))
        half = len(small_trace) // 2
        first = _records(runtime.dispatch(small_trace[:half], collect=True))
        second = _records(runtime.dispatch(small_trace[half:],
                                           collect=True))
        assert first + second == expected

    def test_candidate_fault_rolls_back(self, filter_policy, filter_blobs,
                                        benign_blob, small_trace):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        shadow = runtime.upgrade(
            "filter1", benign_blob,
            CanaryConfig(sample_fraction=1.0, promote_after=10 ** 6))
        # sabotage the candidate's budget: its first shadow invocation
        # overruns, and a candidate fault must roll the upgrade back
        shadow.candidate.cycle_budget = 1
        runtime.dispatch(small_trace[:10])
        assert shadow.state is VersionState.ROLLED_BACK
        assert shadow.faults == 1
        assert shadow.reason.startswith("candidate fault")
        live = runtime.extension("filter1")
        assert live.version == 1
        assert live.snapshot().faults == 0  # the live side never faulted

    def test_operator_rollback(self, filter_policy, filter_blobs,
                               benign_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob)
        record = runtime.rollback("filter1")
        assert record.state == "rolled-back"
        assert runtime.extension("filter1").version == 1

    def test_detach_kills_inflight_canary(self, filter_policy,
                                          filter_blobs, benign_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob)
        runtime.detach("filter1")
        with pytest.raises(UnknownExtensionError):
            runtime.promote("filter1")


class TestShadowIsolation:
    def test_canary_cycles_never_move_the_live_clock(
            self, filter_policy, filter_blobs, benign_blob, small_trace):
        baseline = _runtime(filter_policy)
        baseline.attach("filter1", filter_blobs["filter1"])
        base_report = baseline.dispatch(small_trace)

        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob,
                        CanaryConfig(sample_fraction=1.0,
                                     promote_after=10 ** 6))
        report = runtime.dispatch(small_trace)
        assert report.shard_cycles == base_report.shard_cycles
        assert sum(shard.canary_cycles for shard in runtime.shards) > 0

    def test_sampling_fraction_is_respected_and_seeded(
            self, filter_policy, filter_blobs, benign_blob, small_trace):
        def sampled(seed):
            runtime = _runtime(filter_policy)
            runtime.attach("filter1", filter_blobs["filter1"])
            shadow = runtime.upgrade(
                "filter1", benign_blob,
                CanaryConfig(sample_fraction=0.25,
                             promote_after=10 ** 6, seed=seed))
            runtime.dispatch(small_trace)
            return shadow.sampled

        first = sampled(7)
        assert 0 < first < len(small_trace) // 2  # ~25%, not everything
        assert sampled(7) == first  # seeded: exactly reproducible

    def test_config_validation(self):
        with pytest.raises(ValueError, match="sample fraction"):
            CanaryConfig(sample_fraction=0.0)
        with pytest.raises(ValueError, match="promote_after"):
            CanaryConfig(promote_after=0)


class TestIncrementalUpgrade:
    """The cheap upgrade path: a proof patch against the serving bytes
    is applied, fully revalidated, and canaried exactly like a full
    container — with fallback to full certification on any patch
    problem and bit-identical restoration on rollback."""

    def test_patch_canary_promotes_with_identical_verdicts(
            self, filter_policy, filter_blobs, small_trace):
        baseline = _runtime(filter_policy)
        baseline.attach("filter1", filter_blobs["filter1"])
        expected = _records(baseline.dispatch(small_trace, collect=True))

        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        result = certify_incremental(
            filter_blobs["filter1"], BENIGN_VARIANT, filter_policy,
            store=runtime.loader.proof_store)
        # The wire patch is smaller than the container it reconstructs.
        assert result.patch_bytes < len(result.binary.to_bytes())
        shadow = runtime.upgrade(
            "filter1", patch=result.patch,
            canary=CanaryConfig(sample_fraction=1.0, promote_after=100))
        got = _records(runtime.dispatch(small_trace, collect=True))

        assert shadow.state is VersionState.PROMOTED
        assert runtime.extension("filter1").version == 2
        assert got == expected
        stats = runtime.loader.stats()
        assert stats.patch_loads == 1
        assert stats.patch_hits == 1
        assert stats.patch_rejects == 0
        assert stats.patch_bytes_saved > 0

    def test_bad_patch_falls_back_to_full_container(
            self, filter_policy, filter_blobs, benign_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        # A patch built against the candidate's own bytes, not the
        # serving version: its base digest cannot match the live blob.
        stale = certify_incremental(benign_blob, BENIGN_VARIANT,
                                    filter_policy)
        runtime.upgrade("filter1", benign_blob, patch=stale.patch)
        assert runtime.loader.stats().patch_rejects == 1
        assert runtime.loader.stats().patch_hits == 0
        record = runtime.promote("filter1")
        assert record.state == "promoted"
        assert runtime.extension("filter1").version == 2

    def test_bad_patch_without_fallback_raises(
            self, filter_policy, filter_blobs, benign_blob):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        stale = certify_incremental(benign_blob, BENIGN_VARIANT,
                                    filter_policy)
        with pytest.raises(PatchError):
            runtime.upgrade("filter1", patch=stale.patch)
        live = runtime.extension("filter1")
        assert live.version == 1
        assert live.canary is None
        assert runtime.loader.stats().patch_rejects == 1

    def test_patch_rollback_restores_prior_proof_bit_identically(
            self, filter_policy, filter_blobs, small_trace):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        result = certify_incremental(
            filter_blobs["filter1"], DIVERGENT_VARIANT, filter_policy,
            store=runtime.loader.proof_store)
        shadow = runtime.upgrade(
            "filter1", patch=result.patch,
            canary=CanaryConfig(sample_fraction=1.0,
                                promote_after=10 ** 6))
        runtime.dispatch(small_trace[:50])

        assert shadow.state is VersionState.ROLLED_BACK
        live = runtime.extension("filter1")
        assert live.version == 1
        # Rollback keeps the prior container — code *and* proof — byte
        # for byte: the canary never replaced anything.
        assert live.blob == filter_blobs["filter1"]


class TestTelemetry:
    def test_snapshot_carries_canary_and_upgrade_log(
            self, filter_policy, filter_blobs, benign_blob, small_trace):
        runtime = _runtime(filter_policy)
        runtime.attach("filter1", filter_blobs["filter1"])
        runtime.upgrade("filter1", benign_blob,
                        CanaryConfig(sample_fraction=1.0, promote_after=20))

        inflight = runtime.snapshot()
        ext = inflight.extensions[0]
        assert ext.version == 1
        assert ext.canary is not None
        assert ext.canary["state"] == "shadow"
        assert ext.canary["to_version"] == 2

        runtime.dispatch(small_trace[:100])
        settled = runtime.snapshot()
        ext = settled.extensions[0]
        assert ext.version == 2
        assert ext.canary is None
        assert len(settled.upgrades) == 1
        assert settled.upgrades[0]["state"] == "promoted"
        assert settled.canary_cycles and sum(settled.canary_cycles) > 0
        settled.to_json()  # must stay JSON-serializable
