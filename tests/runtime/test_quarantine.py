"""Quarantine: a faulting extension is isolated, its neighbours are not.

The acceptance scenario for the runtime layer: attach a good filter, a
rogue downgraded extension, and another good filter; the rogue faults on
every packet, crosses the consecutive-fault threshold, and is
quarantined — while the good filters' verdict streams stay bit-identical
to a runtime that never hosted the rogue at all.
"""

import pytest

from repro.errors import ValidationError
from repro.runtime import ExtensionState, PacketRuntime, RuntimeConfig

THRESHOLD = 3


def _downgrading_config(**overrides):
    defaults = dict(downgrade_unproven=True, fault_threshold=THRESHOLD)
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


def test_faulting_extension_is_isolated(filter_policy, filter_blobs,
                                        rogue_blob, small_trace):
    frames = small_trace[:200]

    infected = PacketRuntime(filter_policy, _downgrading_config())
    infected.attach("filter1", filter_blobs["filter1"])
    infected.attach("rogue", rogue_blob)
    infected.attach("filter3", filter_blobs["filter3"])
    records = infected.dispatch(frames, collect=True).records

    clean = PacketRuntime(filter_policy, RuntimeConfig())
    clean.attach("filter1", filter_blobs["filter1"])
    clean.attach("filter3", filter_blobs["filter3"])
    reference = clean.dispatch(frames, collect=True).records

    # The rogue faulted on exactly its first THRESHOLD packets, was
    # quarantined on the last of them, and saw nothing afterwards.
    rogue = infected.extension("rogue")
    assert rogue.state is ExtensionState.QUARANTINED
    assert not rogue.active
    snapshot = rogue.snapshot()
    assert snapshot.packets_in == THRESHOLD
    assert snapshot.faults == THRESHOLD
    assert snapshot.quarantines == 1
    for verdicts in records[:THRESHOLD]:
        assert verdicts["rogue"] is None
    for verdicts in records[THRESHOLD:]:
        assert "rogue" not in verdicts

    # The quarantine reason names the faulting pc and address precisely.
    assert "wr violation" in rogue.last_fault
    assert "pc=0" in rogue.last_fault
    assert "address=0x" in rogue.last_fault

    # The good filters never noticed: bit-identical verdict streams.
    stripped = [{name: verdict for name, verdict in verdicts.items()
                 if name != "rogue"} for verdicts in records]
    assert stripped == reference
    for name in ("filter1", "filter3"):
        extension = infected.extension(name)
        assert extension.state is ExtensionState.ACTIVE
        assert extension.snapshot().packets_in == 200
        assert extension.snapshot().faults == 0


def test_quarantine_is_runtime_wide_across_shards(filter_policy, rogue_blob,
                                                  small_trace):
    """Fault runs are per shard, quarantine is runtime-wide: with 4
    shards each serving the rogue 10 frames in one round, each shard
    stops at its own third fault, and the round's boundary quarantines
    the rogue once."""
    runtime = PacketRuntime(filter_policy,
                            _downgrading_config(shards=4))
    runtime.attach("rogue", rogue_blob)
    runtime.dispatch(small_trace[:40])
    snapshot = runtime.extension("rogue").snapshot()
    assert snapshot.packets_in == 4 * THRESHOLD
    assert snapshot.faults == 4 * THRESHOLD
    assert snapshot.state == "quarantined"
    assert snapshot.quarantines == 1


def test_budget_overrun_quarantines_certified_code(filter_policy,
                                                   filter_blobs,
                                                   small_trace):
    """Safety proofs say nothing about termination time, so even a
    certified filter can trip a (here: absurdly small) cycle budget."""
    runtime = PacketRuntime(filter_policy, RuntimeConfig(
        cycle_budget=5, fault_threshold=2))
    runtime.attach("filter1", filter_blobs["filter1"])
    runtime.dispatch(small_trace[:20])
    extension = runtime.extension("filter1")
    assert extension.state is ExtensionState.QUARANTINED
    assert "cycle budget exceeded" in extension.last_fault
    assert extension.snapshot().packets_in == 2


def test_reinstate_requires_quarantine(filter_policy, filter_blobs):
    runtime = PacketRuntime(filter_policy)
    runtime.attach("filter1", filter_blobs["filter1"])
    with pytest.raises(ValueError, match="not quarantined"):
        runtime.reinstate("filter1")


def test_reinstated_extension_serves_again(filter_policy, filter_blobs,
                                           rogue_blob, small_trace):
    runtime = PacketRuntime(filter_policy, _downgrading_config())
    runtime.attach("rogue", rogue_blob)
    runtime.attach("filter1", filter_blobs["filter1"])
    runtime.dispatch(small_trace[:10])
    assert runtime.extension("rogue").state is ExtensionState.QUARANTINED

    extension = runtime.reinstate("rogue")
    assert extension.state is ExtensionState.REINSTATED
    assert extension.active
    assert extension.consecutive_faults == 0
    # Its bytes still carry no proof, so it stays on the checked tier —
    # and promptly faults its way back into quarantine.
    assert extension.checked
    runtime.dispatch(small_trace[10:20])
    assert extension.state is ExtensionState.QUARANTINED
    assert extension.quarantines == 2


def test_reinstatement_promotes_newly_proven_bytes(filter_policy,
                                                   filter_blobs, rogue_blob,
                                                   small_trace):
    """If a quarantined extension's bytes validate at reinstatement, it
    is promoted to the unchecked fast path.  We model the producer
    shipping a proven replacement by swapping the stored blob before the
    operator reinstates (white-box: the promotion decision only looks at
    what the loader says about ``extension.blob``)."""
    runtime = PacketRuntime(filter_policy, _downgrading_config())
    runtime.attach("rogue", rogue_blob)
    runtime.dispatch(small_trace[:10])
    extension = runtime.extension("rogue")
    assert extension.state is ExtensionState.QUARANTINED
    assert extension.checked

    extension.blob = filter_blobs["filter2"]
    runtime.reinstate("rogue")
    assert extension.state is ExtensionState.REINSTATED
    assert not extension.checked
    assert extension.engine is not None
    assert extension.report is not None

    faults_before = extension.snapshot().faults
    report = runtime.dispatch(small_trace[:50], collect=True)
    after = extension.snapshot()
    assert after.faults == faults_before  # no new faults on the fast path
    assert after.packets_in == faults_before + 50
    assert all(verdicts["rogue"] is not None for verdicts in report.records)


def test_proven_bytes_failing_revalidation_refuse_reinstatement(
        filter_policy, filter_blobs, small_trace):
    """A proven extension whose stored bytes no longer validate (bit rot,
    tampering) must not come back at all."""
    runtime = PacketRuntime(filter_policy, RuntimeConfig(
        cycle_budget=5, fault_threshold=1))
    runtime.attach("filter1", filter_blobs["filter1"])
    runtime.dispatch(small_trace[:5])
    extension = runtime.extension("filter1")
    assert extension.state is ExtensionState.QUARANTINED

    blob = bytearray(extension.blob)
    blob[-1] ^= 0xFF
    extension.blob = bytes(blob)
    with pytest.raises(ValidationError):
        runtime.reinstate("filter1")
    assert extension.state is ExtensionState.QUARANTINED
    assert not extension.active


def test_reinstatement_reresolves_the_cycle_budget(filter_policy,
                                                   filter_blobs,
                                                   small_trace):
    """Regression: ``reinstate()`` must re-run budget resolution rather
    than keep whatever stale budget drove the extension into quarantine
    (an operator fat-fingering a live budget, or a promotion changing
    the WCET).  The reinstated extension gets a fresh ``auto`` budget
    and serves cleanly."""
    runtime = PacketRuntime(filter_policy, RuntimeConfig(
        cycle_budget="auto", fault_threshold=1))
    runtime.attach("filter1", filter_blobs["filter1"])
    extension = runtime.extension("filter1")
    healthy_budget = extension.cycle_budget
    assert healthy_budget > 1

    extension.cycle_budget = 1  # the operator breaks the live budget
    runtime.dispatch(small_trace[:5])
    assert extension.state is ExtensionState.QUARANTINED

    runtime.reinstate("filter1")
    assert extension.cycle_budget == healthy_budget
    faults_before = extension.snapshot().faults
    runtime.dispatch(small_trace[5:50])
    assert extension.snapshot().faults == faults_before
    assert extension.state is ExtensionState.REINSTATED
