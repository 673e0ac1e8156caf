"""Dispatch semantics: sharding may never change what a filter decides.

The reference is the pure-Python oracles: every verdict out of the
runtime — any shard count, serial or forked — must match them
bit-for-bit, because the runtime runs the *same* certified code over the
*same* frames; shards only change which modeled core does the work.
"""

import json

from repro.filters.oracle import ORACLES
from repro.filters.packets import oversize_frame, truncate_frame
from repro.runtime import PacketRuntime, RuntimeConfig

PACKETS = 250


def _attach_all(runtime, filter_blobs):
    for name, blob in sorted(filter_blobs.items()):
        runtime.attach(name, blob)


def test_verdicts_match_oracles(filter_policy, filter_blobs, small_trace):
    runtime = PacketRuntime(filter_policy)
    _attach_all(runtime, filter_blobs)
    frames = small_trace[:PACKETS]
    report = runtime.dispatch(frames, collect=True)
    assert report.packets == PACKETS
    assert len(report.records) == PACKETS
    for frame, verdicts in zip(frames, report.records):
        for name, verdict in verdicts.items():
            assert verdict == ORACLES[name](frame), name


def test_sharding_preserves_verdict_stream(filter_policy, filter_blobs,
                                           small_trace):
    frames = small_trace[:PACKETS]
    records = {}
    for shards in (1, 4):
        runtime = PacketRuntime(filter_policy, RuntimeConfig(shards=shards))
        _attach_all(runtime, filter_blobs)
        records[shards] = runtime.dispatch(frames, collect=True).records
    assert records[1] == records[4]


def test_serve_matches_dispatch_counters(filter_policy, filter_blobs,
                                         small_trace):
    """The forked path and the serial reference agree on every
    counter: accepts, faults, per-shard packet counts and cycle clocks."""
    frames = small_trace[:PACKETS]
    snapshots = []
    for method, backend in (("dispatch", "serial"), ("serve", "process")):
        runtime = PacketRuntime(filter_policy, RuntimeConfig(
            shards=4, backend=backend))
        _attach_all(runtime, filter_blobs)
        getattr(runtime, method)(frames)
        snapshots.append(runtime.snapshot())
    serial, forked = snapshots
    assert serial.faults == forked.faults == 0
    assert serial.shard_cycles == forked.shard_cycles
    for left, right in zip(serial.extensions, forked.extensions):
        assert left.name == right.name
        assert left.accepted == right.accepted
        assert left.cycles == right.cycles
        assert left.p99_cycles == right.p99_cycles


def test_contract_enforcement_drops_out_of_contract_frames(
        filter_policy, filter_blobs, small_trace):
    frames = list(small_trace[:60])
    frames[3] = truncate_frame(frames[3], 16)
    frames[17] = oversize_frame(frames[17])
    runtime = PacketRuntime(filter_policy)
    _attach_all(runtime, filter_blobs)
    report = runtime.dispatch(frames)
    assert report.contract_drops == 2
    assert report.packets == 58
    snapshot = runtime.snapshot()
    assert snapshot.contract_drops == 2
    assert snapshot.faults == 0


def test_snapshot_json_round_trip(filter_policy, filter_blobs, small_trace):
    runtime = PacketRuntime(filter_policy, RuntimeConfig(shards=2))
    _attach_all(runtime, filter_blobs)
    runtime.serve(small_trace[:100])
    payload = json.loads(runtime.stats_json())
    assert payload["shards"] == 2
    assert payload["packets_in"] == 100
    assert payload["dispatches"] == 400
    assert len(payload["extensions"]) == 4
    by_name = {entry["name"]: entry for entry in payload["extensions"]}
    assert set(by_name) == set(filter_blobs)
    for entry in by_name.values():
        assert entry["state"] == "active"
        assert entry["packets_in"] == 100
        assert entry["accepted"] + entry["rejected"] == 100
        assert entry["p50_cycles"] <= entry["p99_cycles"]


def test_modeled_throughput_uses_busiest_shard(filter_policy, filter_blobs,
                                               small_trace):
    runtime = PacketRuntime(filter_policy, RuntimeConfig(shards=4))
    _attach_all(runtime, filter_blobs)
    report = runtime.serve(small_trace[:200])
    assert len(report.shard_cycles) == 4
    expected = max(report.shard_cycles) / (report.clock_mhz * 1e6)
    assert report.modeled_seconds == expected
    assert report.modeled_packets_per_second == 200 / expected
