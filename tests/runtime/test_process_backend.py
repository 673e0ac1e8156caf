"""The process backend's topology, boundary exchange and re-execution.

``ProcessBackend.serve`` runs shard 0 in the caller and forks one worker
per other shard.  These tests pin what that shape promises beyond the
differential suite: how many processes a serve forks, that a failing
caller still reaps its children, that a quarantine reaches every other
shard at the next round boundary, that per-shard fault runs come out as
serial dispatch leaves them, and that the caller re-executes the rounds
of a worker that dies.
"""

from __future__ import annotations

import os

import pytest

from repro.filters.kv import kv_registers, reusable_kv_memory
from repro.filters.trace import (
    KvTraceConfig,
    TraceConfig,
    generate_kv_trace,
    generate_trace,
)
from repro.runtime import PacketRuntime, RuntimeConfig
from repro.runtime.chaos import sigkill_workers
from repro.runtime.shard import Shard

#: Cycle budget under which filter4 overruns on some seed-3 frames.
BUDGET = 15

#: Frames routed to each shard in the quarantine tests: four rounds of
#: 256.
SLICE = 1_024


@pytest.fixture(scope="module")
def seed3_frames():
    """From ``generate_trace(TraceConfig(packets=200, seed=3))``: a frame
    filter4 serves in 9 cycles (``ok``), and two it overruns a 15-cycle
    budget on, at 22 cycles (``a``) and at 16 (``b``)."""
    frames = generate_trace(TraceConfig(packets=200, seed=3))
    return {"ok": frames[1], "a": frames[0], "b": frames[5]}


@pytest.fixture
def forks(monkeypatch):
    """The pids of every ``os.fork`` the test makes, in order."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _runtime(policy, blobs, backend, shards, **config):
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=shards, backend=backend, **config))
    for name, blob in sorted(blobs.items()):
        runtime.attach(name, blob)
    return runtime


# -- topology --------------------------------------------------------------


def test_one_shard_serve_forks_nothing_and_equals_dispatch(
        filter_policy, filter_blobs, forks):
    """At one shard the parent serves everything: no fork, and the
    runtime ends bit-identical to a dispatch twin, budget faults and
    quarantines included."""
    frames = generate_trace(TraceConfig(packets=300, seed=3))
    served = _runtime(filter_policy, filter_blobs, "process", 1,
                      cycle_budget=BUDGET, fault_threshold=3,
                      batch_size=16)
    dispatched = _runtime(filter_policy, filter_blobs, "serial", 1,
                          cycle_budget=BUDGET, fault_threshold=3,
                          batch_size=16)
    report = served.serve(frames)
    want = dispatched.dispatch(frames)
    assert forks == []
    assert report.backend == "process"
    assert (report.packets, report.contract_drops, report.shard_cycles) \
        == (want.packets, want.contract_drops, want.shard_cycles)
    got = served.snapshot()
    assert got == dispatched.snapshot()
    assert got.faults and any(ext.quarantines for ext in got.extensions)


def test_three_shards_fork_two_children(filter_policy, filter_blobs,
                                        forks):
    frames = generate_trace(TraceConfig(packets=300, seed=11))
    served = _runtime(filter_policy, filter_blobs, "process", 3)
    dispatched = _runtime(filter_policy, filter_blobs, "serial", 3)
    report = served.serve(frames)
    dispatched.dispatch(frames)
    assert len(forks) == 2
    assert report.backend == "process"
    assert served.snapshot() == dispatched.snapshot()


def test_children_reaped_when_shard0_dispatch_raises(
        filter_policy, filter_blobs, forks, monkeypatch):
    """An exception in the parent's own shard-0 dispatch propagates,
    and no child is left unreaped."""
    real_dispatch = Shard.dispatch

    def failing_dispatch(self, *args, **kwargs):
        if self.index == 0:
            raise RuntimeError("shard 0 broke")
        return real_dispatch(self, *args, **kwargs)

    monkeypatch.setattr(Shard, "dispatch", failing_dispatch)
    runtime = _runtime(filter_policy, filter_blobs, "process", 3)
    with pytest.raises(RuntimeError, match="shard 0 broke"):
        runtime.serve(generate_trace(TraceConfig(packets=300, seed=11)))
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_phase_split(filter_policy, filter_blobs):
    """One reading per phase; serial dispatch has no fork or merge."""
    frames = generate_trace(TraceConfig(packets=300, seed=11))
    for backend in ("serial", "process"):
        report = _runtime(filter_policy, filter_blobs, backend,
                          2).serve(frames)
        phases = report.phase_seconds
        assert list(phases) == ["contract", "fork", "execute", "merge"]
        assert all(seconds >= 0 for seconds in phases.values())
        if backend == "serial":
            assert phases["fork"] == phases["merge"] == 0.0
        else:
            assert phases["fork"] > 0


# -- quarantine at the round boundary ----------------------------------------


@pytest.mark.parametrize("shards, faulty", [(2, 0), (2, 1), (3, 1)])
def test_quarantine_relays_to_every_other_shard(
        filter_policy, filter_blobs, seed3_frames, shards, faulty):
    """filter4 overruns on the first frame routed to shard ``faulty``
    and on no other.  That shard stops invoking it at once; the round's
    boundary quarantines it, so every other shard serves it exactly one
    round of 256 frames, on both backends.  The healthy filter serves
    every frame, and the two backends end in equal snapshots."""
    frames = [seed3_frames["ok"]] * (SLICE * shards)
    frames[faulty] = seed3_frames["b"]
    blobs = {name: filter_blobs[name] for name in ("filter1", "filter4")}
    snapshots = {}
    for backend in ("serial", "process"):
        runtime = _runtime(filter_policy, blobs, backend, shards,
                           cycle_budget=BUDGET, fault_threshold=1,
                           batch_size=256)
        runtime.serve(frames)
        snapshots[backend] = runtime.snapshot()
        per_shard = [counters.packets_in for counters in
                     runtime.extension("filter4").shard_counters]
        assert per_shard == [1 if index == faulty else 256
                             for index in range(shards)], backend
    assert snapshots["process"] == snapshots["serial"]
    filter1, filter4 = snapshots["serial"].extensions
    assert filter4.state == "quarantined"
    assert filter4.quarantines == 1
    assert filter1.packets_in == len(frames)


# -- per-shard fault runs ----------------------------------------------------


def test_fault_ledger_merges_as_serial_dispatch(
        filter_policy, filter_blobs, seed3_frames):
    """Faults on both shards, no quarantine.  Fault runs are per shard:
    shard 0's two overruns in a row leave a run of 2 that shard 1's
    successes do not reset, and the last fault is shard 0's.  The
    process backend's snapshot equals serial's after every burst."""
    ok, a, b = seed3_frames["ok"], seed3_frames["a"], seed3_frames["b"]
    runtimes = {backend: _runtime(filter_policy,
                                  {"filter4": filter_blobs["filter4"]},
                                  backend, 2, cycle_budget=BUDGET,
                                  fault_threshold=3)
                for backend in ("serial", "process")}
    for burst in ([ok, a], [b, ok], [b, ok]):
        for runtime in runtimes.values():
            runtime.serve(burst)
        serial, forked = (runtime.snapshot().extensions[0]
                          for runtime in runtimes.values())
        assert forked == serial
    assert serial.state == "active"
    assert serial.consecutive_faults == 2
    assert "16 cycles" in serial.last_fault


def _serve_both(filter_policy, filter_blobs, bursts, threshold):
    """Serve ``bursts`` of filter4 on 2 shards at a 15-cycle budget on
    both backends; asserts full-snapshot equality after every burst and
    returns filter4's final snapshot."""
    runtimes = {backend: _runtime(filter_policy,
                                  {"filter4": filter_blobs["filter4"]},
                                  backend, 2, cycle_budget=BUDGET,
                                  fault_threshold=threshold)
                for backend in ("serial", "process")}
    for burst in bursts:
        snapshots = {}
        for backend, runtime in runtimes.items():
            runtime.serve(burst)
            snapshots[backend] = runtime.snapshot()
        assert snapshots["process"] == snapshots["serial"], burst
    return snapshots["serial"].extensions[0]


def test_threshold_crossed_across_shards_quarantines(
        filter_policy, filter_blobs, seed3_frames):
    """Runs never add up across shards: one fault on each of 2 shards is
    a run of 1 on each, which a threshold of 2 does not reach, and the
    next clean burst resets both.  Two faults in a row on shard 0 do
    cross it, and the boundary quarantines the extension on every
    shard: the last burst reaches neither."""
    ok, a, b = seed3_frames["ok"], seed3_frames["a"], seed3_frames["b"]
    filter4 = _serve_both(filter_policy, filter_blobs,
                          [[a, b], [ok, ok]], threshold=2)
    assert filter4.state == "active"
    assert (filter4.faults, filter4.consecutive_faults) == (2, 0)
    filter4 = _serve_both(filter_policy, filter_blobs,
                          [[a, ok, b, ok], [ok, ok]], threshold=2)
    assert filter4.state == "quarantined"
    assert filter4.quarantines == 1
    assert filter4.consecutive_faults == 2
    assert filter4.packets_in == 4


def test_shard0_success_resets_the_run_a_child_inherited(
        filter_policy, filter_blobs, seed3_frames):
    """A run of 1 on each shard carried into a serve whose shard 0
    succeeds: that success resets shard 0's run only.  Shard 1's worker
    inherits its own run of 1, and its fault makes it 2, which a
    threshold of 3 keeps active."""
    ok, a, b = seed3_frames["ok"], seed3_frames["a"], seed3_frames["b"]
    filter4 = _serve_both(filter_policy, filter_blobs,
                          [[a, b], [ok, b]], threshold=3)
    assert filter4.state == "active"
    assert filter4.consecutive_faults == 2


# -- re-execution ------------------------------------------------------------


def _kv_runtime(kv_policy, kv_blobs, backend, shards, **config):
    return _runtime(kv_policy, {name: kv_blobs[name] for name in
                                ("kv-insert", "nat-rewrite")},
                    backend, shards, cycle_budget="auto",
                    memory_factory=reusable_kv_memory,
                    registers_fn=kv_registers, **config)


def _memories(runtime):
    return [(bytes(shard.memory.region("packet")),
             bytes(shard.memory.region("state")))
            for shard in runtime.shards]


def test_worker_killed_mid_serve_is_reexecuted(kv_policy, kv_blobs):
    """Shard 1's worker is SIGKILLed in round 1 of a 5-round serve.  The
    caller re-runs its remaining rounds from the state the worker sent
    at the first boundary: the serve returns, the runtime ends in serial
    dispatch's snapshot and memories, and the report lists the shard."""
    frames = generate_kv_trace(KvTraceConfig(packets=500, seed=5))
    served = _kv_runtime(kv_policy, kv_blobs, "process", 2, batch_size=50)
    dispatched = _kv_runtime(kv_policy, kv_blobs, "serial", 2,
                             batch_size=50)
    with sigkill_workers({1: 1}):
        report = served.serve(frames)
    dispatched.dispatch(frames)
    assert list(report.reexecuted) == [1]
    assert report.reexecuted[1] > 0
    assert served.snapshot() == dispatched.snapshot()
    assert _memories(served) == _memories(dispatched)


class _Broken(Exception):
    """Raised by a deliberately broken shard."""


def test_exception_in_worker_and_caller_propagates(
        filter_policy, filter_blobs, forks, monkeypatch):
    """Shard 1's dispatch raises wherever it runs: its worker exits, the
    caller re-executes the round and raises the same exception type
    itself, and every child is reaped."""
    original = Shard.dispatch

    def broken(self, *args, **kwargs):
        if self.index == 1:
            raise _Broken("shard 1 broke")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Shard, "dispatch", broken)
    runtime = _runtime(filter_policy, filter_blobs, "process", 3)
    with pytest.raises(_Broken, match="shard 1 broke"):
        runtime.serve(generate_trace(TraceConfig(packets=300, seed=11)))
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
