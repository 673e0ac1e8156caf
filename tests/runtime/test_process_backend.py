"""The process backend's topology, relays and fault-ledger merge.

``ProcessBackend.serve`` runs shard 0 in the caller and forks one worker
per other shard.  These tests pin what that shape promises beyond the
differential suite: how many processes a serve forks, that a failing
parent still reaps its children, that quarantines cross the process
boundary in both directions, and that the merged fault ledger is the one
serial dispatch would leave.
"""

from __future__ import annotations

import os

import pytest

from repro.filters.trace import TraceConfig, generate_trace
from repro.runtime import PacketRuntime, RuntimeConfig
from repro.runtime.shard import Shard

#: Cycle budget under which filter4 overruns on some seed-3 frames.
BUDGET = 15

#: Frames routed to each shard in the relay tests.
SLICE = 60_000


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


# -- quarantine relays -----------------------------------------------------


@pytest.mark.parametrize("shards, faulty", [(2, 0), (2, 1), (3, 1)])
def test_quarantine_relays_to_every_other_shard(
        filter_policy, filter_blobs, seed3_frames, shards, faulty):
    """filter4 overruns on the first frame routed to shard ``faulty``
    and on no other.  Serial dispatch quarantines it there; the shards
    before serve all their frames to it and the shards after serve
    none.  The process backend makes the same one transition and leaves
    the healthy filter's counters as serial does.  Every other shard
    learns of it between chunks, so none serves filter4 its whole slice:
    only a missing relay could let it."""
    frames = [seed3_frames["ok"]] * (SLICE * shards)
    frames[faulty] = seed3_frames["b"]
    blobs = {name: filter_blobs[name] for name in ("filter1", "filter4")}
    snapshots, per_shard = {}, {}
    for backend in ("serial", "process"):
        runtime = _runtime(filter_policy, blobs, backend, shards,
                           cycle_budget=BUDGET, fault_threshold=1,
                           batch_size=256)
        runtime.serve(frames)
        snapshots[backend] = runtime.snapshot()
        per_shard[backend] = [counters.packets_in for counters in
                              runtime.extension("filter4").shard_counters]
    assert per_shard["serial"] == [SLICE if index < faulty
                                   else 1 if index == faulty else 0
                                   for index in range(shards)]
    assert per_shard["process"][faulty] == 1
    for index in range(shards):
        if index != faulty:
            assert per_shard["process"][index] < SLICE, per_shard
    for snapshot in snapshots.values():
        filter4 = next(ext for ext in snapshot.extensions
                       if ext.name == "filter4")
        assert filter4.state == "quarantined"
        assert filter4.quarantines == 1
    serial, forked = ({ext.name: ext for ext in snapshot.extensions}
                      for snapshot in snapshots.values())
    assert forked["filter1"] == serial["filter1"]
    assert forked["filter1"].packets_in == len(frames)


# -- the fault ledger --------------------------------------------------------


def test_fault_ledger_merges_as_serial_dispatch(
        filter_policy, filter_blobs, seed3_frames):
    """Faults on both shards, no quarantine: the merged run and last
    fault are serial's.  Taking the larger run, or a later shard's
    inherited stale message, quarantined filter4 on the third serve
    where serial dispatch keeps it."""
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
    assert serial.consecutive_faults == 0
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
    """One fault on each shard reaches a threshold of 2 only in serial
    order.  Checked per process, neither side saw 2 in a row, so the
    extension stayed active and the next clean burst reset its run."""
    ok, a, b = seed3_frames["ok"], seed3_frames["a"], seed3_frames["b"]
    filter4 = _serve_both(filter_policy, filter_blobs,
                          [[a, b], [ok, ok]], threshold=2)
    assert filter4.state == "quarantined"
    assert filter4.quarantines == 1
    assert filter4.consecutive_faults == 2


def test_shard0_success_resets_the_run_a_child_inherited(
        filter_policy, filter_blobs, seed3_frames):
    """A run of 2 carried into a serve whose shard 0 succeeds: serial
    dispatch resets it there, so shard 1's fault starts a run of 1.  A
    child that counts on from the inherited run reaches the threshold of
    3 and quarantines an extension serial dispatch keeps."""
    ok, a, b = seed3_frames["ok"], seed3_frames["a"], seed3_frames["b"]
    filter4 = _serve_both(filter_policy, filter_blobs,
                          [[a, b], [ok, b]], threshold=3)
    assert filter4.state == "active"
    assert filter4.consecutive_faults == 1
