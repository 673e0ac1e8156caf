"""Backend/batch differential suite: the execution vehicle may never
change semantics.

Three layers of the same claim, each checked property-based:

* **backends** — serial :meth:`PacketRuntime.dispatch`, with and
  without ``collect``, and the forked process backend must produce
  bit-identical snapshots (verdicts, counters, cycle clocks,
  histograms/percentiles, fault runs, quarantine transitions) and shard
  memories on the same frames, at any shard count and round length,
  including traces that inject faults (budget overruns, checked-tier
  violations) and store-bearing extensions that share a shard's state,
  and the process backend's fallbacks must be serial dispatch;
* **batch vs per-frame** — :meth:`ExecutionEngine.run_batch` must equal
  the per-frame ``run`` dispatch protocol on *arbitrary*
  machine programs (loops, wild loads, stores, step limits), not just
  the well-behaved filters;
* **compiled vs generic** — :func:`repro.alpha.batch.compile_batch`
  drivers must equal the generic ``run_batch`` on random certifiable
  filter shapes and on the paper filters, across frame degeneracies
  (empty, unaligned, sub-contract lengths) and budgets; and, on the
  write path, on the KV family, random store-bearing and looping KV
  programs and raw random programs under both invocation contracts —
  outcome and region bytes after every segment.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.alpha.batch as batch
from repro.alpha.batch import FramePlan, batch_capability, compile_batch
from repro.alpha.engine import ExecutionEngine
from repro.alpha.parser import parse_program
from repro.errors import BudgetExceeded, MachineError
from repro.filters.kv import (
    KV_INSERT,
    KV_PROGRAMS,
    KV_STATE_BASE,
    NAT_REWRITE,
    STATE_SIZE,
    kv_registers,
    reusable_kv_memory,
)
from repro.filters.policy import (
    PACKET_BASE,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    filter_registers,
    reusable_packet_memory,
)
from repro.filters.programs import FILTER1, SCRATCH_COUNTER
from repro.filters.trace import (
    KvTraceConfig,
    TraceConfig,
    generate_kv_trace,
    generate_trace,
)
from repro.pcc import certify
from repro.perf.cost import ALPHA_175
from repro.runtime import CanaryConfig, PacketRuntime, RuntimeConfig

from tests.generators import (
    random_filter_source,
    random_kv_loop_source,
    random_kv_source,
    random_machine_program,
)

PLAN = FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE)
KV_PLAN = FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE, persistent=True)

_CI = settings.get_profile("ci")


def _examples(tier1: int) -> int:
    """The compiled-vs-generic searches' example count: ``tier1`` in
    tier-1, the profile's under ``--hypothesis-profile=ci`` (registered
    in ``tests/conftest.py``)."""
    return _CI.max_examples if settings.default is _CI else tier1


#: Frames that poke every edge of the driver's load guards: empty,
#: single byte, one-short-of-aligned, exactly one word, unaligned tail,
#: and a full contract-sized frame.
DEGENERATE_FRAMES = [
    b"", b"\x00", b"\x01" * 7, b"\xff" * 8, b"\x08" * 9,
    bytes(range(64)),
]

frame_strategy = st.binary(min_size=0, max_size=96)

#: filter1 plus a no-op: new bytes, same verdicts — an upgrade to it
#: stays in flight until it promotes.
FILTER1_NOOP = (FILTER1.source.rstrip().rsplit("RET", 1)[0]
                + "ADDQ r3, 0, r3\nRET\n")


def _attach_all(runtime, blobs):
    for name, blob in sorted(blobs.items()):
        runtime.attach(name, blob)


def _fingerprint(snapshot):
    """Everything a backend could corrupt; excludes wall-clock fields."""
    return (snapshot.packets_in, snapshot.faults, snapshot.contract_drops,
            snapshot.shard_cycles, snapshot.extensions)


def _serve_on(backend, policy, blobs, frames, *, shards=1,
              cycle_budget=None, fault_threshold=3,
              downgrade_unproven=False):
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=shards, backend=backend, cycle_budget=cycle_budget,
        fault_threshold=fault_threshold,
        downgrade_unproven=downgrade_unproven))
    _attach_all(runtime, blobs)
    runtime.serve(frames)
    return runtime.snapshot()


def _dispatch_on(policy, blobs, frames, *, shards=1, cycle_budget=None,
                 fault_threshold=3, downgrade_unproven=False):
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=shards, cycle_budget=cycle_budget,
        fault_threshold=fault_threshold,
        downgrade_unproven=downgrade_unproven))
    _attach_all(runtime, blobs)
    runtime.dispatch(frames)
    return runtime.snapshot()


# -- backends ------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), packets=st.integers(5, 80),
       shards=st.integers(1, 4),
       extra=st.lists(frame_strategy, max_size=6))
def test_backends_bit_identical_on_random_traces(
        filter_policy, filter_blobs, seed, packets, shards, extra):
    """Fault-free traffic: full snapshot equality at any shard count,
    serial vs process, including out-of-contract drops."""
    frames = generate_trace(TraceConfig(packets=packets, seed=seed)) + extra
    serial = _dispatch_on(filter_policy, filter_blobs, frames,
                          shards=shards)
    forked = _serve_on("process", filter_policy, filter_blobs, frames,
                       shards=shards)
    assert _fingerprint(serial) == _fingerprint(forked)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([5, 12, 20, 41]),
       threshold=st.sampled_from([1, 2, 3, None]))
def test_backends_bit_identical_under_budget_faults(
        filter_policy, filter_blobs, seed, budget, threshold):
    """Injected budget overruns (and the quarantines they trigger) land
    identically on every backend at one shard — counters, consecutive
    faults, last_fault strings, states, histograms."""
    frames = generate_trace(TraceConfig(packets=40, seed=seed))
    serial = _dispatch_on(filter_policy, filter_blobs, frames,
                          cycle_budget=budget, fault_threshold=threshold)
    forked = _serve_on("process", filter_policy, filter_blobs, frames,
                       cycle_budget=budget, fault_threshold=threshold)
    assert _fingerprint(serial) == _fingerprint(forked)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), threshold=st.integers(1, 4))
def test_backends_bit_identical_on_checked_tier_faults(
        filter_policy, filter_blobs, rogue_blob, seed, threshold):
    """A downgraded rogue faulting on its first packets: the checked
    tier's wr-violation ledger and the quarantine flip are identical
    serial vs process at one shard."""
    blobs = {"filter1": filter_blobs["filter1"], "rogue": rogue_blob}
    frames = generate_trace(TraceConfig(packets=25, seed=seed))
    serial = _dispatch_on(filter_policy, blobs, frames,
                          fault_threshold=threshold,
                          downgrade_unproven=True)
    forked = _serve_on("process", filter_policy, blobs, frames,
                       fault_threshold=threshold,
                       downgrade_unproven=True)
    assert _fingerprint(serial) == _fingerprint(forked)
    rogue = next(ext for ext in serial.extensions if ext.name == "rogue")
    assert rogue.state == "quarantined"
    assert rogue.quarantines == 1
    assert "wr" in rogue.last_fault


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shards=st.integers(2, 4))
def test_multishard_quarantine_converges_identically(
        filter_policy, filter_blobs, rogue_blob, seed, shards):
    """Multi-shard with a faulting extension: bit-identical snapshots
    across backends — quarantined rogue, exactly one transition,
    untouched healthy-filter verdicts."""
    blobs = {"filter2": filter_blobs["filter2"], "rogue": rogue_blob}
    frames = generate_trace(TraceConfig(packets=60, seed=seed))
    fingerprints = {}
    for backend in ("serial", "process"):
        snapshot = _serve_on(backend, filter_policy, blobs, frames,
                             shards=shards, fault_threshold=2,
                             downgrade_unproven=True)
        healthy, rogue = snapshot.extensions
        assert rogue.state == "quarantined"
        assert rogue.quarantines == 1
        # Isolation is exact: the healthy filter saw every frame.
        assert healthy.packets_in == len(frames)
        assert healthy.faults == 0
        fingerprints[backend] = _fingerprint(snapshot)
    assert fingerprints["serial"] == fingerprints["process"]


#: filter4 overruns a 15-cycle budget on some of these frames.
FAULT_POOL = generate_trace(TraceConfig(packets=200, seed=3))


@settings(max_examples=8, deadline=None)
@given(shards=st.integers(2, 3), threshold=st.integers(1, 4),
       batch_size=st.integers(1, 3),
       bursts=st.lists(st.lists(st.sampled_from(FAULT_POOL), min_size=1,
                                max_size=6), min_size=3, max_size=3))
def test_quarantine_mid_serve_is_schedule_determined(
        filter_policy, filter_blobs, shards, threshold, batch_size,
        bursts):
    """Budget faults and quarantines over multi-round serves:
    ``dispatch(collect=True)``, ``dispatch()`` and two process-backend
    runs all end in equal snapshots."""
    def final(backend, collect=False):
        runtime = PacketRuntime(filter_policy, RuntimeConfig(
            shards=shards, backend=backend, cycle_budget=15,
            fault_threshold=threshold, batch_size=batch_size))
        runtime.attach("filter4", filter_blobs["filter4"])
        for burst in bursts:
            if backend == "serial":
                runtime.dispatch(burst, collect=collect)
            else:
                runtime.serve(burst)
        return runtime.snapshot()

    reference = final("serial")
    assert final("serial", collect=True) == reference
    assert final("process") == reference
    assert final("process") == reference


def _kv_runtime(policy, blobs, backend, shards, batch_size=8192):
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=shards, backend=backend, cycle_budget="auto",
        batch_size=batch_size, memory_factory=reusable_kv_memory,
        registers_fn=kv_registers))
    for name, blob in blobs.items():
        runtime.attach(name, blob)
    return runtime


def _states(runtime):
    return [bytes(shard.memory.region("state"))
            for shard in runtime.shards]


@pytest.mark.parametrize("shards", [2, 3])
def test_kv_state_on_every_shard_matches_serial(kv_policy, kv_blobs,
                                                shards):
    """The KV family over three serves of a multi-round trace: the
    process backend leaves full snapshots and every shard's state
    region equal to serial dispatch's after every serve."""
    blobs = {name: kv_blobs[name] for name in ("kv-insert", "nat-rewrite")}
    frames = generate_kv_trace(KvTraceConfig(packets=1500, seed=5))
    served = _kv_runtime(kv_policy, blobs, "process", shards,
                         batch_size=128)
    dispatched = _kv_runtime(kv_policy, blobs, "serial", shards,
                             batch_size=128)
    for start in range(0, len(frames), 500):
        served.serve(frames[start:start + 500])
        dispatched.dispatch(frames[start:start + 500])
        assert served.snapshot() == dispatched.snapshot()
        assert _states(served) == _states(dispatched)
    assert any(_states(served)[index] != bytes(len(_states(served)[0]))
               for index in range(1, shards))


def test_collect_runs_the_dispatch_order(kv_policy, kv_blobs):
    """All four KV programs share one shard's state area, so the order
    in which they see the frames is semantics: collecting verdicts runs
    the same extension-major computation as ``dispatch()``."""
    frames = generate_kv_trace(KvTraceConfig(packets=1000, seed=5))
    runtimes = [_kv_runtime(kv_policy, kv_blobs, "serial", 1)
                for __ in range(2)]
    report = runtimes[0].dispatch(frames, collect=True)
    runtimes[1].dispatch(frames)
    assert runtimes[0].snapshot() == runtimes[1].snapshot()
    assert _states(runtimes[0]) == _states(runtimes[1])
    accepted = {name: sum(bool(record[name]) for record in report.records)
                for name in kv_blobs}
    assert accepted == {ext.name: ext.accepted
                        for ext in runtimes[1].snapshot().extensions}


@pytest.mark.parametrize("backend", ["fork", "Serial", ""])
def test_backend_is_serial_or_process(backend):
    with pytest.raises(ValueError, match="'serial' or 'process'"):
        RuntimeConfig(backend=backend)


@pytest.mark.parametrize("cause", ["canary in flight", "no os.fork"])
def test_process_backend_falls_back_to_serial_dispatch(
        filter_policy, filter_blobs, monkeypatch, cause):
    """The process backend's two fallbacks serve on the caller: the
    report says so, and the runtime ends exactly where ``dispatch``
    leaves a twin — snapshot, upgrade log and canary clocks."""
    frames = generate_trace(TraceConfig(packets=120, seed=5))
    candidate = certify(FILTER1_NOOP, filter_policy).binary.to_bytes()

    def runtime_on(backend):
        runtime = PacketRuntime(filter_policy, RuntimeConfig(
            shards=2, backend=backend))
        _attach_all(runtime, filter_blobs)
        if cause == "canary in flight":
            runtime.upgrade("filter1", candidate,
                            CanaryConfig(promote_after=40))
        return runtime

    served, dispatched = runtime_on("process"), runtime_on("serial")
    if cause == "no os.fork":
        monkeypatch.delattr(os, "fork")
    report = served.serve(frames)
    dispatched.dispatch(frames)
    assert report.backend == "serial"
    got, want = served.snapshot(), dispatched.snapshot()
    assert _fingerprint(got) == _fingerprint(want)
    states = [record.state for record in served.upgrade_log]
    assert states == [record.state for record in dispatched.upgrade_log]
    assert states == (["promoted"] if cause == "canary in flight" else [])
    assert got.canary_cycles == want.canary_cycles


# -- batch vs per-frame --------------------------------------------------


def _normalize(outcome):
    """Comparable form of a (next_index, accepted, hist_pairs, error)
    batch outcome: drop zero-count bins, flatten the error."""
    done, accepted, pairs, error = outcome
    if error is None:
        flat = None
    elif isinstance(error, BudgetExceeded):
        flat = (type(error).__name__, str(error), error.budget,
                error.cycles, error.steps)
    else:
        flat = (type(error).__name__, str(error))
    return done, accepted, {c: n for c, n in pairs if n}, flat


def _per_frame_reference(engine, frames, start, cycle_budget):
    """The serial dispatch protocol a per-frame ``run`` would follow."""
    memory, rebind = reusable_packet_memory()
    accepted = 0
    hist: dict[int, int] = {}
    index = start
    while index < len(frames):
        frame = frames[index]
        rebind(frame)
        registers = filter_registers(len(frame))
        try:
            result = engine.run(memory, registers, cycle_budget)
        except MachineError as error:
            return index, accepted, list(hist.items()), error
        if result.value:
            accepted += 1
        hist[result.cycles] = hist.get(result.cycles, 0) + 1
        index += 1
    return index, accepted, list(hist.items()), None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(3, 12),
       start=st.integers(0, 2),
       budget=st.sampled_from([None, 9, 30, 10_000]))
def test_run_batch_matches_per_frame_on_wild_programs(
        seed, length, start, budget):
    """run_batch over raw random programs — loops, stores, unaligned and
    unmapped loads, step limits — equals the per-frame protocol on the
    full outcome space, at every resume offset and budget."""
    rng = random.Random(seed)
    program = random_machine_program(rng, length)
    engine = ExecutionEngine(program, ALPHA_175, max_steps=400)
    frames = DEGENERATE_FRAMES + [bytes([rng.randrange(256)] * n)
                                  for n in (64, 65, 80)]
    memory, rebind = reusable_packet_memory()
    got = engine.run_batch(memory, rebind, frames, filter_registers,
                           start, budget)
    want = _per_frame_reference(engine, frames, start, budget)
    assert _normalize(got) == _normalize(want)


# -- compiled vs generic batch -------------------------------------------


@settings(max_examples=_examples(20), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 6),
       start=st.integers(0, 2),
       budget=st.sampled_from([None, 7, 15, 33, 100_000]))
def test_compiled_runner_matches_generic_batch(seed, blocks, start,
                                               budget):
    """compile_batch drivers vs the generic engine loop on random
    well-formed filter shapes, over degenerate and contract frames."""
    rng = random.Random(seed)
    program = parse_program(random_filter_source(rng, blocks))
    runner = compile_batch(program, ALPHA_175, PLAN)
    assert runner is not None, "store-free filter must batch-compile"
    engine = ExecutionEngine(program, ALPHA_175)
    frames = DEGENERATE_FRAMES + [bytes(rng.randrange(256)
                                        for _ in range(n))
                                  for n in (1, 15, 64, 64, 200, 1518)]
    memory, rebind = reusable_packet_memory()
    got = runner.run(frames, start, budget)
    want = engine.run_batch(memory, rebind, frames, filter_registers,
                            start, budget)
    assert _normalize(got) == _normalize(want)


@pytest.mark.parametrize("budget", [None, 5, 12, 20, 37, 42, 100_000])
def test_paper_filters_compiled_vs_generic(certified_filters, budget):
    """The four paper filters (the binaries the runtime actually serves)
    round-trip through the compiled drivers bit-identically at every
    budget, including mid-frame budget faults and resume-after-fault."""
    rng = random.Random(0xA1F4A)
    frames = (generate_trace(TraceConfig(packets=300, seed=7))
              + DEGENERATE_FRAMES
              + [bytes(rng.randrange(256) for _ in range(n))
                 for n in (1, 15, 1518)])
    for name in ("filter1", "filter2", "filter3", "filter4"):
        program = certified_filters[name].program
        runner = compile_batch(program, ALPHA_175, PLAN)
        assert runner is not None, name
        engine = ExecutionEngine(program, ALPHA_175)
        memory, rebind = reusable_packet_memory()
        # Walk segment-to-segment exactly as Shard._dispatch_batch does,
        # so resume-after-fault offsets are covered too.
        start = 0
        while start < len(frames):
            got = runner.run(frames, start, budget)
            want = engine.run_batch(memory, rebind, frames,
                                    filter_registers, start, budget)
            assert _normalize(got) == _normalize(want), (name, start)
            done, _, _, error = got
            if error is None:
                break
            start = done + 1


# -- compiled vs generic: the write path ---------------------------------

#: KV contract frames: a Zipf burst (which fills the table) plus every
#: degenerate length.
KV_FRAMES = (generate_kv_trace(KvTraceConfig(packets=160, hosts=24,
                                             seed=11))
             + DEGENERATE_FRAMES
             + generate_kv_trace(KvTraceConfig(packets=40, seed=12)))

#: Each contract: its plan, reusable memory and entry registers.
CONTRACTS = {
    "filter": (PLAN, reusable_packet_memory, filter_registers),
    "kv": (KV_PLAN, reusable_kv_memory, kv_registers),
}


def _compiled_vs_generic(program, contract, frames, start, budget,
                         state=b"", max_steps=1_000_000):
    """Walk ``frames`` segment by segment from ``start`` exactly as
    ``Shard._dispatch_batch`` does — the compiled runner on one memory,
    ``run_batch`` on another, both starting from r3's region holding
    ``state`` (when persistent) — and require equal normalized outcomes
    and equal region bytes after every segment.  ``budget`` may name a
    fraction of the runner's WCET bound instead of a cycle count."""
    plan, factory, registers_fn = CONTRACTS[contract]
    region = plan.region
    runner = compile_batch(program, ALPHA_175, plan, max_steps)
    assert runner is not None, "bounded program must batch-compile"
    engine = ExecutionEngine(program, ALPHA_175, max_steps)
    if isinstance(budget, float):
        budget = max(1, int(runner.max_path_cycles * budget))
    compiled, __ = factory()
    generic, rebind = factory()
    if plan.persistent and state:
        compiled.region(region)[:] = generic.region(region)[:] = state
    segments = 0
    while start < len(frames):
        got = runner.run(frames, start, budget, memory=compiled)
        want = engine.run_batch(generic, rebind, frames, registers_fn,
                                start, budget)
        assert _normalize(got) == _normalize(want), (start, budget)
        assert compiled.region(region) == generic.region(region), start
        if runner.uses_memory:
            assert compiled.region("packet") == generic.region("packet")
        segments += 1
        done, _, _, error = got
        if error is None:
            break
        start = done + 1
    return segments


#: Budgets: none, small (faults at the first blocks), mid-loop (a
#: fraction of the WCET bound) and exactly the WCET bound (the plain
#: driver).
KV_BUDGETS = [None, 9, 0.5, 1.0]


@settings(max_examples=_examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), looping=st.booleans(),
       start=st.integers(0, 2), budget=st.sampled_from(KV_BUDGETS))
def test_kv_compiled_runner_matches_generic_batch(seed, looping, start,
                                                  budget):
    """Random store-bearing KV programs — bounded state scans whose
    body loads and stores the state and the packet, and loop-free
    ones — compiled vs ``run_batch`` over a rebound
    ``reusable_kv_memory`` that starts from random state bytes."""
    rng = random.Random(seed)
    source = (random_kv_loop_source(rng, rng.randrange(1, 6)) if looping
              else random_kv_source(rng, rng.randrange(1, 7)))
    state = bytes(rng.randrange(256) for __ in range(STATE_SIZE))
    _compiled_vs_generic(parse_program(source), "kv", KV_FRAMES, start,
                         budget, state)


@pytest.mark.parametrize("budget", KV_BUDGETS + [40, 0.9])
@pytest.mark.parametrize("spec", KV_PROGRAMS, ids=lambda spec: spec.name)
def test_kv_programs_compiled_vs_generic(spec, budget):
    """The four KV programs round-trip through the compiled drivers
    bit-identically at every budget and start, over contract and
    degenerate frames, including mid-loop budget faults and
    resume-after-fault."""
    for start in (0, 1, 2):
        _compiled_vs_generic(spec.program, "kv", KV_FRAMES, start, budget)


@settings(max_examples=_examples(40), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(3, 14),
       contract=st.sampled_from(sorted(CONTRACTS)),
       start=st.integers(0, 2),
       budget=st.sampled_from([None, 9, 30, 0.5, 1.0]))
def test_compiled_runner_matches_generic_on_wild_programs(
        seed, length, contract, start, budget):
    """Raw random programs — stores, loops, wild and unaligned
    addresses, writes to a read-only packet, branches out of the
    program — wherever they batch-compile, under either contract."""
    rng = random.Random(seed)
    program = random_machine_program(rng, length)
    plan = CONTRACTS[contract][0]
    if compile_batch(program, None, plan, max_steps=400) is None:
        return
    frames = DEGENERATE_FRAMES + [bytes(rng.randrange(256)
                                        for __ in range(n))
                                  for n in (64, 65, 80, 130)]
    state = bytes(rng.randrange(256) for __ in range(STATE_SIZE))
    _compiled_vs_generic(program, contract, frames, start, budget, state,
                         max_steps=400)


#: Loops that test the scan offset exactly at the edges a branch on a
#: compare narrows it to (one short of the bound inside the loop, the
#: bound at its exit, a literal-left compare), a scan that stores
#: each slot and reloads it while bumping a counter word it also read
#: before the loop, and straight-line reloads around stores into each
#: buffer (packet load, state store, packet reload; a store at an
#: address that is packet word 1 or state word 1 by a bit of packet
#: word 3, which the helper serves in the packet, between loads of both
#: words; state load, packet store, state reload): a range narrowed one
#: too far, or a reload served from before a store that reaches it,
#: changes the count in r0 (the verdict is whether the count is right)
#: or the state bytes.
EDGE_PROGRAMS = {
    "narrowed-offsets": ("""
        SUBQ r0, r0, r0
        SUBQ r4, r4, r4
        SUBQ r9, r9, r9
        LDA r9, 38(r9)
        BR check
loop:   CMPEQ r4, 39, r7
        ADDQ r0, r7, r0
        CMPULT r9, r4, r7
        BEQ r7, skip
        CMPEQ r4, 39, r7
        ADDQ r0, r7, r0
skip:   ADDQ r4, 1, r4
check:  {guard}
        BNE r5, loop
        CMPEQ r4, 40, r7
        ADDQ r0, r7, r0
        CMPEQ r0, 3, r0
        RET
""", ("CMPULT r4, 40, r5", "CMPULE r4, 39, r5")),
    "store-then-reload": ("""
        SUBQ r0, r0, r0
        SUBQ r4, r4, r4
        LDQ r8, 152(r3)
        BR check
loop:   LDQ r7, 152(r3)
        ADDQ r7, 1, r7
        STQ r7, 152(r3)
        ADDQ r3, r4, r5
        LDQ r6, 0(r5)
        ADDQ r6, 1, r7
        STQ r7, 0(r5)
        LDQ r8, 0(r5)
        CMPEQ r8, r7, r9
        ADDQ r0, r9, r0
        ADDQ r4, 8, r4
check:  {guard}
        BNE r10, loop
        LDQ r6, 0(r3)
        STQ r0, 0(r3)
        LDQ r7, 0(r3)
        CMPEQ r7, r0, r7
        ADDQ r0, r7, r0
        CMPEQ r0, 21, r0
        RET
""", ("CMPULT r4, 160, r10",)),
    "buffer-reach": ("""
        SUBQ r0, r0, r0
        LDQ r5, 8(r1)
        ADDQ r5, 1, r6
        STQ r6, 0(r3)
        LDQ r7, 8(r1)
        CMPEQ r7, r5, r7
        ADDQ r0, r7, r0
        LDQ r4, 24(r1)
        {guard}
        SUBQ r3, r1, r8
        MULQ r4, r8, r8
        ADDQ r1, r8, r8
        LDQ r5, 8(r1)
        LDQ r6, 8(r3)
        ADDQ r5, r6, r7
        ADDQ r7, 1, r7
        STQ r7, 8(r8)
        LDQ r9, 8(r1)
        LDQ r10, 8(r3)
        CMPEQ r9, r7, r9
        CMPEQ r10, r7, r10
        ADDQ r9, r10, r9
        ADDQ r0, r9, r0
        LDQ r5, 0(r3)
        ADDQ r5, 1, r6
        STQ r6, 16(r1)
        LDQ r7, 0(r3)
        CMPEQ r7, r5, r7
        ADDQ r0, r7, r0
        CMPEQ r0, 3, r0
        RET
""", ("AND r4, 1, r4", "SRL r4, 1, r4\n        AND r4, 1, r4")),
}


@pytest.mark.parametrize("contract", sorted(CONTRACTS))
@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_compiled_narrowing_and_reloads_at_the_edges(name, contract):
    source, guards = EDGE_PROGRAMS[name]
    frames = KV_FRAMES[:40]
    for guard in guards:
        program = parse_program(source.format(guard=guard))
        runner = compile_batch(program, ALPHA_175, CONTRACTS[contract][0])
        if contract == "kv" or name == "narrowed-offsets":
            # Every frame's count is right ...
            memory = CONTRACTS[contract][1]()[0]
            assert runner.run(frames, memory=memory)[1] == len(frames)
        # ... and the compiled driver is the engine (under the filter
        # contract the state scan faults past the 16-byte scratch, and
        # the packet stores fault in the read-only packet).
        _compiled_vs_generic(program, contract, frames, 0, None)


def test_state_store_keeps_the_packet_loads(monkeypatch):
    """A store into r3's region cannot reach the packet: nat-rewrite's
    drivers load packet word 24 once, and rewrite it after the
    state-table store without reloading it."""
    sources = []
    builtin_compile = compile

    def record(source, filename, mode):
        if filename == "<alpha-batch>":
            sources.append(source)
        return builtin_compile(source, filename, mode)

    monkeypatch.setattr(batch, "compile", record, raising=False)
    assert compile_batch(NAT_REWRITE.program, ALPHA_175, KV_PLAN) is not None
    # The plain driver and the budgeted one.
    assert [source.count("q(pkt, 24)") for source in sources] == [1, 1]


@pytest.mark.parametrize("contract, program", [
    ("kv", KV_INSERT.program),
    ("filter", parse_program(SCRATCH_COUNTER.source)),
], ids=["kv-insert", "scratch-counter"])
def test_word_list_is_written_back_when_a_frame_raises(contract, program):
    """A foreign exception mid-run (``len()`` of a frame that is not
    bytes-like) still leaves r3's region holding the stores of every
    frame before it, as the engine's in-place writes do."""
    plan, factory, registers_fn = CONTRACTS[contract]
    frames = KV_FRAMES[:30]
    runner = compile_batch(program, ALPHA_175, plan)
    compiled, __ = factory()
    with pytest.raises(TypeError):
        runner.run(frames[:20] + [None] + frames[20:], memory=compiled)
    generic, rebind = factory()
    ExecutionEngine(program, ALPHA_175).run_batch(
        generic, rebind, frames[:20], registers_fn)
    assert any(generic.region(plan.region))
    assert compiled.region(plan.region) == generic.region(plan.region)


def test_region_of_partial_words_is_refused():
    """The drivers hold r3's region as a list of words: a region whose
    size is not a multiple of 8 stays on the generic engine, with the
    reason named."""
    plan = FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE - 4,
                     persistent=True)
    assert batch_capability(KV_INSERT.program, plan=plan) \
        == "r3's region (156 bytes at 0x30000) is not whole words"
    assert compile_batch(KV_INSERT.program, ALPHA_175, plan) is None


def test_compiled_loop_widens_a_shrinking_alignment():
    """A scan offset that halves on every pass loses a known trailing
    zero per pass: the third emission assumes none, keeps the alignment
    guard, and faults where the engine does (at offset 4)."""
    program = parse_program("""
        SUBQ r4, r4, r4
        LDA r4, 128(r4)
loop:   ADDQ r3, r4, r5
        LDQ r6, 0(r5)
        ADDQ r0, r6, r0
        SRL r4, 1, r4
        BNE r4, loop
        RET
""")
    frames = KV_FRAMES[:30]
    assert _compiled_vs_generic(program, "kv", frames, 0, None,
                                bytes(range(STATE_SIZE))) == len(frames)

