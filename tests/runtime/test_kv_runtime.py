"""The write-capable family under the dispatch runtime.

Admission (auto WCET budgets, compiled batch runners, the capability
probe's reasons), and the acceptance property: a runtime dispatching
the adversarial trace leaves per-shard persistent state
*bit-identical* to the pure-Python oracle, alongside every verdict and
packet rewrite — on the per-frame loop ``dispatch(collect=True)`` runs
and on the compiled batch path plain ``dispatch()`` runs.
"""

import sys

import pytest

from repro.alpha.batch import FramePlan, batch_capability, compile_batch
from repro.alpha.isa import Branch, Reg, Ret
from repro.analysis import context_for_policy, estimate_wcet
from repro.filters.checksum import CHECKSUM_SOURCE
from repro.filters.kv import (
    KV_INSERT,
    KV_PROGRAMS,
    KV_STATE_BASE,
    STATE_SIZE,
    kv_packet_policy,
    kv_registers,
    oracle_run,
    reusable_kv_memory,
)
from repro.filters.policy import PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE
from repro.filters.trace import KvTraceConfig, generate_adversarial_trace, \
    generate_kv_trace
from repro.alpha.parser import parse_program
from repro.pcc import certify
from repro.perf.cost import ALPHA_175
from repro.runtime import PacketRuntime, RuntimeConfig

PACKETS = 600


@pytest.fixture(scope="module")
def kv_policy():
    return kv_packet_policy()


@pytest.fixture(scope="module")
def kv_blobs(kv_policy):
    return {spec.name: certify(spec.source, kv_policy,
                               invariants=spec.invariants()
                               ).binary.to_bytes()
            for spec in KV_PROGRAMS}


def _kv_runtime(kv_policy, **overrides):
    defaults = dict(shards=1, cycle_budget="auto",
                    memory_factory=reusable_kv_memory,
                    registers_fn=kv_registers)
    defaults.update(overrides)
    return PacketRuntime(kv_policy, RuntimeConfig(**defaults))


def _contract_frames(trace, config=None):
    config = config or RuntimeConfig()
    return [frame for frame in trace
            if config.min_frame_bytes <= len(frame)
            <= config.max_frame_bytes]


# -- admission ----------------------------------------------------------


def test_admission_with_auto_wcet_budget(kv_policy, kv_blobs):
    runtime = _kv_runtime(kv_policy)
    context = context_for_policy(kv_policy)
    for spec in KV_PROGRAMS:
        extension = runtime.attach(spec.name, kv_blobs[spec.name])
        assert not extension.checked          # proof-carrying fast tier
        report = estimate_wcet(extension.program, context)
        assert report.bound is not None       # every loop is bounded
        assert extension.wcet_bound == report.bound
        assert extension.cycle_budget == report.budget(0.0)


KV_PLAN = FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE, persistent=True)


def test_store_bearing_admission_never_raises_on_batch_path(kv_policy,
                                                            kv_blobs):
    """The store-bearing, looping family batch-compiles at admission
    under the KV contract: every program gets a runner (the generic
    engine stays beside it, for the per-frame loop)."""
    runtime = _kv_runtime(kv_policy)
    for name, blob in kv_blobs.items():
        extension = runtime.attach(name, blob)
        assert extension.batch_runner is not None, name
        assert extension.batch_runner.uses_memory
        assert extension.engine is not None


def test_batch_capability_names_the_reason():
    """Stores and bounded loops compile; a loop with no WCET bound
    under the driver's entry ranges (the checksum loop's trip count is
    the frame length) is named, under either contract."""
    for spec in KV_PROGRAMS:
        assert batch_capability(spec.program, plan=KV_PLAN) is None, \
            spec.name
        assert batch_capability(spec.program) is None, spec.name

    from repro.filters.programs import FILTERS
    for filter_spec in FILTERS:
        assert batch_capability(filter_spec.program) is None, \
            filter_spec.name

    checksum = parse_program(CHECKSUM_SOURCE)
    for plan in (None, KV_PLAN):
        reason = batch_capability(checksum, plan=plan)
        assert reason is not None
        assert "loop" in reason and "WCET bound" in reason


def test_compile_batch_agrees_with_capability_probe():
    """compile_batch returns None exactly when the probe gives a
    reason (checked over both families and both contracts)."""
    from repro.filters.programs import FILTERS
    programs = [spec.program for spec in KV_PROGRAMS]
    programs += [filter_spec.program for filter_spec in FILTERS]
    programs.append(parse_program(CHECKSUM_SOURCE))
    for plan in (FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE),
                 KV_PLAN):
        for program in programs:
            runner = compile_batch(program, ALPHA_175, plan)
            assert (runner is None) == (
                batch_capability(program, plan=plan) is not None)


def _loop_sequence(count: int, entry: str):
    """``count`` bounded loops one after another, each counter starting
    from ``entry``."""
    lines = []
    for index in range(count):
        lines += [entry, f"l{index}: ADDQ r4, 8, r4", "CMPULT r4, 16, r5",
                  f"BNE r5, l{index}"]
    return parse_program("\n".join(lines + ["RET"]))


def test_loop_sequences_past_the_caps_fall_back():
    """Loops entered one after another nest their ``while`` statements
    (CPython refuses more than 20 statically nested blocks), and each
    re-emits the loops after it while its trailing-zero count settles:
    past the loop cap or the node cap, which counts every pass, the
    probe names the reason and compile_batch returns None."""
    # A start of unknown alignment: one pass per loop.
    loaded = "LDQ r4, 0(r3)\nAND r4, 7, r4"
    assert batch_capability(_loop_sequence(14, loaded), plan=KV_PLAN) \
        is None
    program = _loop_sequence(20, loaded)
    assert batch_capability(program, plan=KV_PLAN) \
        == "more than 16 loops on one path"
    assert compile_batch(program, None, KV_PLAN) is None
    # A start at 0 (all trailing zeros known): two passes per loop.
    cleared = "SUBQ r4, r4, r4"
    assert batch_capability(_loop_sequence(8, cleared), plan=KV_PLAN) \
        is None
    assert batch_capability(_loop_sequence(12, cleared), plan=KV_PLAN) \
        == "tree too large"


def test_one_runner_serves_every_memory_it_is_handed():
    """A runner is shared by every shard (and inherited by forked
    children): each call works on the region buffers of the memory it
    is handed, including buffers a state install replaced since the
    last call — alternating two memories equals two separate engine
    runs."""
    from repro.alpha.engine import ExecutionEngine

    program = KV_INSERT.program
    runner = compile_batch(program, ALPHA_175, KV_PLAN)
    engine = ExecutionEngine(program, ALPHA_175)
    frames = _contract_frames(generate_kv_trace(
        KvTraceConfig(packets=160, hosts=24, seed=4)))
    served = [reusable_kv_memory()[0] for __ in range(2)]
    references = [reusable_kv_memory() for __ in range(2)]
    for number, index in enumerate(range(0, len(frames), 20)):
        chunk = frames[index:index + 20]
        memory = served[number % 2]
        reference, rebind = references[number % 2]
        got = runner.run(chunk, 0, None, memory=memory)
        want = engine.run_batch(reference, rebind, chunk, kv_registers)
        assert got[:2] == want[:2] and got[3] is want[3] is None
        assert dict(got[2]) == dict(want[2])
        assert memory.region("state") == reference.region("state")
        assert memory.region("packet") == reference.region("packet")
        # What the process backend's install may do: new bytearrays.
        for region in memory._regions:
            region.data = bytearray(region.data)
    assert any(served[0].region("state"))


def test_block_graph_walk_is_not_recursive():
    """Both entry points size the block graph first; a loop-free chain
    of more blocks than the recursion limit must not raise there.  Each
    ``BEQ r4, +0`` is its own block, taken and fall-through alike."""
    depth = sys.getrecursionlimit() + 100
    program = (Branch("BEQ", Reg(4), 0),) * depth + (Ret(),)
    assert batch_capability(program) is None
    runner = compile_batch(program, None,
                           FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE))
    assert runner.run([b""]) == (1, 0, [(depth + 1, 1)], None)


def test_unproven_store_blob_rejected_without_downgrade(kv_policy,
                                                        rogue_blob):
    from repro.errors import ValidationError
    runtime = _kv_runtime(kv_policy)
    with pytest.raises(ValidationError):
        runtime.attach("rogue", rogue_blob)


# -- dispatch: verdicts, rewrites, and persistent state -----------------


def _dispatch_differential(kv_policy, kv_blobs, name, trace):
    """One extension, one shard: dispatch must equal the serial oracle
    in verdict stream, fault count, and final state bytes — both the
    per-frame loop (``collect=True``) and the compiled batch path that
    plain ``dispatch()`` takes."""
    frames = _contract_frames(trace)
    verdicts, __, state = oracle_run(name, frames)
    want_state = b"".join(word.to_bytes(8, "little") for word in state)

    runtime = _kv_runtime(kv_policy)
    runtime.attach(name, kv_blobs[name])
    report = runtime.dispatch(trace, collect=True)
    assert report.packets == len(frames)
    assert report.contract_drops == len(trace) - len(frames)
    got = [record[name] for record in report.records]
    assert None not in got                    # zero faults
    assert got == verdicts
    shard_state = bytes(runtime.shards[0].memory.region("state"))
    assert shard_state == want_state
    assert len(shard_state) == STATE_SIZE

    batched = _kv_runtime(kv_policy)
    extension = batched.attach(name, kv_blobs[name])
    assert extension.batch_runner is not None
    report = batched.dispatch(trace)
    assert report.packets == len(frames)
    snapshot = batched.snapshot().extensions[0]
    assert snapshot.faults == 0
    assert snapshot.accepted == sum(1 for verdict in verdicts if verdict)
    assert bytes(batched.shards[0].memory.region("state")) == want_state


@pytest.mark.parametrize("spec", KV_PROGRAMS, ids=lambda s: s.name)
def test_zipf_trace_state_differential(kv_policy, kv_blobs, spec):
    trace = generate_kv_trace(KvTraceConfig(packets=PACKETS, hosts=24))
    _dispatch_differential(kv_policy, kv_blobs, spec.name, trace)


@pytest.mark.parametrize("spec", KV_PROGRAMS, ids=lambda s: s.name)
def test_adversarial_trace_state_differential(kv_policy, kv_blobs, spec):
    """The acceptance criterion: runtime post-state bit-identical to
    the oracle across the adversarial trace."""
    trace = generate_adversarial_trace(PACKETS)
    _dispatch_differential(kv_policy, kv_blobs, spec.name, trace)


def test_state_persists_across_dispatch_calls(kv_policy, kv_blobs):
    """The table survives between dispatch batches — per-shard state is
    persistent, unlike the per-invocation BPF scratch."""
    trace = generate_kv_trace(KvTraceConfig(packets=200, hosts=8))
    half = len(trace) // 2
    split_runtime = _kv_runtime(kv_policy)
    split_runtime.attach(KV_INSERT.name, kv_blobs[KV_INSERT.name])
    split_runtime.dispatch(trace[:half])
    split_runtime.dispatch(trace[half:])

    whole_runtime = _kv_runtime(kv_policy)
    whole_runtime.attach(KV_INSERT.name, kv_blobs[KV_INSERT.name])
    whole_runtime.dispatch(trace)

    assert bytes(split_runtime.shards[0].memory.region("state")) \
        == bytes(whole_runtime.shards[0].memory.region("state"))
    assert any(bytes(whole_runtime.shards[0].memory.region("state")))


def test_auto_budget_never_faults_on_kv_workload(kv_policy, kv_blobs):
    """The WCET budget is a sound bound: budgeted dispatch completes the
    whole trace with zero faults and the same telemetry as unbudgeted."""
    trace = _contract_frames(generate_adversarial_trace(300))
    snapshots = []
    for budget in ("auto", None):
        runtime = _kv_runtime(kv_policy, cycle_budget=budget)
        for name, blob in sorted(kv_blobs.items()):
            runtime.attach(name, blob)
        runtime.dispatch(trace)
        snapshots.append(runtime.snapshot())
    budgeted, unbudgeted = snapshots
    assert budgeted.faults == unbudgeted.faults == 0
    for left, right in zip(budgeted.extensions, unbudgeted.extensions):
        assert left.name == right.name
        assert left.accepted == right.accepted
