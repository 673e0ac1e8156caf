"""The chaos harness: seeded fault injection at every layer.

The PR's robustness claims are cheap to state and easy to regress, so
this module makes them executable.  Each **scenario** wires a real
:class:`~repro.runtime.PacketRuntime` (no mocks — the same loader,
shards, process backend and canary machinery production uses), injects
one class of seeded fault, and asserts the recovery invariants:

====================  ==================================================
scenario              injected fault → asserted invariant
====================  ==================================================
admission-mutants     corrupted containers (code stomp, proof/relocation
                      bit-flips, truncation, header garble) → the loader
                      rejects every mutant; nothing reaches dispatch
adversarial-packets   contract-violating + adversarial-IHL frames → out
                      -of-contract frames drop at the boundary (counted),
                      in-contract corruption never faults a proven
                      filter, and verdicts on clean frames are
                      bit-identical to an uncorrupted run
budget-overrun        an operator-broken 1-cycle budget → quarantine
                      after ``fault_threshold`` overruns, neighbours'
                      verdict streams untouched; reinstatement re-derives
                      the WCET budget and the extension serves
                      bit-identically again (MTTR recorded)
shard-crash           process-backend workers SIGKILLed at seeded
                      rounds, over several bursts → the caller re-executes
                      each dead worker's remaining rounds: every frame
                      dispatched, snapshot and shard memories equal to
                      a serial twin's after every burst, one MTTR sample
                      per death
shard-failure         every worker SIGKILLed in its first round → the
                      caller serves every shard, with the same
                      invariants
pool-wedge            validation pool workers hang → per-item timeouts
                      fire, the batch degrades to in-process validation,
                      verdicts unchanged, ``validate_batch`` returns
pool-kill             validation pool workers die (``os._exit``) → same
                      degradation, no hang, verdicts unchanged
writer-fault          a store-bearing (KV) extension faulted mid-loop
                      by a broken budget → quarantine after
                      ``fault_threshold`` aborts, *no half-written
                      table slots* (aborted invocations leave the
                      persistent state exactly as the oracle over the
                      completed frames alone), and reinstatement
                      revalidates the proof, re-derives the WCET
                      budget, and serves on with oracle-identical
                      verdicts and state
upgrade-rollback      a hot-swap candidate that diverges → automatic
                      rollback on the first divergence; the post-rollback
                      verdict stream is bit-identical to pre-upgrade
upgrade-promotion     a benign candidate → auto-promotion after
                      ``promote_after`` clean packets; verdicts
                      bit-identical throughout, version bumped, budget
                      re-resolved for the new program
====================  ==================================================

Everything is seeded (trace, samplers, mutants, kill schedule), so a
failing run replays exactly.  ``pcc chaos`` drives :func:`run_chaos`
from the command line; CI runs the ``--quick`` profile.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.filters.packets import (
    adversarial_ihl_frame,
    oversize_frame,
    truncate_frame,
)
from repro.filters.programs import FILTERS
from repro.filters.trace import TraceConfig, generate_trace
from repro.pcc import certify
from repro.pcc.mutate import mutants
from repro.runtime.config import RuntimeConfig
from repro.runtime.extension import ExtensionState
from repro.runtime.runtime import PacketRuntime, rounds
from repro.runtime.shard import Shard
from repro.runtime.versions import CanaryConfig

__all__ = [
    "SCENARIOS",
    "ChaosConfig",
    "ChaosReport",
    "ScenarioResult",
    "run_chaos",
    "sigkill_workers",
]

#: Appended to filter1 to build a benign upgrade candidate: different
#: bytes (and one extra cycle), identical verdicts.
_BENIGN_SUFFIX = "        ADDQ   r3, 0, r3\n        RET\n"
#: Appended to build a divergent candidate: logical-not of the verdict.
_DIVERGENT_SUFFIX = "        CMPEQ  r0, 0, r0\n        RET\n"


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign: how much traffic, which seed, which shards."""

    packets: int = 600
    seed: int = 0xC4405
    shards: int = 2
    mutation_rounds: int = 4
    scenarios: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.packets < 50:
            raise ValueError("chaos needs at least 50 packets")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.mutation_rounds < 1:
            raise ValueError("mutation rounds must be positive")
        if self.scenarios is not None:
            unknown = [name for name in self.scenarios
                       if name not in SCENARIOS]
            if unknown:
                raise ValueError(f"unknown scenarios {unknown}; "
                                 f"choose from {list(SCENARIOS)}")


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's verdict: every invariant, individually."""

    name: str
    passed: bool
    checks: tuple[tuple[str, bool, str], ...]
    wall_seconds: float
    details: dict = field(default_factory=dict)

    def failures(self) -> list[str]:
        return [f"{check}: {detail}"
                for check, ok, detail in self.checks if not ok]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [{"check": check, "passed": ok, "detail": detail}
                       for check, ok, detail in self.checks],
            "wall_seconds": self.wall_seconds,
            "details": self.details,
        }


@dataclass(frozen=True)
class ChaosReport:
    """The campaign outcome ``pcc chaos`` prints/serializes."""

    seed: int
    packets: int
    shards: int
    scenarios: tuple[ScenarioResult, ...]
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(scenario.passed for scenario in self.scenarios)

    @property
    def mttr_seconds(self) -> list[float]:
        """Every recovery latency measured across the campaign."""
        out: list[float] = []
        for scenario in self.scenarios:
            out.extend(scenario.details.get("mttr_seconds", ()))
        return out

    def to_dict(self) -> dict:
        mttr = self.mttr_seconds
        return {
            "seed": self.seed,
            "packets": self.packets,
            "shards": self.shards,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "mttr_seconds": mttr,
            "mean_mttr_seconds": (sum(mttr) / len(mttr)) if mttr else 0.0,
            "scenarios": [scenario.to_dict()
                          for scenario in self.scenarios],
        }


class _Checks:
    """Accumulates (name, passed, detail) rows for one scenario."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed, detail: str = "") -> bool:
        self.rows.append((name, bool(passed), detail))
        return bool(passed)

    def equal(self, name: str, got, want) -> bool:
        return self.add(name, got == want,
                        f"got {got!r}, want {want!r}" if got != want else "")


class _Campaign:
    """Shared, certified-once material every scenario draws from."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        from repro.filters.policy import packet_filter_policy

        self.policy = packet_filter_policy()
        self.certified = {
            spec.name: certify(spec.source, self.policy).binary.to_bytes()
            for spec in FILTERS
        }
        self.trace = generate_trace(
            TraceConfig(packets=config.packets, seed=config.seed & 0xFFFF))
        spec = FILTERS[0]
        base = spec.source.rstrip().rsplit("RET", 1)[0]
        self.benign_upgrade = certify(
            base + _BENIGN_SUFFIX, self.policy).binary.to_bytes()
        self.divergent_upgrade = certify(
            base + _DIVERGENT_SUFFIX, self.policy).binary.to_bytes()

    def runtime(self, **overrides) -> PacketRuntime:
        defaults = dict(shards=self.config.shards, cycle_budget="auto",
                        fault_threshold=3)
        defaults.update(overrides)
        return PacketRuntime(self.policy, RuntimeConfig(**defaults))

    def attach_all(self, runtime: PacketRuntime) -> None:
        for name, blob in self.certified.items():
            runtime.attach(name, blob)


def _verdict_stream(report) -> list[dict]:
    return report.records or []


# -- scenarios --------------------------------------------------------------


def _scenario_admission_mutants(campaign: _Campaign,
                                checks: _Checks) -> dict:
    config = campaign.config
    runtime = campaign.runtime()
    total = rejected = 0
    survivors: list[str] = []
    for name, blob in campaign.certified.items():
        for kind, mutant in mutants(blob, seed=config.seed,
                                    rounds=config.mutation_rounds):
            total += 1
            try:
                runtime.attach(f"mutant-{total}", mutant)
                survivors.append(f"{name}/{kind}")
            except ValidationError:
                rejected += 1
    checks.add("every mutant rejected", not survivors,
               f"accepted: {survivors}" if survivors else "")
    checks.equal("nothing attached", len(runtime.extensions), 0)
    checks.add("mutants were generated", total > 0, f"total={total}")
    return {"mutants": total, "rejected": rejected,
            "accepted": survivors}


def _scenario_adversarial_packets(campaign: _Campaign,
                                  checks: _Checks) -> dict:
    import random

    config = campaign.config
    baseline = campaign.runtime()
    campaign.attach_all(baseline)
    clean = campaign.trace
    base_records = _verdict_stream(baseline.dispatch(clean, collect=True))

    rng = random.Random(config.seed ^ 0xADF)
    corrupted = list(clean)
    touched = sorted(rng.sample(range(len(corrupted)),
                                max(4, len(corrupted) // 20)))
    out_of_contract = 0
    in_contract: list[int] = []
    for index in touched:
        kind = rng.choice(("truncated", "oversized", "adversarial-ihl"))
        if kind == "truncated":
            corrupted[index] = truncate_frame(corrupted[index],
                                              rng.randrange(8, 64))
            out_of_contract += 1
        elif kind == "oversized":
            corrupted[index] = oversize_frame(corrupted[index])
            out_of_contract += 1
        else:
            corrupted[index] = adversarial_ihl_frame(
                corrupted[index], rng.randrange(6, 16))
            in_contract.append(index)

    victim = campaign.runtime()
    campaign.attach_all(victim)
    report = victim.dispatch(corrupted, collect=True)
    records = _verdict_stream(report)

    checks.equal("out-of-contract frames dropped at the boundary",
                 report.contract_drops, out_of_contract)
    checks.equal("surviving frames all dispatched",
                 report.packets, len(clean) - out_of_contract)
    faults = sum(ext.faults for ext in victim.snapshot().extensions)
    checks.equal("no proven filter faulted", faults, 0)

    # Per-packet records align with the *kept* stream; rebuild the kept
    # index list so clean frames compare against their baseline slot.
    dropped = {index for index in touched
               if not (64 <= len(corrupted[index]) <= 1518)}
    kept_indices = [index for index in range(len(clean))
                    if index not in dropped]
    mismatches = [index for slot, index in enumerate(kept_indices)
                  if index not in in_contract
                  and records[slot] != base_records[index]]
    checks.add("clean-frame verdicts bit-identical", not mismatches,
               f"diverged at {mismatches[:5]}" if mismatches else "")
    return {"corrupted": len(touched), "dropped": out_of_contract,
            "adversarial_in_contract": len(in_contract)}


def _scenario_budget_overrun(campaign: _Campaign, checks: _Checks) -> dict:
    runtime = campaign.runtime(fault_threshold=3)
    campaign.attach_all(runtime)
    trace = campaign.trace
    third = len(trace) // 3

    baseline = campaign.runtime(fault_threshold=3)
    campaign.attach_all(baseline)
    base_records = _verdict_stream(baseline.dispatch(trace, collect=True))

    victim = runtime.extension("filter3")
    sane_budget = victim.cycle_budget
    victim.cycle_budget = 1   # operator fat-fingers the budget
    records_a = _verdict_stream(runtime.dispatch(trace[:third],
                                                 collect=True))
    quarantined_at = time.perf_counter()
    checks.equal("overruns quarantine the extension",
                 victim.state, ExtensionState.QUARANTINED)
    overruns = victim.snapshot().faults
    checks.add("budget overruns were counted", overruns >= 3,
               f"faults={overruns}")
    neighbours_ok = all(
        {k: v for k, v in record.items() if k != "filter3"}
        == {k: v for k, v in base.items() if k != "filter3"}
        for record, base in zip(records_a, base_records))
    checks.add("neighbour verdicts untouched during the incident",
               neighbours_ok)

    restored = runtime.reinstate("filter3")
    mttr = time.perf_counter() - quarantined_at
    checks.equal("reinstated", restored.state, ExtensionState.REINSTATED)
    checks.equal("reinstatement re-resolved the WCET budget",
                 restored.cycle_budget, sane_budget)

    records_b = _verdict_stream(runtime.dispatch(trace[third:],
                                                 collect=True))
    checks.equal("post-recovery verdicts bit-identical to baseline",
                 records_b, base_records[third:])
    return {"mttr_seconds": [mttr], "overruns": overruns}


#: The kill scenarios' round length and burst count: small rounds, so
#: that every burst has several for a worker to die in.
_KILL_BATCH = 8
_KILL_BURSTS = 3


@contextmanager
def sigkill_workers(schedule: dict[int, int]):
    """While open, the process-backend worker serving shard ``i``
    SIGKILLs itself at the start of round ``schedule[i]`` of each serve
    (``schedule`` may change between serves).

    ``Shard.dispatch`` runs once per round in a worker, so a wrapper
    around it counts the worker's rounds.  It never kills the caller,
    which re-executes a dead worker's rounds through the same method.
    """
    caller = os.getpid()
    done = [0]   # rounds this worker has run; forked at 0 every serve
    original = Shard.dispatch

    def dispatch(shard, *args, **kwargs):
        if os.getpid() != caller:
            if schedule.get(shard.index) == done[0]:
                os.kill(os.getpid(), signal.SIGKILL)
            done[0] += 1
        return original(shard, *args, **kwargs)

    Shard.dispatch = dispatch
    try:
        yield
    finally:
        Shard.dispatch = original


def _kill_workers(campaign: _Campaign, checks: _Checks, deaths) -> dict:
    """Serve the trace in bursts on the process backend beside a serial
    twin, SIGKILLing workers: ``deaths(shards, count)`` maps a worker's
    shard to the round it dies in, for a burst of ``count`` rounds on
    ``shards`` shards (at least 2, so that there is a worker to kill).
    """
    shards = max(2, campaign.config.shards)
    live = campaign.runtime(shards=shards, backend="process",
                            batch_size=_KILL_BATCH)
    twin = campaign.runtime(shards=shards, batch_size=_KILL_BATCH)
    campaign.attach_all(live)
    campaign.attach_all(twin)
    trace = campaign.trace
    size = -(-len(trace) // _KILL_BURSTS)
    killed = served = 0
    mttr: list[float] = []
    mismatched, short, unsampled = [], [], []
    schedule: dict[int, int] = {}
    with sigkill_workers(schedule):
        for burst, start in enumerate(range(0, len(trace), size)):
            frames = trace[start:start + size]
            schedule.clear()
            schedule.update(deaths(shards, len(rounds(
                len(frames), shards, _KILL_BATCH))))
            report = live.serve(frames)
            twin.dispatch(frames)
            killed += len(schedule)
            served += report.packets
            mttr.extend(report.reexecuted.values())
            snapshot = live.snapshot()
            if (snapshot != twin.snapshot()
                    or _memories(live) != _memories(twin)):
                mismatched.append(burst)
            if snapshot.packets_in != served:
                short.append(burst)
            if sorted(report.reexecuted) != sorted(schedule):
                unsampled.append(burst)
    checks.add("workers were killed", killed > 0, f"deaths={killed}")
    checks.add("snapshot and shard memories equal the serial twin's "
               "after every burst", not mismatched,
               f"differ after bursts {mismatched}" if mismatched else "")
    checks.add("every frame dispatched", not short,
               f"frames missing after bursts {short}" if short else "")
    checks.add("one MTTR sample per death", not unsampled and
               len(mttr) == killed,
               f"{len(mttr)} samples for {killed} deaths")
    return {"mttr_seconds": mttr, "deaths": killed, "shards": shards}


def _memories(runtime: PacketRuntime) -> list[tuple[bytes, bytes]]:
    return [(bytes(shard.memory.region("packet")),
             bytes(shard.memory.region("scratch")))
            for shard in runtime.shards]


def _scenario_shard_crash(campaign: _Campaign, checks: _Checks) -> dict:
    import random

    rng = random.Random(campaign.config.seed ^ 0x5A5A)
    return _kill_workers(campaign, checks, lambda shards, count: {
        rng.randrange(1, shards): rng.randrange(count)})


def _scenario_shard_failure(campaign: _Campaign, checks: _Checks) -> dict:
    return _kill_workers(campaign, checks, lambda shards, count: {
        index: 0 for index in range(1, shards)})


def _pool_scenario(campaign: _Campaign, checks: _Checks,
                   saboteur) -> dict:
    import repro.pcc.loader as loader_module
    from repro.pcc.loader import ExtensionLoader

    blobs = list(campaign.certified.values())
    healthy = ExtensionLoader(campaign.policy, capacity=16)
    expected = [item.report.digest if hasattr(item.report, "digest")
                else True
                for item in healthy.validate_batch(blobs, processes=0)]

    original = loader_module._pool_validate
    loader_module._pool_validate = saboteur
    try:
        loader = ExtensionLoader(campaign.policy, capacity=16)
        started = time.perf_counter()
        results = loader.validate_batch(blobs, processes=2, timeout=0.5,
                                        retries=1, retry_backoff=0.01)
        wall = time.perf_counter() - started
    finally:
        loader_module._pool_validate = original

    checks.add("validate_batch returned (no hang)", wall < 30.0,
               f"wall={wall:.2f}s")
    checks.add("every item validated despite the pool",
               all(item.report is not None for item in results))
    checks.equal("verdict count matches the healthy run",
                 len(results), len(expected))
    stats = loader.stats()
    checks.add("degradation was counted, not silent",
               stats.pool_fallbacks == len(blobs)
               and stats.pool_retries >= 1,
               f"timeouts={stats.pool_timeouts} retries={stats.pool_retries} "
               f"fallbacks={stats.pool_fallbacks}")
    return {"wall_seconds": wall, "pool_timeouts": stats.pool_timeouts,
            "pool_retries": stats.pool_retries,
            "pool_fallbacks": stats.pool_fallbacks,
            "mttr_seconds": [wall]}


def _scenario_pool_wedge(campaign: _Campaign, checks: _Checks) -> dict:
    def wedged(job):   # never returns within any per-item timeout
        time.sleep(3600)

    return _pool_scenario(campaign, checks, wedged)


def _scenario_pool_kill(campaign: _Campaign, checks: _Checks) -> dict:
    def killed(job):   # the worker process dies mid-job
        os._exit(1)

    return _pool_scenario(campaign, checks, killed)


def _scenario_writer_fault(campaign: _Campaign, checks: _Checks) -> dict:
    """A write-capable extension is cut off mid-loop, repeatedly.

    The victim is ``kv-insert`` from the store-bearing family — unlike
    the read-only filters, a faulted invocation here could in principle
    leave a half-written table.  It must not: the budget check fires
    *before* a block executes, so an aborted invocation performs either
    all of its stores or none, and the persistent state must equal the
    pure-Python oracle run over only the frames that completed.
    """
    from repro.filters.kv import (
        KV_INSERT,
        kv_packet_policy,
        kv_registers,
        oracle_run,
        reusable_kv_memory,
    )
    from repro.filters.trace import KvTraceConfig, generate_kv_trace

    config = campaign.config
    policy = kv_packet_policy()
    blob = certify(KV_INSERT.source, policy,
                   invariants=KV_INSERT.invariants()).binary.to_bytes()
    trace = generate_kv_trace(KvTraceConfig(packets=config.packets,
                                            seed=config.seed & 0xFFFF))
    third = len(trace) // 3

    def state_bytes(words: list[int]) -> bytes:
        return b"".join(word.to_bytes(8, "little") for word in words)

    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=1, cycle_budget="auto", fault_threshold=3,
        memory_factory=reusable_kv_memory, registers_fn=kv_registers))
    writer = runtime.attach(KV_INSERT.name, blob)
    sane_budget = writer.cycle_budget

    writer.cycle_budget = 40   # fires inside the table-scan loop
    records = _verdict_stream(runtime.dispatch(trace[:third],
                                               collect=True))
    checks.equal("mid-loop aborts quarantine the writer",
                 writer.state, ExtensionState.QUARANTINED)
    quarantined_at = time.perf_counter()
    overruns = writer.snapshot().faults
    checks.add("aborts were counted", overruns >= 3,
               f"faults={overruns}")
    checks.add("the fault ledger names the budget",
               writer.last_fault and "budget" in writer.last_fault,
               repr(writer.last_fault))
    aborted = [index for index, record in enumerate(records)
               if record.get(KV_INSERT.name, "gone") is None]
    checks.add("aborted invocations are visible in the records",
               len(aborted) >= 3, f"aborted={len(aborted)}")

    completed = [trace[index] for index, record in enumerate(records)
                 if record.get(KV_INSERT.name) is not None]
    __, __, oracle_state = oracle_run(KV_INSERT.name, completed)
    checks.equal("no half-written slots: state is the completed-frames "
                 "oracle's", bytes(runtime.shards[0].memory.region("state")),
                 state_bytes(oracle_state))

    restored = runtime.reinstate(KV_INSERT.name)
    mttr = time.perf_counter() - quarantined_at
    checks.equal("revalidated and reinstated",
                 restored.state, ExtensionState.REINSTATED)
    checks.equal("reinstatement re-derived the WCET budget",
                 restored.cycle_budget, sane_budget)

    after = _verdict_stream(runtime.dispatch(trace[third:], collect=True))
    verdicts, __, oracle_state = oracle_run(KV_INSERT.name,
                                            completed + trace[third:])
    checks.equal("post-recovery verdicts oracle-identical",
                 [record.get(KV_INSERT.name) for record in after],
                 verdicts[len(completed):])
    checks.equal("post-recovery state bit-identical to the oracle",
                 bytes(runtime.shards[0].memory.region("state")),
                 state_bytes(oracle_state))
    checks.equal("no further faults after recovery",
                 runtime.snapshot().faults - overruns, 0)
    return {"mttr_seconds": [mttr], "overruns": overruns,
            "aborted": len(aborted), "completed": len(completed)}


def _scenario_upgrade_rollback(campaign: _Campaign,
                               checks: _Checks) -> dict:
    runtime = campaign.runtime()
    campaign.attach_all(runtime)
    trace = campaign.trace
    half = len(trace) // 2
    baseline = campaign.runtime()
    campaign.attach_all(baseline)
    base_records = _verdict_stream(baseline.dispatch(trace, collect=True))

    live = runtime.extension("filter1")
    pre_digest, pre_version = live.digest, live.version
    shadow = runtime.upgrade(
        "filter1", campaign.divergent_upgrade,
        CanaryConfig(sample_fraction=1.0, promote_after=10 ** 6,
                     seed=campaign.config.seed))
    records_a = _verdict_stream(runtime.dispatch(trace[:half],
                                                 collect=True))
    record = shadow.record()
    checks.equal("divergence rolled the canary back",
                 record.state, "rolled-back")
    checks.add("rollback reason names the divergence",
               record.reason and "divergence" in record.reason,
               repr(record.reason))
    checks.equal("first divergence decided it (no lingering shadow)",
                 record.divergences, 1)
    checks.equal("live identity untouched",
                 (live.digest, live.version), (pre_digest, pre_version))
    checks.equal("canary slot cleared", live.canary, None)
    checks.equal("verdicts during the canary bit-identical to baseline",
                 records_a, base_records[:half])
    records_b = _verdict_stream(runtime.dispatch(trace[half:],
                                                 collect=True))
    checks.equal("post-rollback verdicts bit-identical to baseline",
                 records_b, base_records[half:])
    checks.equal("upgrade recorded in the audit log",
                 [entry.state for entry in runtime.upgrade_log],
                 ["rolled-back"])
    return {"rollback_reason": record.reason,
            "decision_seconds": record.decision_seconds,
            "mttr_seconds": [record.decision_seconds]}


def _scenario_upgrade_promotion(campaign: _Campaign,
                                checks: _Checks) -> dict:
    runtime = campaign.runtime()
    campaign.attach_all(runtime)
    trace = campaign.trace
    baseline = campaign.runtime()
    campaign.attach_all(baseline)
    base_records = _verdict_stream(baseline.dispatch(trace, collect=True))

    live = runtime.extension("filter1")
    old_budget = live.cycle_budget
    promote_after = min(64, len(trace) // 4)
    runtime.upgrade("filter1", campaign.benign_upgrade,
                    CanaryConfig(sample_fraction=1.0,
                                 promote_after=promote_after,
                                 seed=campaign.config.seed))
    records = _verdict_stream(runtime.dispatch(trace, collect=True))
    checks.equal("canary promoted", live.version, 2)
    checks.equal("audit log shows the promotion",
                 [entry.state for entry in runtime.upgrade_log],
                 ["promoted"])
    record = runtime.upgrade_log[0]
    checks.equal("promotion took exactly promote_after clean packets",
                 record.clean, promote_after)
    checks.equal("verdicts bit-identical across the swap",
                 records, base_records)
    checks.add("budget re-resolved for the new program",
               live.cycle_budget is not None
               and old_budget is not None
               and live.cycle_budget > old_budget,
               f"{old_budget} -> {live.cycle_budget}")
    checks.equal("canary slot cleared", live.canary, None)
    return {"promote_after": promote_after,
            "decision_seconds": record.decision_seconds,
            "budget": {"old": old_budget, "new": live.cycle_budget}}


def _scenario_upgrade_patch_corruption(campaign: _Campaign,
                                       checks: _Checks) -> dict:
    """A corrupted proof patch arrives mid-upgrade.

    Three invariants: a corrupted patch with no fallback is rejected
    outright and leaves the live version untouched; a corrupted patch
    *with* full container bytes falls back to full certification and the
    upgrade still lands with bit-identical verdicts; and a clean patch
    admits through the cheap path (so the fallback is not the only path
    that ever works).
    """
    from repro.errors import PatchError
    from repro.pcc.incremental import certify_incremental

    runtime = campaign.runtime()
    campaign.attach_all(runtime)
    trace = campaign.trace
    baseline = campaign.runtime()
    campaign.attach_all(baseline)
    base_records = _verdict_stream(baseline.dispatch(trace, collect=True))

    spec = FILTERS[0]
    benign_source = (spec.source.rstrip().rsplit("RET", 1)[0]
                     + _BENIGN_SUFFIX)
    base_blob = campaign.certified[spec.name]
    result = certify_incremental(base_blob, benign_source, campaign.policy,
                                 store=runtime.loader.proof_store)
    wire = result.patch.to_bytes()
    # Flip a byte inside the 32-byte base-digest field (offset 5..36):
    # the patch no longer matches the serving container.
    wrong_base = wire[:10] + bytes([wire[10] ^ 0x5A]) + wire[11:]
    truncated = wire[:-1]

    live = runtime.extension(spec.name)
    promote_after = min(64, len(trace) // 4)
    canary = CanaryConfig(sample_fraction=1.0, promote_after=promote_after,
                          seed=campaign.config.seed)

    try:
        runtime.upgrade(spec.name, canary=canary, patch=wrong_base)
        checks.add("patch-only corrupted upgrade rejected", False,
                   "a tampered patch was admitted")
    except (PatchError, ValidationError):
        checks.add("patch-only corrupted upgrade rejected", True)
    checks.equal("live version untouched by the rejected patch",
                 live.version, 1)
    checks.equal("no canary left in flight", live.canary, None)

    # Corrupted patch + full container: the fallback path carries it.
    runtime.upgrade(spec.name, campaign.benign_upgrade, canary,
                    patch=truncated)
    records = _verdict_stream(runtime.dispatch(trace, collect=True))
    checks.equal("fallback upgrade promoted", live.version, 2)
    checks.equal("verdicts bit-identical across the fallback swap",
                 records, base_records)
    stats = runtime.loader.stats()
    checks.equal("both corrupted patches counted as rejects",
                 stats.patch_rejects, 2)

    # A clean patch admits through the cheap path on a fresh runtime.
    fresh = campaign.runtime()
    campaign.attach_all(fresh)
    fresh.upgrade(spec.name, canary=canary, patch=wire)
    fresh_records = _verdict_stream(fresh.dispatch(trace, collect=True))
    checks.equal("clean patch promoted",
                 fresh.extension(spec.name).version, 2)
    checks.equal("clean-patch verdicts bit-identical", fresh_records,
                 records)
    fresh_stats = fresh.loader.stats()
    checks.equal("clean patch counted as a patch hit",
                 fresh_stats.patch_hits, 1)
    return {"patch_bytes": len(wire),
            "full_bytes": len(campaign.benign_upgrade),
            "reused_parts": result.reused_parts,
            "proved_parts": result.proved_parts,
            "patch_rejects": stats.patch_rejects}


#: Scenario registry, in execution order.
SCENARIOS = {
    "admission-mutants": _scenario_admission_mutants,
    "adversarial-packets": _scenario_adversarial_packets,
    "budget-overrun": _scenario_budget_overrun,
    "shard-crash": _scenario_shard_crash,
    "shard-failure": _scenario_shard_failure,
    "pool-wedge": _scenario_pool_wedge,
    "pool-kill": _scenario_pool_kill,
    "writer-fault": _scenario_writer_fault,
    "upgrade-rollback": _scenario_upgrade_rollback,
    "upgrade-promotion": _scenario_upgrade_promotion,
    "upgrade-patch-corruption": _scenario_upgrade_patch_corruption,
}


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run the chaos campaign and return the full report.

    Scenarios are independent (each builds its own runtimes) and run in
    registry order; a failing invariant marks its scenario failed but
    never aborts the campaign — the report shows every broken invariant
    at once.
    """
    config = config or ChaosConfig()
    campaign = _Campaign(config)
    names = config.scenarios or tuple(SCENARIOS)
    results = []
    started = time.perf_counter()
    for name in names:
        checks = _Checks()
        scenario_start = time.perf_counter()
        try:
            details = SCENARIOS[name](campaign, checks) or {}
        except Exception as error:   # an invariant crash is a failure
            checks.add("scenario completed", False,
                       f"{type(error).__name__}: {error}")
            details = {}
        results.append(ScenarioResult(
            name=name,
            passed=all(ok for __, ok, __unused in checks.rows),
            checks=tuple(checks.rows),
            wall_seconds=time.perf_counter() - scenario_start,
            details=details,
        ))
    return ChaosReport(
        seed=config.seed, packets=config.packets, shards=config.shards,
        scenarios=tuple(results),
        wall_seconds=time.perf_counter() - started,
    )
