"""Control plane: recovery latency and steady-state cost.

The robustness machinery (process-backend re-execution, shadow canaries,
quarantine) only earns its keep if it is effectively free when nothing
is wrong and fast when something is.  This benchmark measures both
sides:

* **steady-state overhead** — the same trace through the same filters,
  serial ``dispatch()`` versus the process backend's ``serve()`` with no
  faults.  The forked workers and their per-round state exchange are
  host-side machinery: they must cost **zero modeled cycles** — the
  acceptance bar is <2% modeled-cycle overhead, and the expected value
  is exactly 0.  Wall time is reported as the usual informational
  column (modeled cycles are the figure of merit);
* **verdict stability** — accept counts on the process backend must be
  bit-identical to serial dispatch (the vehicle may never change
  semantics);
* **crash recovery** — the same trace on the process backend with every
  worker SIGKILLed at a seeded round: the caller re-executes each dead
  worker's remaining rounds, every packet is still dispatched, the
  snapshot equals serial dispatch's, and the MTTR (death detected ->
  end of the re-executed round) is reported per death;
* **control-plane decision latency** — how long a shadow canary takes
  to roll back a divergent candidate and to promote a clean one (wall
  time from upgrade to decision, driven by sampled packets).

Scale comes from the shared ``--packets`` / ``PCC_BENCH_PACKETS`` quick
mode.  Results land in ``results/chaos_recovery.txt`` and
``results/BENCH_chaos.json``.
"""

import random

from repro.pcc import certify
from repro.runtime import CanaryConfig, PacketRuntime, RuntimeConfig
from repro.runtime.chaos import sigkill_workers

SHARDS = 4
#: Rounds per serve: the round length is sized from the trace, so a
#: quick run has as many rounds for a worker to die in as a full one.
ROUNDS = 8
#: Modeled-cycle overhead bar for the process backend (expected:
#: exactly 0).
OVERHEAD_BAR = 0.02


def _runtime(filter_policy, certified_filters, **overrides) -> PacketRuntime:
    defaults = dict(shards=SHARDS, cycle_budget="auto", fault_threshold=3)
    defaults.update(overrides)
    runtime = PacketRuntime(filter_policy, RuntimeConfig(**defaults))
    for name, certified in certified_filters.items():
        runtime.attach(name, certified.binary.to_bytes())
    return runtime


def test_chaos_recovery(benchmark, filter_policy, certified_filters,
                        trace, record, record_json):
    results = {}
    batch_size = -(-len(trace) // (SHARDS * ROUNDS))

    def runtime(**overrides):
        return _runtime(filter_policy, certified_filters,
                        batch_size=batch_size, **overrides)

    def campaign():
        # -- steady state: serial vs process, no faults ------------------
        serial = runtime()
        serial_report = serial.dispatch(trace)
        serial_cycles = max(serial_report.shard_cycles)

        forked = runtime(backend="process")
        process_report = forked.serve(trace)
        process_cycles = max(process_report.shard_cycles)

        assert not process_report.reexecuted, "a healthy worker died"
        overhead = (process_cycles - serial_cycles) / serial_cycles
        serial_accepts = {ext.name: ext.accepted
                          for ext in serial.snapshot().extensions}
        process_accepts = {ext.name: ext.accepted
                           for ext in forked.snapshot().extensions}
        assert process_accepts == serial_accepts, \
            "the process backend changed verdicts"

        # -- crash recovery ---------------------------------------------
        rng = random.Random(0xC4A54)
        deaths = {index: rng.randrange(ROUNDS)
                  for index in range(1, SHARDS)}
        crashed = runtime(backend="process")
        with sigkill_workers(deaths):
            crash_report = crashed.serve(trace)
        assert crashed.snapshot().packets_in == len(trace), \
            "a death lost packets"
        assert crashed.snapshot() == serial.snapshot(), \
            "re-execution changed the outcome"
        assert sorted(crash_report.reexecuted) == sorted(deaths), \
            "not one MTTR sample per death"

        # -- control-plane decision latency ------------------------------
        from repro.filters.programs import FILTER1
        base = FILTER1.source.rstrip().rsplit("RET", 1)[0]
        benign = certify(base + "        ADDQ   r3, 0, r3\n        RET\n",
                         filter_policy).binary.to_bytes()
        divergent = certify(
            base + "        CMPEQ  r0, 0, r0\n        RET\n",
            filter_policy).binary.to_bytes()

        canary_host = runtime()
        shadow = canary_host.upgrade(
            "filter1", divergent,
            CanaryConfig(sample_fraction=1.0, promote_after=10 ** 9))
        canary_host.dispatch(trace[:64])
        rollback = shadow.record()
        assert rollback.state == "rolled-back"

        shadow = canary_host.upgrade(
            "filter1", benign,
            CanaryConfig(sample_fraction=1.0, promote_after=128))
        canary_host.dispatch(trace)
        promotion = shadow.record()
        assert promotion.state == "promoted"

        mttr = [crash_report.reexecuted[index] for index in sorted(deaths)]
        results.update({
            "packets": serial_report.packets,
            "shards": SHARDS,
            "batch_size": batch_size,
            "serial_cycles": serial_cycles,
            "process_cycles": process_cycles,
            "overhead": overhead,
            "serial_wall_seconds": serial_report.wall_seconds,
            "process_wall_seconds": process_report.wall_seconds,
            "accepts": serial_accepts,
            "deaths": {str(index): round_ for index, round_
                       in sorted(deaths.items())},
            "mttr_seconds": mttr,
            "mean_mttr_seconds": sum(mttr) / len(mttr),
            "rollback_decision_seconds": rollback.decision_seconds,
            "promotion_decision_seconds": promotion.decision_seconds,
            "promotion_clean_packets": promotion.clean,
        })

    benchmark.pedantic(campaign, rounds=1, iterations=1)

    mttr = results["mttr_seconds"]
    lines = [
        f"{len(certified_filters)} extensions, {results['packets']} "
        f"packets, {SHARDS} shards, {ROUNDS} rounds of "
        f"{results['batch_size']} frames per shard, auto budgets, "
        f"fault threshold 3",
        "",
        "steady state (no faults):",
        f"  modeled cycles  serial {results['serial_cycles']:>12,}   "
        f"process {results['process_cycles']:>12,}   "
        f"overhead {results['overhead']:+.3%} "
        f"(bar: <{OVERHEAD_BAR:.0%})",
        f"  python wall     serial "
        f"{results['serial_wall_seconds'] * 1e3:>10.1f} ms  "
        f"process {results['process_wall_seconds'] * 1e3:>10.1f} ms "
        f"(informational; the workers are host-side)",
        "  verdicts bit-identical on the process backend",
        "",
        f"crash recovery ({len(mttr)} workers SIGKILLed at seeded rounds "
        f"{results['deaths']}, re-executed by the caller, 0 packets "
        f"lost, snapshot equal to serial dispatch):",
        f"  MTTR mean {results['mean_mttr_seconds'] * 1e3:.1f} ms, "
        f"min {min(mttr) * 1e3:.1f} ms, max {max(mttr) * 1e3:.1f} ms",
        "",
        "control-plane decisions (sample 100%):",
        f"  divergent candidate rolled back in "
        f"{results['rollback_decision_seconds'] * 1e3:.1f} ms "
        f"(first divergent packet)",
        f"  clean candidate promoted in "
        f"{results['promotion_decision_seconds'] * 1e3:.1f} ms "
        f"({results['promotion_clean_packets']} clean packets)",
    ]
    record("chaos_recovery", lines)
    record_json("chaos", results)

    assert results["overhead"] < OVERHEAD_BAR, \
        f"the process backend cost {results['overhead']:.3%} modeled cycles"
