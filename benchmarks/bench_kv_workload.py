"""The write-capable extension family end to end: certification cost,
WCET-derived budgets, dispatch throughput, and the oracle differential.

The paper's Figure 8 measures read-only filters; this benchmark is the
same story for the store-bearing KV/NAT/LB family — certification is a
one-time cost (proof sizes and times per program), validation admits
each program onto the unbudgeted fast tier with an ``auto`` WCET
budget and a compiled batch runner, and dispatch then runs with *zero*
run-time safety checks despite every program writing packet and
persistent-state memory on the hot path.

Two traces drive it: the Zipf key-popularity steady-state workload
(throughput rows) and the adversarial mix (a correctness gate — the
runtime's verdicts, rewrites, and final per-shard state must be
bit-identical to the pure-Python oracles, on the per-frame loop that
``dispatch(collect=True)`` runs and on the compiled batch path that
plain ``dispatch()`` runs; out-of-contract frames must be shed at the
boundary, never reach a certified program).

A wall rate or a certification time from one run is one draw from a
wide spread, so each program is certified ``RUNS`` times and serves the
Zipf trace ``RUNS`` times, each on a fresh runtime; the rows record the
median and the ``[min, max]`` range.  Scale comes from the shared
``--packets`` / ``PCC_BENCH_PACKETS`` quick mode.  Results land in ``results/kv_workload.txt`` and
``results/BENCH_kv.json``.
"""

import time
from statistics import median

from repro.analysis import context_for_policy, estimate_wcet
from repro.filters.kv import (
    KV_PROGRAMS,
    kv_registers,
    oracle_run,
    reusable_kv_memory,
)
from repro.pcc import certify
from repro.runtime import PacketRuntime, RuntimeConfig


#: Certifications and serves of the Zipf trace per program.
RUNS = 3


def _kv_runtime(kv_policy):
    return PacketRuntime(kv_policy, RuntimeConfig(
        shards=1, cycle_budget="auto",
        memory_factory=reusable_kv_memory, registers_fn=kv_registers))


def _contract_frames(trace):
    config = RuntimeConfig()
    return [frame for frame in trace
            if config.min_frame_bytes <= len(frame)
            <= config.max_frame_bytes]


def test_kv_workload(benchmark, kv_policy, kv_trace, adversarial_trace,
                     record, record_json):
    rows = []
    context = context_for_policy(kv_policy)

    def workload():
        rows.clear()
        for spec in KV_PROGRAMS:
            certify_runs = []
            for __ in range(RUNS):
                started = time.perf_counter()
                certified = certify(spec.source, kv_policy,
                                    invariants=spec.invariants())
                certify_runs.append(time.perf_counter() - started)
            blob = certified.binary.to_bytes()

            # Steady state: the Zipf trace through a fresh one-shard
            # runtime per serve.
            wall_runs = []
            for __ in range(RUNS):
                runtime = _kv_runtime(kv_policy)
                extension = runtime.attach(spec.name, blob)
                assert extension.batch_runner is not None  # compiled path
                report = runtime.serve(kv_trace)
                wall_runs.append(report.wall_packets_per_second)
            snapshot = runtime.snapshot()
            ext = snapshot.extensions[0]

            # Correctness gate: the adversarial trace, against the
            # oracle, down to the final persistent-state bytes.
            hostile = _kv_runtime(kv_policy)
            hostile.attach(spec.name, blob)
            hostile_report = hostile.dispatch(adversarial_trace,
                                              collect=True)
            kept = _contract_frames(adversarial_trace)
            verdicts, __, state = oracle_run(spec.name, kept)
            got = [record_[spec.name] for record_ in
                   hostile_report.records]
            assert got == verdicts, spec.name
            want_state = b"".join(word.to_bytes(8, "little")
                                  for word in state)
            state_identical = bytes(
                hostile.shards[0].memory.region("state")) == want_state
            assert state_identical, spec.name
            assert hostile_report.contract_drops \
                == len(adversarial_trace) - len(kept)

            # The same gate on the compiled batch path: accept count
            # and final state bytes.
            batched = _kv_runtime(kv_policy)
            batched.attach(spec.name, blob)
            batched.dispatch(adversarial_trace)
            assert batched.snapshot().extensions[0].accepted \
                == sum(1 for verdict in verdicts if verdict), spec.name
            assert bytes(batched.shards[0].memory.region("state")) \
                == want_state, spec.name

            wcet = estimate_wcet(extension.program, context)
            rows.append({
                "name": spec.name,
                "description": spec.description,
                "instructions": len(extension.program),
                "invariants": len(spec.invariants()),
                "proof_bytes": len(certified.binary.proof),
                "certify_seconds": median(certify_runs),
                "certify_seconds_range": [min(certify_runs),
                                          max(certify_runs)],
                "wcet_cycles": wcet.bound,
                "cycle_budget": extension.cycle_budget,
                "packets": report.packets,
                "accepted": ext.accepted,
                "accept_rate": ext.accepted / report.packets,
                "mean_cycles": ext.cycles / report.packets,
                "p99_cycles": ext.p99_cycles,
                "modeled_pps": report.modeled_packets_per_second,
                "wall_pps": median(wall_runs),
                "wall_pps_range": [min(wall_runs), max(wall_runs)],
                "faults": snapshot.faults,
                "adversarial_packets": hostile_report.packets,
                "adversarial_drops": hostile_report.contract_drops,
                "state_identical": state_identical,
            })

    benchmark.pedantic(workload, rounds=1, iterations=1)

    assert len(rows) >= 4
    assert all(row["invariants"] >= 1 for row in rows)
    assert all(row["faults"] == 0 for row in rows)
    assert all(row["state_identical"] for row in rows)
    assert all(row["cycle_budget"] == row["wcet_cycles"] for row in rows)

    lines = [
        f"{len(rows)} store-bearing extensions, "
        f"{rows[0]['packets']} Zipf packets, "
        f"{rows[0]['adversarial_packets']} adversarial packets kept "
        f"({rows[0]['adversarial_drops']} shed by contract), "
        "1 shard, cycle budget auto (= WCET)",
        f"cert ms and wall pkts/s: median of {RUNS} runs; wall range: "
        f"min-max of the {RUNS}",
        "",
        f"{'program':>12} {'insns':>5} {'proof B':>8} {'cert ms':>8} "
        f"{'WCET cyc':>8} {'mean cyc':>9} {'p99 cyc':>8} "
        f"{'accept':>7} {'modeled pkts/s':>15} {'wall pkts/s':>12} "
        f"{'wall range':>17}",
    ]
    for row in rows:
        low, high = row["wall_pps_range"]
        lines.append(
            f"{row['name']:>12} {row['instructions']:>5} "
            f"{row['proof_bytes']:>8,} "
            f"{row['certify_seconds'] * 1e3:>8.1f} "
            f"{row['wcet_cycles']:>8} {row['mean_cycles']:>9.1f} "
            f"{row['p99_cycles']:>8} {row['accept_rate']:>6.1%} "
            f"{row['modeled_pps']:>15,.0f} {row['wall_pps']:>12,.0f} "
            f"{f'{low:,.0f}-{high:,.0f}':>17}")
    lines += [
        "",
        "all programs: >= 1 loop invariant, 0 faults, auto budget == "
        "WCET bound,",
        "adversarial post-state (packet rewrites + persistent table) "
        "bit-identical to the pure-Python oracle",
    ]
    record("kv_workload", lines)
    record_json("kv", {
        "programs": [row["name"] for row in rows],
        "zipf_packets": rows[0]["packets"],
        "adversarial_packets": rows[0]["adversarial_packets"],
        "adversarial_drops": rows[0]["adversarial_drops"],
        "rows": rows,
    })
