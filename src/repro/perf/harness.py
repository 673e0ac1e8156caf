"""Measurement pipelines for the paper's evaluation (Figure 8, Table 1).

Each *approach* turns a filter into something executable and then filters
the whole trace, counting cost-model cycles and wall time:

==========  ===============================================================
pcc         the validated native program on the concrete machine
            (zero run-time checks — this is the whole point)
sfi         the same program after SFI rewriting (sandboxing instructions)
m3          the safe-language filter compiled byte-at-a-time with checks
m3-view     the safe-language filter compiled with VIEW word access
bpf         the BPF program under the checked interpreter
bpf-jit     the BPF program compiled to (certifiable) native code — the
            "replace the interpreter with a compiler" variant of §3.1
==========  ===============================================================

Every approach's verdict is cross-checked against the Python oracle for
every packet, so a benchmark run is also a correctness run; a mismatch
raises immediately rather than producing a pretty but wrong table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.alpha.engine import ExecutionEngine
from repro.baselines.bpf.interp import BpfInterpreter
from repro.baselines.bpf.programs import BPF_FILTERS
from repro.baselines.bpf.verify import verify_bpf
from repro.baselines.m3.compile import compile_plain, compile_view
from repro.baselines.m3.programs import M3_FILTERS, M3_VIEW_FILTERS
from repro.baselines.sfi.policy import reusable_sfi_memory, sfi_registers
from repro.baselines.sfi.rewrite import sfi_rewrite
from repro.errors import PccError
from repro.filters.oracle import ORACLES
from repro.filters.policy import filter_registers, reusable_packet_memory
from repro.filters.programs import FILTERS, FilterSpec
from repro.perf.cost import ALPHA_175, AlphaCostModel

APPROACHES = ("bpf", "bpf-jit", "m3", "m3-view", "sfi", "pcc")


@dataclass(frozen=True)
class ApproachResult:
    """Per-(filter, approach) measurements over one trace."""

    filter_name: str
    approach: str
    packets: int
    accepted: int
    cycles: int
    instructions: int
    wall_seconds: float

    @property
    def cycles_per_packet(self) -> float:
        return self.cycles / self.packets

    def us_per_packet(self, model: AlphaCostModel = ALPHA_175) -> float:
        """Modeled microseconds per packet at the Alpha's clock."""
        return model.microseconds(self.cycles) / self.packets

    @property
    def python_us_per_packet(self) -> float:
        return self.wall_seconds * 1e6 / self.packets


@dataclass(frozen=True)
class FilterBenchmark:
    """All approaches for one filter."""

    filter_name: str
    results: dict[str, ApproachResult]


def _run_alpha(spec: FilterSpec, program, trace, memory_factory,
               registers_fn, model: AlphaCostModel) -> ApproachResult:
    """Run one native program over the trace on the execution engine.

    The program is compiled once (the engine's code cache makes repeat
    benchmarks free) and one kernel-side memory is reused across frames:
    the per-packet work is rebinding the packet region, resetting the
    registers, and the engine's block loop.
    """
    oracle = ORACLES[spec.name]
    engine = ExecutionEngine(program, cost_model=model)
    memory, rebind = memory_factory()
    run = engine.run
    cycles = 0
    instructions = 0
    accepted = 0
    started = time.perf_counter()
    for frame in trace:
        rebind(frame)
        result = run(memory, registers_fn(len(frame)))
        verdict = bool(result.value)
        cycles += result.cycles
        instructions += result.instructions
        accepted += verdict
        if verdict != oracle(frame):
            raise PccError(
                f"{spec.name}: verdict mismatch against the oracle")
    wall = time.perf_counter() - started
    return ApproachResult(spec.name, "?", len(trace), accepted, cycles,
                          instructions, wall)


def run_approach(spec: FilterSpec, approach: str, trace: list[bytes],
                 model: AlphaCostModel = ALPHA_175) -> ApproachResult:
    """Filter ``trace`` with one approach; oracle-checked throughout."""
    if approach == "pcc":
        result = _run_alpha(spec, spec.program, trace,
                            reusable_packet_memory, filter_registers, model)
    elif approach == "sfi":
        rewritten = sfi_rewrite(spec.program)
        result = _run_alpha(spec, rewritten, trace, reusable_sfi_memory,
                            sfi_registers, model)
    elif approach == "bpf-jit":
        from repro.baselines.bpf.compile import compile_bpf
        program = compile_bpf(BPF_FILTERS[spec.name])
        result = _run_alpha(spec, program, trace, reusable_packet_memory,
                            filter_registers, model)
    elif approach == "m3":
        program = compile_plain(M3_FILTERS[spec.name])
        result = _run_alpha(spec, program, trace, reusable_packet_memory,
                            filter_registers, model)
    elif approach == "m3-view":
        program = compile_view(M3_VIEW_FILTERS[spec.name])
        result = _run_alpha(spec, program, trace, reusable_packet_memory,
                            filter_registers, model)
    elif approach == "bpf":
        program = BPF_FILTERS[spec.name]
        verify_bpf(program)
        interpreter = BpfInterpreter(program)
        oracle = ORACLES[spec.name]
        cycles = 0
        instructions = 0
        accepted = 0
        started = time.perf_counter()
        for frame in trace:
            stats = interpreter.run(frame)
            verdict = bool(stats.verdict)
            cycles += stats.cycles
            instructions += stats.instructions
            accepted += verdict
            if verdict != oracle(frame):
                raise PccError(
                    f"{spec.name}: BPF verdict mismatch against the oracle")
        wall = time.perf_counter() - started
        result = ApproachResult(spec.name, approach, len(trace), accepted,
                                cycles, instructions, wall)
    else:
        raise ValueError(f"unknown approach {approach!r}")
    return ApproachResult(spec.name, approach, result.packets,
                          result.accepted, result.cycles,
                          result.instructions, result.wall_seconds)


def run_figure8(trace: list[bytes],
                filters: tuple[FilterSpec, ...] = FILTERS,
                approaches: tuple[str, ...] = APPROACHES,
                model: AlphaCostModel = ALPHA_175,
                ) -> list[FilterBenchmark]:
    """Average per-packet run time, every filter x every approach."""
    benchmarks = []
    for spec in filters:
        results = {approach: run_approach(spec, approach, trace, model)
                   for approach in approaches}
        benchmarks.append(FilterBenchmark(spec.name, results))
    return benchmarks


def run_table1(filters: tuple[FilterSpec, ...] = FILTERS,
               repeats: int = 3) -> list[dict]:
    """Instruction counts, PCC binary sizes, validation times and peak
    validation memory — the rows of Table 1.

    The container blob is parsed once and reused, and the memory
    measurement rides the first of the ``repeats`` timed validations
    instead of a fourth full run (tracemalloc slows that run down, so
    ``min`` over the remaining repeats still reports an unperturbed
    time; with ``repeats=1`` the measured run is all there is).
    """
    from repro.filters.policy import packet_filter_policy
    from repro.pcc import certify, validate
    from repro.pcc.container import PccBinary

    policy = packet_filter_policy()
    rows = []
    for spec in filters:
        certified = certify(spec.source, policy)
        blob = certified.binary.to_bytes()
        binary = PccBinary.from_bytes(blob)
        reports = [validate(binary, policy, measure_memory=(index == 0))
                   for index in range(max(repeats, 1))]
        timed = reports[1:] if len(reports) > 1 else reports
        rows.append({
            "filter": spec.name,
            "instructions": len(certified.program),
            "binary_bytes": certified.binary.size,
            "code_bytes": len(certified.binary.code),
            "relocation_bytes": len(certified.binary.relocation),
            "proof_bytes": len(certified.binary.proof),
            "validation_seconds": min(report.validation_seconds
                                      for report in timed),
            "peak_memory_kb": reports[0].peak_memory_bytes / 1024,
        })
    return rows
