"""High-level producer/consumer façade (paper Figure 1).

:class:`CodeProducer` is the application: it assembles and certifies
extensions against a published policy.  :class:`CodeConsumer` is the
kernel: it publishes the policy, validates received binaries once, and
afterwards invokes the native code directly — the whole point being that
the per-invocation path has **zero** safety checks.

A :class:`LoadedExtension` is the consumer-side handle: calling it runs the
native code on the concrete machine with the caller-supplied registers and
memory, exactly as the kernel would jump into mapped code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from repro.alpha.engine import ExecutionEngine

from repro.alpha.isa import Program
from repro.alpha.machine import Machine, MachineResult, Memory
from repro.errors import ValidationError
from repro.logic.formulas import Formula
from repro.pcc.certify import CertificationResult, certify
from repro.pcc.container import PccBinary
from repro.pcc.loader import ExtensionLoader, LoaderStats
from repro.pcc.validate import ValidationReport
from repro.vcgen.policy import SafetyPolicy


@dataclass
class CodeProducer:
    """An untrusted extension writer targeting a published policy."""

    policy: SafetyPolicy

    def build(self, source: str | Program,
              invariants: Mapping[int, Formula] | None = None) -> bytes:
        """Assemble + certify ``source``; returns the PCC binary bytes."""
        return self.certify(source, invariants).binary.to_bytes()

    def certify(self, source: str | Program,
                invariants: Mapping[int, Formula] | None = None,
                ) -> CertificationResult:
        """Like :meth:`build` but returns the full certification record."""
        return certify(source, self.policy, invariants)


@dataclass(frozen=True)
class LoadedExtension:
    """A validated extension, ready for unchecked native execution."""

    program: Program
    report: ValidationReport

    def run(self, memory: Memory,
            registers: Mapping[int, int] | None = None,
            cost_model=None) -> MachineResult:
        """Invoke the extension: full speed, no run-time checks."""
        machine = Machine(self.program, memory,
                          dict(registers or {}), cost_model)
        return machine.run()

    def engine(self, cost_model=None,
               max_steps: int = 1_000_000) -> "ExecutionEngine":
        """A reusable execution engine over the validated program.

        Block compilation is paid once (and shared through the engine's
        code cache), after which every invocation runs the compiled
        blocks through the engine's one block loop with zero checks.
        The dispatch runtime (:mod:`repro.runtime`) builds its own
        engine the same way when it admits an extension.
        """
        from repro.alpha.engine import ExecutionEngine

        return ExecutionEngine(self.program, cost_model, max_steps)

    def analyze(self, context=None, cost_model=None):
        """The full static-analysis report for this extension (CFG,
        intervals, WCET, lint) — advisory only; admission already
        happened through validation.  ``context`` is an
        :class:`~repro.analysis.intervals.AnalysisContext`; the default
        assumes the machine's zeroed entry registers and classifies no
        memory regions.
        """
        from repro.analysis.prescreen import analyze_program

        return analyze_program(self.program, context, cost_model)


@dataclass
class CodeConsumer:
    """A kernel/service that accepts PCC binaries under its policy.

    Validation goes through an :class:`ExtensionLoader`, so resubmitting
    byte-identical binaries is O(hash) — the content-addressed cache
    replays the stored verdict (see :mod:`repro.pcc.loader` for why that
    cannot weaken safety).
    """

    policy: SafetyPolicy
    loaded: list[LoadedExtension] = field(default_factory=list)
    cache_capacity: int = 64
    #: Opt-in static-analysis fast-reject before full validation (never
    #: admits anything; see :mod:`repro.analysis.prescreen`).
    prescreen: bool = False
    loader: ExtensionLoader = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.loader = ExtensionLoader(self.policy, self.cache_capacity,
                                      prescreen=self.prescreen)

    def install(self, data: bytes | PccBinary,
                measure_memory: bool = False) -> LoadedExtension:
        """Validate and load an untrusted binary.

        Raises :class:`ValidationError` if the binary does not carry a
        valid proof for this consumer's policy.
        """
        report = self.loader.load(data, measure_memory)
        extension = LoadedExtension(report.program, report)
        self.loaded.append(extension)
        return extension

    def try_install(self, data: bytes | PccBinary
                    ) -> LoadedExtension | None:
        """Like :meth:`install` but returns None instead of raising."""
        try:
            return self.install(data)
        except ValidationError:
            return None

    def install_batch(self, items, processes: int | None = None
                      ) -> list[LoadedExtension | None]:
        """Validate many independent submissions (cache + process pool)
        and load the valid ones; invalid items come back as None without
        disturbing their neighbours."""
        extensions: list[LoadedExtension | None] = []
        for item in self.loader.validate_batch(items, processes):
            if item.ok:
                extension = LoadedExtension(item.report.program,
                                            item.report)
                self.loaded.append(extension)
                extensions.append(extension)
            else:
                extensions.append(None)
        return extensions

    def loader_stats(self) -> LoaderStats:
        """The loader's hit/miss/eviction counters."""
        return self.loader.stats()
