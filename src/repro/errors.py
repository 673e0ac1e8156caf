"""Exception hierarchy for the PCC toolchain.

Every layer of the system raises a subclass of :class:`PccError`, so callers
can catch one exception type at API boundaries while tests can assert on the
precise failure mode.  The distinction between producer-side errors
(:class:`CertificationError`) and consumer-side errors
(:class:`ValidationError`) matters: the consumer must *never* trust anything
produced by the other side, so validation failures carry enough context to be
logged but are deliberately not recoverable.
"""

from __future__ import annotations


class PccError(Exception):
    """Base class for all errors raised by this package."""


class AssemblyError(PccError):
    """The assembly source text is malformed or uses an unknown instruction."""


class EncodingError(PccError):
    """A binary instruction encoding or decoding failed."""


class MachineError(PccError):
    """The concrete machine hit an illegal state (bad pc, bad register)."""


class SafetyViolation(MachineError):
    """The abstract machine blocked: an rd()/wr() safety check failed.

    In the paper's semantics the abstract machine has no transition for this
    case; we surface it as an exception so tests can assert that uncertified
    code blocks and certified code never does.

    ``pc``, ``address`` and ``kind`` (``"rd"`` or ``"wr"``) identify the
    faulting access so that consumers — notably the dispatch runtime's
    quarantine log — can report *which* check failed and where.
    """

    def __init__(self, message: str, pc: int | None = None,
                 address: int | None = None,
                 kind: str | None = None) -> None:
        super().__init__(message)
        self.pc = pc
        self.address = address
        self.kind = kind


class BudgetExceeded(MachineError):
    """An invocation overran its per-packet cycle budget.

    Raised by :meth:`repro.alpha.engine.ExecutionEngine.run` and
    :meth:`~repro.alpha.engine.ExecutionEngine.run_batch` (and the
    compiled batch drivers) when a block-entry charge pushes the modeled
    cycle clock past the caller's budget.  This is a
    *liveness* policy, not a safety one: a PCC-certified program can
    never violate rd()/wr(), but nothing in the proof bounds how long it
    runs, so the dispatch runtime enforces budgets at retire time.
    """

    def __init__(self, message: str, budget: int | None = None,
                 cycles: int | None = None,
                 steps: int | None = None) -> None:
        super().__init__(message)
        self.budget = budget
        self.cycles = cycles
        self.steps = steps


class LogicError(PccError):
    """Ill-formed logical term or formula (wrong arity, unknown operator)."""


class VcGenError(PccError):
    """Verification-condition generation failed (e.g. a backward branch
    without a loop invariant, or a branch out of the code region)."""


class ProofError(PccError):
    """A proof object is ill-formed or does not prove its claimed formula."""


class LfError(PccError):
    """LF type checking failed: the proof term is not well typed."""


class ProverError(PccError):
    """The automatic prover could not certify a safety predicate.

    This is a *producer-side* failure: the program may still be safe, but
    the prover was not smart enough.  It never indicates unsafety by itself,
    though the message often points at the offending check.
    """


class CertificationError(PccError):
    """Producer-side pipeline failure while building a PCC binary."""


class ValidationError(PccError):
    """Consumer-side rejection of a PCC binary (tampering, bad proof,
    malformed container, or proof/predicate mismatch)."""


class PatchError(ValidationError):
    """Consumer-side rejection of an incremental proof patch (wrong base,
    stale policy fingerprint, unresolvable or corrupted subproof, or a
    malformed patch container).

    Subclasses :class:`ValidationError` because a patch failure is a
    validation failure — code paths that reject on ``ValidationError``
    reject bad patches with no changes — but the distinct type lets the
    upgrade plane fall back to full certification on *patch* problems
    specifically.
    """


class UnknownExtensionError(PccError, KeyError):
    """A control-plane call named an extension that is not attached.

    Subclasses :class:`KeyError` so callers that treated the runtime's
    extension table as a plain mapping keep working, but the message
    names the missing extension and lists what *is* attached — a bare
    ``KeyError('x')`` from a fleet control plane is useless at 3am.
    """

    def __init__(self, name: str, attached: list[str] | tuple[str, ...]
                 ) -> None:
        listing = ", ".join(sorted(attached)) if attached else "none"
        super().__init__(f"no extension named {name!r} is attached "
                         f"(attached: {listing})")
        self.name = name
        self.attached = tuple(sorted(attached))

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its single arg; restore the message.
        return self.args[0]


class BpfError(PccError):
    """Base class for BPF baseline errors."""


class BpfVerifyError(BpfError):
    """The BPF static verifier rejected a filter program."""


class BpfRuntimeError(BpfError):
    """The BPF interpreter terminated a filter for an out-of-range access."""


class SfiError(PccError):
    """The SFI rewriter could not sandbox an instruction sequence."""


class M3Error(PccError):
    """Safe-language (Modula-3 subset) front end or compiler error."""


class M3RuntimeError(M3Error):
    """A run-time bounds check failed in compiled safe-language code."""
