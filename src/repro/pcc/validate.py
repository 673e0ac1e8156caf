"""The code consumer: proof validation (paper §2.3).

:func:`validate` receives untrusted bytes and either returns a program that
is *guaranteed* safe to execute under the policy, or raises
:class:`repro.errors.ValidationError`.  The steps mirror the paper exactly:

1. parse the container and decode the native code — the consumer works
   from the code it actually received, so modifying the code changes the
   safety predicate and orphans the proof;
2. decode the loop-invariant table (untrusted data: it only ever makes the
   proof *obligation* different, never weaker than the policy);
3. recompute the safety predicate with the trusted VC generator;
4. decode the proof and LF-type-check it against ``pf(SP)``.

Nothing in this path executes, interprets, or edits the received code, and
no cryptography is involved.  The report records the measurements Table 1
tracks (validation time, proof sizes, peak checker memory).
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

from repro.alpha.encoding import decode_program
from repro.alpha.isa import Program
from repro.errors import PccError, ValidationError
from repro.lf.encode import decode_logic_formula, encode_formula
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.lf.typecheck import check_proof_term
from repro.logic.formulas import Formula
from repro.pcc.container import PccBinary, unpack_invariants, unpack_proof
from repro.vcgen.policy import SafetyPolicy
from repro.vcgen.vcgen import safety_predicate

#: ``validation_seconds`` must come from a monotonic clock: the loader's
#: cached-vs-cold comparisons and the Figure 9 startup column subtract
#: timestamps, and a wall clock (``time.time``) stepping backwards under
#: NTP adjustment would make those deltas negative.
_CLOCK = time.perf_counter


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a successful validation, with Table 1's measurements."""

    program: Program
    predicate: Formula
    validation_seconds: float
    peak_memory_bytes: int
    code_bytes: int
    relocation_bytes: int
    proof_bytes: int
    binary_bytes: int

    @property
    def instructions(self) -> int:
        return len(self.program)


def validate(data: bytes | PccBinary, policy: SafetyPolicy,
             measure_memory: bool = False) -> ValidationReport:
    """Validate an untrusted PCC binary against ``policy``.

    Returns a :class:`ValidationReport` whose ``program`` is safe to run;
    raises :class:`ValidationError` otherwise.  ``measure_memory`` turns on
    tracemalloc around the check (costs time; used by the Table 1 bench).
    """
    started = _CLOCK()
    if measure_memory:
        tracemalloc.start()
    try:
        if isinstance(data, PccBinary):
            binary = data
        else:
            binary = PccBinary.from_bytes(data)

        try:
            program = decode_program(binary.code)
        except PccError as error:
            raise ValidationError(
                f"native code section rejected: {error}") from error

        invariant_terms = unpack_invariants(binary.invariants)
        try:
            invariants = {pc: decode_logic_formula(term)
                          for pc, term in invariant_terms.items()}
        except PccError as error:
            raise ValidationError(
                f"invariant section rejected: {error}") from error

        try:
            predicate = safety_predicate(program, policy.precondition,
                                         policy.postcondition, invariants)
        except PccError as error:
            raise ValidationError(
                f"cannot compute safety predicate: {error}") from error

        proof_term = unpack_proof(binary.relocation, binary.proof)
        try:
            # A hostile invariant can leave variables with no LF binding.
            expected = LfApp(LfConst("pf"), encode_formula(predicate, {}, 0))
        except PccError as error:
            raise ValidationError(
                f"cannot encode safety predicate: {error}") from error

        try:
            check_proof_term(proof_term, expected, SIGNATURE)
        except PccError as error:
            raise ValidationError(
                f"proof does not validate: {error}") from error
    finally:
        if measure_memory:
            __, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        else:
            peak = 0
    elapsed = _CLOCK() - started
    return ValidationReport(
        program=program,
        predicate=predicate,
        validation_seconds=elapsed,
        peak_memory_bytes=peak,
        code_bytes=len(binary.code),
        relocation_bytes=len(binary.relocation),
        proof_bytes=len(binary.proof),
        binary_bytes=binary.size,
    )
