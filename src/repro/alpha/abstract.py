"""The paper's abstract machine (Figure 3).

Identical to the concrete machine except for the boxed safety checks: every
LDQ must satisfy the policy's ``rd(address)`` predicate and every STQ its
``wr(address)`` predicate, *including* the 8-byte alignment requirement.
When a check fails the abstract machine has no transition — execution is
stuck — which we surface as :class:`repro.errors.SafetyViolation`.

The checks are stated once, in :func:`make_check_hooks`; both the reference
:class:`AbstractMachine` and the engine built by :func:`abstract_engine`
run them through their ``check_read``/``check_write`` hooks.

The Safety Theorem (2.1) says a certified program started in a state
satisfying the precondition never gets stuck here; the test suite checks
that claim empirically for every certified program in the repository, and
checks the converse for deliberately unsafe programs.
"""

from __future__ import annotations

from typing import Callable

from repro.alpha.engine import ExecutionEngine
from repro.alpha.machine import CheckHook, Machine, MachineResult, Memory
from repro.alpha.isa import Program
from repro.errors import SafetyViolation

AddressPredicate = Callable[[int], bool]


def make_check_hooks(can_read: AddressPredicate,
                     can_write: AddressPredicate,
                     ) -> tuple[CheckHook, CheckHook]:
    """The Figure 3 boxed checks as ``check_read``/``check_write`` hooks.

    ``can_read`` and ``can_write`` are the policy's interpretation of the
    rd/wr predicates *minus* alignment, which is enforced here uniformly
    (the paper: "memory operations work on 64 bits and the addresses
    involved must be aligned on an 8-byte boundary"); a failed check
    raises :class:`SafetyViolation` — the abstract machine is stuck.
    """

    def check_read(address: int, pc: int) -> None:
        if address & 7 or not can_read(address):
            raise SafetyViolation(
                f"rd({address:#x}) check failed at pc={pc}",
                pc=pc, address=address, kind="rd")

    def check_write(address: int, pc: int) -> None:
        if address & 7 or not can_write(address):
            raise SafetyViolation(
                f"wr({address:#x}) check failed at pc={pc}",
                pc=pc, address=address, kind="wr")

    return check_read, check_write


def abstract_engine(program: Program,
                    can_read: AddressPredicate,
                    can_write: AddressPredicate,
                    cost_model=None,
                    max_steps: int = 1_000_000) -> ExecutionEngine:
    """A block-compiled engine with the rd()/wr() checks emitted inline.

    Behaviourally identical to :class:`AbstractMachine`: the checks run
    before each LDQ/STQ inside the compiled blocks, and the block that
    would cross the step limit steps on the reference machine with the
    same hooks.  Checked compilations embed the per-run predicates, so
    they are not shared through the global code cache.
    """
    check_read, check_write = make_check_hooks(can_read, can_write)
    return ExecutionEngine(program, cost_model, max_steps,
                           check_read=check_read, check_write=check_write)


def run_abstract(program: Program, memory: Memory,
                 can_read: AddressPredicate, can_write: AddressPredicate,
                 registers: dict[int, int] | None = None,
                 cost_model=None, max_steps: int = 1_000_000,
                 ) -> MachineResult:
    """One-shot abstract execution on the engine (Figure 3 semantics)."""
    return abstract_engine(program, can_read, can_write, cost_model,
                           max_steps).run(memory, registers)


class AbstractMachine(Machine):
    """The reference :class:`Machine` with the paper's rd()/wr() checks
    (:func:`make_check_hooks`) as its hooks."""

    def __init__(self, program: Program, memory: Memory,
                 can_read: AddressPredicate, can_write: AddressPredicate,
                 registers: dict[int, int] | None = None,
                 cost_model=None, max_steps: int = 1_000_000) -> None:
        check_read, check_write = make_check_hooks(can_read, can_write)
        super().__init__(program, memory, registers, cost_model, max_steps,
                         check_read=check_read, check_write=check_write)
