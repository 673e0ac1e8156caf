"""Safety policies: the consumer-published contract (paper §2.1).

A policy bundles the three parts the paper lists: the VC generator (shared,
:mod:`repro.vcgen.vcgen`), the proof rules (shared: the LF signature,
:mod:`repro.lf.signature`), and the policy-specific *precondition* and
*postcondition*.  For testing we also attach a semantic interpretation of
the ``rd``/``wr`` predicates, so the abstract machine can actually enforce
the policy on concrete states — that is how the suite exercises the Safety
Theorem empirically.

:func:`resource_access_policy` is the kernel-table example of §2: the
kernel hands untrusted code the address of a (tag, data) table entry in
``r0``; the tag is read-only and the data word is writable only when the
tag is non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.logic.formulas import Formula, Implies, Truth, conj, eq, ne, rd, wr
from repro.logic.terms import Var, add64, mod64, sel

AddressPredicate = Callable[[int], bool]
#: Builds (can_read, can_write) checkers from the initial machine state:
#: a register map and the initial memory contents (as a read callback).
CheckerFactory = Callable[[Mapping[int, int], Callable[[int], int]],
                          tuple[AddressPredicate, AddressPredicate]]


@dataclass(frozen=True)
class SafetyPolicy:
    """A named safety policy: precondition, postcondition, semantics.

    ``precondition``/``postcondition`` are the formulas plugged into the
    safety predicate.  ``make_checkers`` gives the policy's ground-truth
    interpretation of rd/wr for a concrete initial state; it is used only
    by the abstract machine and the tests, never by validation (validation
    is purely syntactic proof checking, as in the paper).
    """

    name: str
    precondition: Formula
    postcondition: Formula = field(default_factory=Truth)
    make_checkers: CheckerFactory | None = None

    def checkers(self, registers: Mapping[int, int],
                 read_word: Callable[[int], int]
                 ) -> tuple[AddressPredicate, AddressPredicate]:
        if self.make_checkers is None:
            raise ValueError(
                f"policy {self.name!r} has no semantic interpretation")
        return self.make_checkers(registers, read_word)


def word_identity(register: Var) -> Formula:
    """``r mod 2**64 = r`` — the valid-register-value constraint the paper
    attaches to every input register."""
    return eq(mod64(register), register)


def resource_access_policy() -> SafetyPolicy:
    """The §2 resource-access service policy.

    ``Pre_r = r0 mod 2**64 = r0  /\\  rd(r0)  /\\  rd(r0 (+) 8)
    /\\ (sel(rm, r0) != 0 => wr(r0 (+) 8))``

    The tag lives at ``r0`` and the data word at ``r0 (+) 8``; the data is
    writable only when the tag is non-zero.  The postcondition is ``true``.
    """
    r0 = Var("r0")
    rm = Var("rm")
    precondition = conj([
        word_identity(r0),
        rd(r0),
        rd(add64(r0, 8)),
        Implies(ne(sel(rm, r0), 0), wr(add64(r0, 8))),
    ])

    def make_checkers(registers: Mapping[int, int],
                      read_word: Callable[[int], int]
                      ) -> tuple[AddressPredicate, AddressPredicate]:
        tag_address = registers[0]
        data_address = (tag_address + 8) % (1 << 64)
        tag = read_word(tag_address)

        def can_read(address: int) -> bool:
            return address in (tag_address, data_address)

        def can_write(address: int) -> bool:
            return address == data_address and tag != 0

        return can_read, can_write

    return SafetyPolicy(
        name="resource-access",
        precondition=precondition,
        postcondition=Truth(),
        make_checkers=make_checkers,
    )
