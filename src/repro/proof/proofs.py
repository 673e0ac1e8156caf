"""Natural-deduction proof trees.

A :class:`Proof` node names an LF signature constant (or ``hyp``, a
hypothesis in scope), carries the parameters its conclusion leaves open
(terms, formulas, hypothesis labels), and holds the subproofs of its
premises.  Proofs say nothing about what they prove — the goal is supplied
externally and each step is matched against it — which is exactly the
paper's arrangement: the consumer computes the safety predicate itself and
checks the received proof against it, so a proof of the wrong predicate is
useless to an attacker.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Proof:
    """One inference step: ``rule`` applied to ``premises`` with ``params``.

    ``params`` are the arguments the constant's conclusion leaves open, in
    Π order, then one hypothesis label or eigenvariable name per premise
    that binds one (:func:`repro.proof.encode.instantiate`).  A ``hyp``
    step's one parameter is the label.  Proof objects are immutable and
    freely shared — large safety-predicate proofs reuse subproofs heavily,
    which both the size accounting and the LF encoder preserve.
    """

    rule: str
    params: tuple = ()
    premises: tuple["Proof", ...] = field(default_factory=tuple)


def proof_size(proof: Proof) -> int:
    """Number of inference nodes, counting shared subtrees once.

    This is the honest size of the proof as transmitted: the binary LF
    encoding also shares identical subterms through its symbol table.
    """
    seen: set[int] = set()

    def walk(node: Proof) -> int:
        if id(node) in seen:
            return 0
        seen.add(id(node))
        return 1 + sum(walk(premise) for premise in node.premises)

    return walk(proof)


def proof_rules_used(proof: Proof) -> dict[str, int]:
    """Histogram of rule names in the proof (shared subtrees counted once).

    The size of a PCC binary's relocation section grows with the number of
    *distinct* rules used (paper §2.3), so this is what the container
    format's symbol table is built from.
    """
    seen: set[int] = set()
    histogram: dict[str, int] = {}

    def walk(node: Proof) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        histogram[node.rule] = histogram.get(node.rule, 0) + 1
        for premise in node.premises:
            walk(premise)

    walk(proof)
    return histogram
