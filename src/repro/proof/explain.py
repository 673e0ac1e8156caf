"""Human-readable proof rendering (the paper's Figure 6, as text).

:func:`explain_proof` reads every step off its signature constant with
:func:`repro.proof.encode.instantiate`, as the encoder does, and renders
the walk: the rule-and-goal tree the paper draws for SP_r.  Shared
subproofs are printed once and referenced afterwards, mirroring how they
are stored and transmitted.
"""

from __future__ import annotations

from repro.errors import ProofError
from repro.logic.formulas import Formula
from repro.logic.pretty import pp_formula
from repro.proof.encode import instantiate
from repro.proof.proofs import Proof


def explain_proof(proof: Proof, goal: Formula,
                  max_depth: int = 12, max_width: int = 96) -> str:
    """Render the proof of ``goal`` as an indented rule tree.

    Raises :class:`ProofError` if a step does not prove its goal
    (rendering reads each step off the signature, so it doubles as a
    check).  Deep subtrees are elided with ``...`` past ``max_depth``.
    """
    lines: list[str] = []
    seen: dict[int, int] = {}
    counter = [0]

    def clip(text: str) -> str:
        if len(text) <= max_width:
            return text
        return text[:max_width - 3] + "..."

    def walk(node: Proof, node_goal: Formula,
             hyps: dict[str, Formula], depth: int) -> None:
        indent = "  " * depth
        reference = seen.get(id(node))
        if reference is not None and node.premises:
            lines.append(f"{indent}[see #{reference}] "
                         f"{clip(pp_formula(node_goal))}")
            return
        obligations = []
        if node.rule != "hyp":
            __, obligations = instantiate(node.rule, node_goal, node.params)
        elif hyps.get(node.params[0] if node.params else None) != node_goal:
            raise ProofError(f"hypothesis {node.params!r} does not match "
                             f"the goal")
        if len(obligations) != len(node.premises):
            raise ProofError(f"rule {node.rule!r}: premise count mismatch")
        label = ""
        if node.premises:
            counter[0] += 1
            seen[id(node)] = counter[0]
            label = f"#{counter[0]} "
        lines.append(f"{indent}{label}{node.rule}: "
                     f"{clip(pp_formula(node_goal))}")
        if depth >= max_depth:
            if node.premises:
                lines.append(f"{indent}  ...")
            return
        for premise, (subgoal, name, assumed) in zip(node.premises,
                                                     obligations):
            inner = hyps
            if isinstance(assumed, Formula):
                inner = {**hyps, name: assumed}
                lines.append(f"{indent}  [{name}: "
                             f"{clip(pp_formula(assumed))}]")
            walk(premise, subgoal, inner, depth + 1)

    walk(proof, goal, {}, 0)
    return "\n".join(lines)
