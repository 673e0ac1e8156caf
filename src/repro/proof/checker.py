"""The reference proof checker for the rule set Delta.

The consumer never runs it (it type-checks the LF encoding instead); the
test suite uses it as an independent second validator of every shipped
proof (``tests/pcc/test_cross_checkers.py``).

Checking is a single top-down pass: at each node the rule function computes
the premise obligations from the goal and parameters, and the checker
recurses.  Safety-predicate proofs share subtrees heavily — diamond control
flow makes both the VC and its proof DAGs — so results are memoized per
``(proof identity, goal)`` together with the *hypotheses the subproof
actually used*: a proof that checked once remains valid in any scope that
still binds those labels to the same formulas (adding hypotheses can never
invalidate a natural-deduction proof).  Without this, checking a deep
conditional chain re-verifies the shared join-point proof once per path —
exponential work.

The checker never trusts the proof's own claims: goals flow downward from
the consumer-computed safety predicate, and every rule application is
re-verified.  Any mismatch raises :class:`repro.errors.ProofError`.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ProofError
from repro.logic.formulas import Formula
from repro.proof.proofs import Proof
from repro.proof.rules import RULES


def _used_labels(proof: Proof) -> frozenset:
    """Hypothesis labels referenced anywhere in ``proof`` (DAG-aware)."""
    labels: set[str] = set()
    seen: set[int] = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.rule == "hyp" and node.params:
            label = node.params[0]
            if isinstance(label, str):
                labels.add(label)
        stack.extend(node.premises)
    return frozenset(labels)


def check_proof(proof: Proof, goal: Formula,
                hypotheses: Mapping[str, Formula] | None = None,
                max_depth: int = 100_000) -> None:
    """Verify that ``proof`` proves ``goal`` under ``hypotheses``.

    Raises :class:`ProofError` on any rule violation; returns None on
    success.  ``max_depth`` bounds the recursion to keep a malicious proof
    from exhausting the stack — real proofs are wide, not deep.
    """
    hyps: dict[str, Formula] = dict(hypotheses or {})
    # (id(proof), goal) -> tuple of (label, formula) pairs the subproof
    # relied on when it first checked.
    cache: dict[tuple[int, Formula], tuple] = {}
    label_cache: dict[int, frozenset] = {}

    def labels_of(node: Proof) -> frozenset:
        cached = label_cache.get(id(node))
        if cached is None:
            cached = _used_labels(node)
            label_cache[id(node)] = cached
        return cached

    def run(node: Proof, node_goal: Formula,
            scope: dict[str, Formula], depth: int) -> None:
        if depth > max_depth:
            raise ProofError("proof exceeds maximum depth")
        if not isinstance(node, Proof):
            raise ProofError(f"not a proof node: {node!r}")
        key = (id(node), node_goal)
        requirements = cache.get(key)
        if requirements is not None:
            if all(scope.get(label) == formula
                   for label, formula in requirements):
                return
        rule = RULES.get(node.rule)
        if rule is None:
            raise ProofError(f"unknown rule {node.rule!r}")
        try:
            obligations = rule(node_goal, node.params, scope)
        except ProofError:
            raise
        except Exception as error:
            # A malformed parameter tuple must read as an invalid proof,
            # not crash the consumer.
            raise ProofError(
                f"rule {node.rule!r} rejected malformed parameters: "
                f"{error}") from error
        if len(obligations) != len(node.premises):
            raise ProofError(
                f"rule {node.rule!r} needs {len(obligations)} premises, "
                f"proof supplies {len(node.premises)}")
        for premise, (subgoal, extra) in zip(node.premises, obligations):
            if extra:
                inner = dict(scope)
                inner.update(extra)
            else:
                inner = scope
            run(premise, subgoal, inner, depth + 1)
        used = labels_of(node) & scope.keys()
        cache[key] = tuple(sorted(
            (label, scope[label]) for label in used))

    run(proof, goal, hyps, 0)
