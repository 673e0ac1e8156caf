"""Checking natural-deduction proofs the way they ship: encoded as LF.

A proof step names a signature constant, so a proof is checked by
encoding it (:func:`repro.proof.encode.encode_proof`, which matches every
step against its goal) and type-checking the result with both LF checkers.
A hypothesis the proof assumes becomes an ``impi`` step, and a free
variable an ``alli`` (or ``alli_m``) step, so the encoded proof is closed.
"""

from __future__ import annotations

import pytest

from repro.errors import LfError
from repro.lf.encode import encode_formula, is_memory_var
from repro.lf.minicheck import minicheck_proof
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import LfApp, LfConst
from repro.lf.typecheck import check_proof_term
from repro.logic.formulas import Forall, Implies, formula_vars
from repro.proof.encode import encode_proof
from repro.proof.proofs import Proof


def closed(proof, goal, hyps=None):
    """``proof`` of ``goal`` under ``hyps`` (label -> formula, outermost
    first) as a closed proof: one ``impi`` per hypothesis inside one
    ``alli``/``alli_m`` per free variable, in sorted order."""
    for label, formula in reversed(list((hyps or {}).items())):
        goal = Implies(formula, goal)
        proof = Proof("impi", (label,), (proof,))
    for name in sorted(formula_vars(goal), reverse=True):
        goal = Forall(name, goal)
        quantifier = "alli_m" if is_memory_var(name) else "alli"
        proof = Proof(quantifier, (name,), (proof,))
    return proof, goal


def _expected(goal):
    return LfApp(LfConst("pf"), encode_formula(goal, {}, 0))


def lf_accepts(proof, goal, hyps=None) -> None:
    """The encoder, the LF checker and minicheck all accept the proof."""
    proof, goal = closed(proof, goal, hyps)
    term = encode_proof(proof, goal)
    check_proof_term(term, _expected(goal), SIGNATURE)
    minicheck_proof(term, _expected(goal), SIGNATURE)


def lf_rejects(proof, goal, hyps=None, match=None) -> str:
    """The producer raises :class:`LfError`, or it encodes the proof and
    both the LF checker and minicheck reject the term (with ``match`` in
    their messages).  Returns which: ``"producer"`` or ``"checker"``."""
    proof, goal = closed(proof, goal, hyps)
    try:
        term = encode_proof(proof, goal)
    except LfError:
        return "producer"
    with pytest.raises(LfError, match=match):
        check_proof_term(term, _expected(goal), SIGNATURE)
    with pytest.raises(LfError, match=match):
        minicheck_proof(term, _expected(goal), SIGNATURE)
    return "checker"
