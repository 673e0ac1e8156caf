"""Arithmetic helpers for the prover: matching, linear forms, enrichment.

These are *search* utilities — nothing here is trusted.  Every proof step
they suggest is read off its LF signature constant and checked with the
constant's side condition before the prover commits to it.
"""

from __future__ import annotations

from repro.lf.arith import WORD_VALUED_OPS, _linear_form  # shared, deliberately
from repro.logic.formulas import Atom
from repro.logic.pretty import pp_term
from repro.logic.terms import App, Int, Term, Var, WORD_MOD


def is_word_valued(term: Term) -> bool:
    """True if ``term`` certainly denotes a value in [0, 2^64)."""
    if isinstance(term, Int):
        return 0 <= term.value < WORD_MOD
    if isinstance(term, App):
        return term.op in WORD_VALUED_OPS
    return False


def match_term(pattern: Term, term: Term,
               wildcards: frozenset[str]) -> dict[str, Term] | None:
    """One-sided syntactic matching: bind ``wildcards`` in ``pattern`` so it
    equals ``term``; None if impossible."""
    binding: dict[str, Term] = {}

    def walk(p: Term, t: Term) -> bool:
        if isinstance(p, Var) and p.name in wildcards:
            if p.name in binding:
                return binding[p.name] == t
            binding[p.name] = t
            return True
        if isinstance(p, Var):
            return p == t
        if isinstance(p, Int):
            return p == t
        if not isinstance(t, App) or t.op != p.op:
            return False
        return all(walk(pa, ta) for pa, ta in zip(p.args, t.args))

    if walk(pattern, term):
        return binding
    return None


def linear_difference(term: Term, base: Term) -> Term | None:
    """A term ``d`` with ``term = base (+) d  (mod 2^64)``, if ``term - base``
    is expressible with unit coefficients; otherwise None.

    Used to guess the instantiation of universally quantified policy facts
    like ``ALL i. ... => rd(r1 (+) i)`` when the goal address is an
    arbitrary machine-arithmetic term.  Sound to guess freely — the
    resulting equality is re-proved by ``norm_mod_eq``.
    """
    form = _linear_form(term, WORD_MOD)
    base_form = _linear_form(base, WORD_MOD)
    diff: dict[Term | None, int] = dict(form)
    for key, coeff in base_form.items():
        diff[key] = (diff.get(key, 0) - coeff) % WORD_MOD
    diff = {key: value % WORD_MOD for key, value in diff.items()}
    diff = {key: value for key, value in diff.items() if value}

    constant = diff.pop(None, 0)
    pieces: list[Term] = []
    for atom, coeff in sorted(diff.items(),
                              key=lambda item: pp_term(item[0])):
        if coeff != 1:
            return None
        pieces.append(atom)
    result: Term | None = None
    for piece in pieces:
        result = piece if result is None else App("add64", (result, piece))
    if constant or result is None:
        const_term = Int(constant)
        result = const_term if result is None else App(
            "add64", (result, const_term))
    return result


def is_linear_atom(atom: Atom) -> bool:
    """True if the atom can contribute to a linear-arithmetic argument."""
    return atom.pred in ("eq", "ne", "lt", "le", "gt", "ge")
