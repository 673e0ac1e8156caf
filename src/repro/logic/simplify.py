"""Semantics-preserving simplification of terms and formulas.

The paper notes that the safety predicate is reported "after a few trivial
simplifications".  Everything here is *unconditionally* sound — each rewrite
holds for all integer values of the free variables, which the property tests
in ``tests/logic/test_simplify.py`` verify by random evaluation.  In
particular we do **not** rewrite ``add64(x, 0)`` to ``x``: those two terms
differ when ``x`` is out of word range, and conditional rewrites belong in
the prover, not here.

The simplifier is untrusted on the consumer side only in the sense that the
consumer applies it to *its own* VC output before comparison; both producer
and consumer run the identical deterministic routine, so simplification
never weakens the tamper-detection story.
"""

from __future__ import annotations

from repro.logic.formulas import (
    COMPARISONS,
    And,
    Atom,
    Falsity,
    Forall,
    Formula,
    Implies,
    Or,
    Truth,
)
from repro.logic.terms import OPS, App, Int, Term, Var, WORD_MOD, WORD_VALUED_OPS


def _const_fold(term: App) -> Term | None:
    """Fold an application whose arguments are all literals."""
    if any(not isinstance(arg, Int) for arg in term.args):
        return None
    if term.op in ("sel", "upd"):
        return None
    values = [arg.value for arg in term.args]
    result = OPS[term.op].evaluate(*values)
    return Int(result)


def simplify_term(term: Term, _memo: dict | None = None) -> Term:
    """Bottom-up simplification of ``term`` (identity-memoized: VC terms
    are DAGs and sharing must be preserved, not re-expanded)."""
    memo = _memo if _memo is not None else {}
    if isinstance(term, (Int, Var)):
        return term
    cached = memo.get(id(term))
    if cached is not None:
        return cached
    result = _simplify_app(term, memo)
    memo[id(term)] = result
    return result


def _simplify_app(term: App, memo: dict) -> Term:
    args = tuple(simplify_term(arg, memo) for arg in term.args)
    if args != term.args:
        term = App(term.op, args)

    folded = _const_fold(term)
    if folded is not None:
        return folded

    a = args[0]
    b = args[1] if len(args) > 1 else None

    # (x (+) c1) (+) c2  ->  x (+) ((c1+c2) mod 2^64): associativity of
    # addition mod 2^64 holds regardless of the range of x.
    if (term.op == "add64" and isinstance(b, Int) and isinstance(a, App)
            and a.op == "add64" and isinstance(a.args[1], Int)):
        merged = (a.args[1].value + b.value) % WORD_MOD
        return simplify_term(App("add64", (a.args[0], Int(merged))), memo)

    # and64(x, 0) = 0 and and64(0, x) = 0 unconditionally.
    if term.op == "and64" and (a == Int(0) or b == Int(0)):
        return Int(0)

    # mod64(mod64(x)) = mod64(x); mod64 of any 64-bit operator result is
    # the result itself, because machine operators already reduce.
    if term.op == "mod64":
        if isinstance(a, App) and a.op in WORD_VALUED_OPS:
            return a
        if isinstance(a, Int):
            return Int(a.value % WORD_MOD)

    # sel(upd(m, a, v), a) = v requires address equality, which is only
    # decidable here for literal addresses.
    if term.op == "sel" and isinstance(a, App) and a.op == "upd":
        written_addr = a.args[1]
        read_addr = args[1]
        if (isinstance(written_addr, Int) and isinstance(read_addr, Int)):
            if written_addr.value % WORD_MOD == read_addr.value % WORD_MOD:
                return App("mod64", (a.args[2],))

    return term


def _atom_truth(atom: Atom) -> bool | None:
    """Decide a ground comparison atom, or return None."""
    if atom.pred not in COMPARISONS:
        return None
    if not all(isinstance(arg, Int) for arg in atom.args):
        return None
    return COMPARISONS[atom.pred](atom.args[0].value, atom.args[1].value)


def simplify_formula(formula: Formula, _memo: dict | None = None,
                     _term_memo: dict | None = None) -> Formula:
    """Bottom-up simplification: fold terms, decide ground atoms, and apply
    the unit laws of the connectives.  Identity-memoized like
    :func:`simplify_term`."""
    memo = _memo if _memo is not None else {}
    term_memo = _term_memo if _term_memo is not None else {}
    cached = memo.get(id(formula))
    if cached is not None:
        return cached
    result = _simplify_formula_node(formula, memo, term_memo)
    memo[id(formula)] = result
    return result


def _simplify_formula_node(formula: Formula, memo: dict,
                           term_memo: dict) -> Formula:
    def recur(f: Formula) -> Formula:
        return simplify_formula(f, memo, term_memo)

    if isinstance(formula, (Truth, Falsity)):
        return formula
    if isinstance(formula, Atom):
        new_args = tuple(simplify_term(arg, term_memo)
                         for arg in formula.args)
        atom = formula if new_args == formula.args \
            else Atom(formula.pred, new_args)
        truth = _atom_truth(atom)
        if truth is True:
            return Truth()
        if truth is False:
            return Falsity()
        return atom
    if isinstance(formula, And):
        left = recur(formula.left)
        right = recur(formula.right)
        if isinstance(left, Falsity) or isinstance(right, Falsity):
            return Falsity()
        if isinstance(left, Truth):
            return right
        if isinstance(right, Truth):
            return left
        if left is formula.left and right is formula.right:
            return formula
        return And(left, right)
    if isinstance(formula, Or):
        left = recur(formula.left)
        right = recur(formula.right)
        if isinstance(left, Truth) or isinstance(right, Truth):
            return Truth()
        if isinstance(left, Falsity):
            return right
        if isinstance(right, Falsity):
            return left
        if left is formula.left and right is formula.right:
            return formula
        return Or(left, right)
    if isinstance(formula, Implies):
        left = recur(formula.left)
        right = recur(formula.right)
        if isinstance(left, Falsity) or isinstance(right, Truth):
            return Truth()
        if isinstance(left, Truth):
            return right
        if left is formula.left and right is formula.right:
            return formula
        return Implies(left, right)
    if isinstance(formula, Forall):
        body = recur(formula.body)
        if isinstance(body, Truth):
            return Truth()
        if body is formula.body:
            return formula
        return Forall(formula.var, body)
    raise TypeError(f"not a formula: {formula!r}")
