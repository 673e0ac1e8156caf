"""The arithmetic the LF checker computes: one check per guarded constant.

Nineteen two's-complement proof constants of the signature are sound only
for instances that pass a computation on their arguments (mask
disjointness, ground evaluation, the weights of a ``linarith`` Farkas
certificate), the analogue of the paper's rule ``e1 (+) e2 (-) e2 = e1  if
e1 mod 2^64 = e1``.  The LF signature (:mod:`repro.lf.signature`) guards
each of them with a side condition that decodes the constant's non-proof
arguments, in order, and passes them to its check here.  The constant's
Π-type already fixes the shape of its conclusion, so a check computes only
on what the type leaves open: literals, linear forms, and (for
``linarith``) the rows of a shipped certificate.  Checking is one
deterministic pass with no search, and the walkers visit a node shared on
the wire once.  The soundness of every guarded constant over random
instantiations is property-tested in ``tests/proof/test_rule_soundness.py``.
"""

from __future__ import annotations

from typing import Callable

from repro.logic.formulas import COMPARISONS, Atom, Formula, Truth, conjuncts
from repro.logic.terms import (
    App,
    Int,
    Term,
    WORD_MOD,
    WORD_VALUED_OPS,
    eval_term,
    term_vars,
)


def is_word_valued(term: Term) -> bool:
    """True if ``term`` certainly denotes a value in [0, 2^64); the check
    of ``mod_word t``, ``word_ge0 t`` and ``word_lt_mod t``."""
    if isinstance(term, Int):
        return 0 <= term.value < WORD_MOD
    if isinstance(term, App):
        return term.op in WORD_VALUED_OPS
    return False


def _mentions_memory(term: Term, free: set) -> bool:
    """Does ``term`` read or write memory?  ``free`` collects the ids of
    the nodes found memory-free, so a shared node is visited once."""
    if not isinstance(term, App) or id(term) in free:
        return False
    if term.op in ("sel", "upd") or any(_mentions_memory(arg, free)
                                        for arg in term.args):
        return True
    free.add(id(term))
    return False


def arith_eval(f: Formula) -> bool:
    """``arith_eval f``: ``f`` is a comparison of ground, memory-free
    terms, decided by evaluation (one memo for both sides)."""
    if not isinstance(f, Atom) or f.pred not in COMPARISONS:
        return False
    free: set = set()
    if any(term_vars(arg) or _mentions_memory(arg, free) for arg in f.args):
        return False
    memo: dict = {}
    a, b = (eval_term(arg, {}, memo) for arg in f.args)
    return COMPARISONS[f.pred](a, b)


def _linear_parts(term: Term, modulus: int | None):
    """The ``(subterm, factor)`` pairs a linear node sums, or None for an
    opaque atom or a literal (see :func:`_linear_form`)."""
    if not isinstance(term, App):
        return None
    op, args = term.op, term.args
    if op == "add" or (modulus and op == "add64"):
        return ((args[0], 1), (args[1], 1))
    if op == "sub" or (modulus and op == "sub64"):
        return ((args[0], 1), (args[1], -1))
    if modulus and op == "mod64":
        return ((args[0], 1),)
    if op == "mul":
        if isinstance(args[0], Int):
            return ((args[1], args[0].value),)
        if isinstance(args[1], Int):
            return ((args[0], args[1].value),)
    return None


def _linear_form(term: Term, modulus: int | None) -> dict[Term | None, int]:
    """Decompose ``term`` into a linear combination of opaque atoms.

    Returns a map from atom (or None for the constant) to coefficient, in
    the order a left-to-right walk first meets them.  With ``modulus`` set,
    the machine operators ``add64``/``sub64``/``mod64`` are treated as their
    pure counterparts — sound because the result is only ever compared
    modulo 2^64.  Without it, only the pure operators are linear.

    Linear in the size of the term as a DAG: one walk lists the linear
    nodes once each, then each node's total coefficient flows to its
    parts in topological order.
    """
    result: dict[Term | None, int] = {}
    parts: dict[int, tuple] = {}
    post_order: list[Term] = []

    def visit(node: Term) -> None:
        if id(node) in parts:
            return
        node_parts = _linear_parts(node, modulus)
        if node_parts is None:
            result.setdefault(None if isinstance(node, Int) else node, 0)
            return
        parts[id(node)] = node_parts
        for part, __ in node_parts:
            visit(part)
        post_order.append(node)

    coefficients: dict[int, int] = {}

    def flow(node: Term, coeff: int) -> None:
        if id(node) in parts:
            coefficients[id(node)] = coefficients.get(id(node), 0) + coeff
        elif isinstance(node, Int):
            result[None] += coeff * node.value
        else:
            result[node] += coeff

    visit(term)
    flow(term, 1)
    for node in reversed(post_order):
        coeff = coefficients[id(node)]
        for part, factor in parts[id(node)]:
            flow(part, coeff * factor)
    if modulus is not None:
        result = {key: value % modulus for key, value in result.items()}
    return {key: value for key, value in result.items() if value != 0}


def norm_mod_eq(a: Term, b: Term) -> bool:
    """``mod64 a = mod64 b`` when a and b have the same linear normal form
    modulo 2^64 (non-linear subterms are atoms).

    This is the workhorse behind the paper's example rule
    ``e1 (+) e2 (-) e2 = e1 if e1 mod 2^64 = e1``: the prover derives such
    facts by chaining this unconditional congruence with mod-identity
    hypotheses.
    """
    return _linear_form(a, WORD_MOD) == _linear_form(b, WORD_MOD)


def _constant_mask(term: Term) -> int | None:
    """The constant value of a mask operand, if its linear normal form
    modulo 2^64 is a constant (covers literals and zero-register idioms
    like ``add64(sub64(r, r), c)``)."""
    if isinstance(term, Int):
        return term.value % WORD_MOD
    form = _linear_form(term, WORD_MOD)
    if not form:
        return 0
    if set(form) == {None}:
        return form[None]
    return None


def and_ubound(a: Term, c: Term) -> bool:
    """``and64 a c <= c`` for a literal ``c`` in word range."""
    return isinstance(c, Int) and 0 <= c.value < WORD_MOD


def and_mask_disjoint(a: Term, b: Term, c: Term) -> bool:
    """``and64 (and64 a b) c = 0`` when the masks are constant-valued and
    ``b & c = 0``."""
    b_value, c_value = _constant_mask(b), _constant_mask(c)
    return (b_value is not None and c_value is not None
            and not b_value & c_value)


def add_align(a: Term, b: Term, m: Term) -> bool:
    """``and64 (add64 a b) m = 0`` from ``and64 a m = 0`` and
    ``and64 b m = 0``, for a literal mask ``m = 2^k - 1``.

    Sound because 2^64 is a multiple of 2^k: the sum of two multiples of
    2^k is still a multiple, even after wrap-around.
    """
    return (isinstance(m, Int) and 0 <= m.value < WORD_MOD
            and m.value & (m.value + 1) == 0)


def srl_bound(a: Term, b: Term, c: Term) -> bool:
    """``srl64 a b < c`` for literals with ``2^(64 - (b & 63)) <= c``."""
    return (isinstance(b, Int) and isinstance(c, Int)
            and 1 << (64 - (b.value & 63)) <= c.value)


def sll_align(a: Term, b: Term, c: Term) -> bool:
    """``and64 (sll64 a b) c = 0`` for literals with
    ``0 <= c < 2^(b & 63)``: the mask sees only shifted-in zeros."""
    return (isinstance(b, Int) and isinstance(c, Int)
            and 0 <= c.value < 1 << (b.value & 63))


def ext_bound(width: int) -> Callable[[Term, Term, Term], bool]:
    """The check of ``extbl/extwl/extll_bound a b c``: ``c`` is a literal
    at least the extract's ``width``."""
    def check(a: Term, b: Term, c: Term) -> bool:
        return isinstance(c, Int) and c.value >= width
    return check


def or_disjoint(x: Term, c: Term, b: Term) -> bool:
    """``or64 (and64 x c) b = add64 (and64 x c) b`` given
    ``and64 b c = 0``, for a constant-valued ``c``.

    The SFI sandboxing identity: OR-ing a masked offset into a segment
    base is the same as adding it, because the bit ranges are disjoint, so
    there are no carries and the sum stays below 2^64.
    """
    return _constant_mask(c) is not None


def and_submask(a: Term, c1: Term, c2: Term) -> bool:
    """``and64 a c2 = 0`` from ``and64 a c1 = 0`` when both masks are
    constant-valued and c2's bits are inside c1's."""
    wide, narrow = _constant_mask(c1), _constant_mask(c2)
    return wide is not None and narrow is not None and not narrow & ~wide


def sll_ubound(a: Term, k: Term, m: Term, c: Term) -> bool:
    """``sll64 a k <= c`` from ``0 <= a <= m``, for constant k, m, c with
    ``m << k <= c`` and ``m << k < 2^64`` (so the shift cannot wrap)."""
    k_value, m_value, c_value = (_constant_mask(k), _constant_mask(m),
                                 _constant_mask(c))
    if k_value is None or m_value is None or c_value is None:
        return False
    shifted = m_value << (k_value & 63)
    return shifted <= c_value and shifted < WORD_MOD


def constant_shift(a: Term, k: Term, *__: Term) -> bool:
    """The check of ``shift_trunc_le a k`` (truncating the low k bits
    never increases a word value) and of ``sll_lt_of_srl a k b`` (a word
    index below ``b >> k`` scales to a byte offset below ``b``): the shift
    count ``k`` is constant-valued."""
    return _constant_mask(k) is not None


# ---------------------------------------------------------------------------
# Linear arithmetic (Farkas certificates)
# ---------------------------------------------------------------------------

def _constraints_of(atom: Atom, negate: bool) -> list[list[dict]]:
    """Translate an atom into linear constraints ``lin <= 0``.

    Returns a *disjunction* of conjunctions (only ``ne`` produces two
    branches).  Each constraint is a linear-form dict.  Uses integer
    tightening: ``a < b`` becomes ``a - b + 1 <= 0``.
    """
    a, b = atom.args
    lhs = _linear_form(App("sub", (a, b)), None)

    def shifted(form: dict, delta: int) -> dict:
        result = dict(form)
        result[None] = result.get(None, 0) + delta
        return result

    def negated(form: dict) -> dict:
        return {key: -value for key, value in form.items()}

    pred = atom.pred
    if negate:
        flip = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
                "le": "gt", "gt": "le"}
        pred = flip[pred]
    if pred == "le":
        return [[lhs]]
    if pred == "lt":
        return [[shifted(lhs, 1)]]
    if pred == "ge":
        return [[negated(lhs)]]
    if pred == "gt":
        return [[shifted(negated(lhs), 1)]]
    if pred == "eq":
        return [[lhs, negated(lhs)]]
    # ne: (a - b <= -1) or (b - a <= -1)
    return [[shifted(lhs, 1)], [shifted(negated(lhs), 1)]]


def linarith_rows(goal: Atom, premises) -> list[list[dict]]:
    """The rows ``lin <= 0`` a ``linarith`` certificate weighs, one list
    per branch of the negated goal (only an ``eq`` goal, negated to ``ne``,
    has two): the rows of every non-``ne`` premise, then the branch's own
    rows."""
    premise_rows = [row for premise in premises if premise.pred != "ne"
                    for row in _constraints_of(premise, negate=False)[0]]
    return [premise_rows + branch
            for branch in _constraints_of(goal, negate=True)]


def linarith(a: Formula, c: Formula, weights: tuple) -> bool:
    """``linarith a c cert``: linear integer arithmetic over opaque atoms,
    by Farkas certificate.

    The conjuncts of ``a`` (none for ``true``) and the goal ``c`` must be
    comparison atoms, and the certificate's ``weights`` one nonnegative
    ``int`` per row of :func:`linarith_rows`, branch after branch.  In
    every branch the weighted sum of the rows must leave no variable and a
    positive constant ``k``: ``0 < k <= 0`` refutes the branch over the
    rationals, hence over the integers (strict comparisons were tightened
    by one).  Checking is one pass; finding the weights is the prover's
    job.
    """
    premises = () if isinstance(a, Truth) else tuple(conjuncts(a))
    if not all(isinstance(atom, Atom) and atom.pred in COMPARISONS
               for atom in (c, *premises)):
        return False
    branches = linarith_rows(c, premises)
    if len(weights) != sum(len(rows) for rows in branches) or not all(
            type(weight) is int and weight >= 0 for weight in weights):
        return False
    position = 0
    for rows in branches:
        total: dict = {}
        for row in rows:
            for key, value in row.items():
                total[key] = total.get(key, 0) + weights[position] * value
            position += 1
        if total.pop(None, 0) <= 0 or any(total.values()):
            return False
    return True
