"""The arithmetic the LF checker computes: the side-condition schemas.

Seventeen two's-complement schemas of the rule set are sound only for
instances that pass a computation on the goal (mask disjointness, ground
evaluation, the weights of a ``linarith`` Farkas certificate), the analogue
of the paper's rule ``e1 (+) e2 (-) e2 = e1  if  e1 mod 2^64 = e1``.  The
LF signature (:mod:`repro.lf.signature`) guards each of their constants
with a side condition that decodes the application spine and runs the
schema here.

A schema takes the *goal* formula, the rule's parameters and the
hypotheses in scope, and either raises :class:`repro.errors.ProofError` or
returns its premise obligations ``(subgoal, extra_hypotheses)``.  The LF
type of the constant already states those premises, so the signature
ignores them; the producer's natural-deduction rule set
(:mod:`repro.proof.rules`) registers these same functions, so the
arithmetic is written once.  The side conditions only ever compute on
*literal* parts of the goal (or, for ``linarith``, sum the rows of a
shipped certificate), so checking is one deterministic pass with no
search.  Soundness of every schema over random instantiations is
property-tested in ``tests/proof/test_rule_soundness.py``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import ProofError
from repro.logic.formulas import Atom, Formula, eq
from repro.logic.terms import App, Int, Term, WORD_MOD, eval_term, term_vars

#: Premise obligations returned by a rule: (subgoal, extra hypotheses).
Obligation = tuple[Formula, dict[str, Formula]]
Hyps = Mapping[str, Formula]
RuleFn = Callable[[Formula, tuple, Hyps], list[Obligation]]

#: The side-condition schemas by rule name.
SCHEMAS: dict[str, RuleFn] = {}


def _schema(name: str) -> Callable[[RuleFn], RuleFn]:
    def register(fn: RuleFn) -> RuleFn:
        SCHEMAS[name] = fn
        return fn
    return register


def _fail(rule: str, message: str) -> ProofError:
    return ProofError(f"{rule}: {message}")


def _expect_atom(rule: str, goal: Formula, preds: tuple[str, ...]) -> Atom:
    if not isinstance(goal, Atom) or goal.pred not in preds:
        raise _fail(rule, f"goal must be a {'/'.join(preds)} atom")
    return goal


def _expect_params(rule: str, params: tuple, count: int) -> None:
    if len(params) != count:
        raise _fail(rule, f"expected {count} parameters, got {len(params)}")


#: Operators whose results always lie in [0, 2^64).
WORD_VALUED_OPS = frozenset((
    "add64", "sub64", "mul64", "and64", "or64", "xor64", "sll64", "srl64",
    "mod64", "cmpeq", "cmpult", "cmpule", "extbl", "extwl", "extll", "sel",
))


def _is_word_valued(term: Term) -> bool:
    if isinstance(term, Int):
        return 0 <= term.value < WORD_MOD
    if isinstance(term, App):
        return term.op in WORD_VALUED_OPS
    return False


def _is_ground(term: Term) -> bool:
    return not term_vars(term) and not _mentions_memory(term)


def _mentions_memory(term: Term) -> bool:
    if isinstance(term, App):
        if term.op in ("sel", "upd"):
            return True
        return any(_mentions_memory(arg) for arg in term.args)
    return False


@_schema("arith_eval")
def _arith_eval(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """A ground comparison atom, decided by evaluation."""
    atom = _expect_atom("arith_eval", goal,
                        ("eq", "ne", "lt", "le", "gt", "ge"))
    for arg in atom.args:
        if not _is_ground(arg):
            raise _fail("arith_eval", "goal is not ground")
    a = eval_term(atom.args[0], {})
    b = eval_term(atom.args[1], {})
    truth = {"eq": a == b, "ne": a != b, "lt": a < b,
             "le": a <= b, "gt": a > b, "ge": a >= b}[atom.pred]
    if not truth:
        raise _fail("arith_eval", "ground atom is false")
    return []


@_schema("mod_word")
def _mod_word(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``t mod 2^64 = t`` for any word-valued term ``t``."""
    atom = _expect_atom("mod_word", goal, ("eq",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "mod64"
            and left.args[0] == right):
        raise _fail("mod_word", "goal must have shape (t mod 2^64) = t")
    if not _is_word_valued(right):
        raise _fail("mod_word", "term is not word-valued")
    return []


def _linear_form(term: Term, modulus: int | None) -> dict[Term | None, int]:
    """Decompose ``term`` into a linear combination of opaque atoms.

    Returns a map from atom (or None for the constant) to coefficient.
    With ``modulus`` set, the machine operators ``add64``/``sub64``/
    ``mod64`` are treated as their pure counterparts — sound because the
    result is only ever compared modulo 2^64.  Without it, only the pure
    operators are linear.
    """
    result: dict[Term | None, int] = {}

    def add_in(key: Term | None, coeff: int) -> None:
        result[key] = result.get(key, 0) + coeff

    def walk(t: Term, coeff: int) -> None:
        if isinstance(t, Int):
            add_in(None, coeff * t.value)
            return
        if isinstance(t, App):
            if t.op == "add" or (modulus and t.op == "add64"):
                walk(t.args[0], coeff)
                walk(t.args[1], coeff)
                return
            if t.op == "sub" or (modulus and t.op == "sub64"):
                walk(t.args[0], coeff)
                walk(t.args[1], -coeff)
                return
            if modulus and t.op == "mod64":
                walk(t.args[0], coeff)
                return
            if t.op == "mul":
                a, b = t.args
                if isinstance(a, Int):
                    walk(b, coeff * a.value)
                    return
                if isinstance(b, Int):
                    walk(a, coeff * b.value)
                    return
        add_in(t, coeff)

    walk(term, 1)
    if modulus is not None:
        result = {key: value % modulus for key, value in result.items()}
    return {key: value for key, value in result.items() if value != 0}


@_schema("norm_mod_eq")
def _norm_mod_eq(goal: Formula, params: tuple,
                 hyps: Hyps) -> list[Obligation]:
    """``t1 mod 2^64 = t2 mod 2^64`` when t1 and t2 have the same linear
    normal form modulo 2^64 (treating non-linear subterms as atoms).

    This is the workhorse behind the paper's example rule
    ``e1 (+) e2 (-) e2 = e1 if e1 mod 2^64 = e1``: the prover derives such
    facts by chaining this unconditional congruence with mod-identity
    hypotheses.
    """
    atom = _expect_atom("norm_mod_eq", goal, ("eq",))
    left, right = atom.args
    ok = (isinstance(left, App) and left.op == "mod64"
          and isinstance(right, App) and right.op == "mod64")
    if not ok:
        raise _fail("norm_mod_eq",
                    "goal must have shape (t1 mod 2^64) = (t2 mod 2^64)")
    lhs = _linear_form(left.args[0], WORD_MOD)
    rhs = _linear_form(right.args[0], WORD_MOD)
    if lhs != rhs:
        raise _fail("norm_mod_eq", "normal forms differ")
    return []


@_schema("word_ge0")
def _word_ge0(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``t >= 0`` for any word-valued ``t``."""
    atom = _expect_atom("word_ge0", goal, ("ge",))
    if atom.args[1] != Int(0):
        raise _fail("word_ge0", "bound must be the literal 0")
    if not _is_word_valued(atom.args[0]):
        raise _fail("word_ge0", "term is not word-valued")
    return []


@_schema("word_lt_mod")
def _word_lt_mod(goal: Formula, params: tuple,
                 hyps: Hyps) -> list[Obligation]:
    """``t < 2^64`` for any word-valued ``t``."""
    atom = _expect_atom("word_lt_mod", goal, ("lt",))
    if atom.args[1] != Int(WORD_MOD):
        raise _fail("word_lt_mod", "bound must be the literal 2^64")
    if not _is_word_valued(atom.args[0]):
        raise _fail("word_lt_mod", "term is not word-valued")
    return []


@_schema("and_ubound")
def _and_ubound(goal: Formula, params: tuple,
                hyps: Hyps) -> list[Obligation]:
    """``(a & c) <= c`` for a literal ``c`` in word range."""
    atom = _expect_atom("and_ubound", goal, ("le",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "and64"):
        raise _fail("and_ubound", "left side must be and64(a, c)")
    mask = left.args[1]
    if not isinstance(mask, Int) or mask != right:
        raise _fail("and_ubound", "bound must be the literal mask")
    if not 0 <= mask.value < WORD_MOD:
        raise _fail("and_ubound", "mask out of word range")
    return []


@_schema("and_mask_disjoint")
def _and_mask_disjoint(goal: Formula, params: tuple,
                       hyps: Hyps) -> list[Obligation]:
    """``((a & c1) & c2) = 0`` when the literal masks satisfy c1 & c2 = 0."""
    atom = _expect_atom("and_mask_disjoint", goal, ("eq",))
    left, right = atom.args
    if right != Int(0):
        raise _fail("and_mask_disjoint", "right side must be 0")
    if not (isinstance(left, App) and left.op == "and64"):
        raise _fail("and_mask_disjoint", "left side must be and64")
    inner, outer_mask = left.args
    if not (isinstance(inner, App) and inner.op == "and64"):
        raise _fail("and_mask_disjoint", "inner term must be and64(a, c1)")
    inner_value = _constant_mask(inner.args[1])
    outer_value = _constant_mask(outer_mask)
    if inner_value is None or outer_value is None:
        raise _fail("and_mask_disjoint", "masks must be constant-valued")
    if inner_value & outer_value:
        raise _fail("and_mask_disjoint", "masks are not disjoint")
    return []


@_schema("add_align")
def _add_align(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``((a (+) b) & m) = 0`` from ``(a & m) = 0`` and ``(b & m) = 0``,
    for a literal mask ``m = 2^k - 1``.

    Sound because 2^64 is a multiple of 2^k: the sum of two multiples of
    2^k is still a multiple, even after wrap-around.
    """
    atom = _expect_atom("add_align", goal, ("eq",))
    left, right = atom.args
    if right != Int(0):
        raise _fail("add_align", "right side must be 0")
    if not (isinstance(left, App) and left.op == "and64"):
        raise _fail("add_align", "left side must be and64(a (+) b, m)")
    summed, mask = left.args
    if not (isinstance(summed, App) and summed.op == "add64"):
        raise _fail("add_align", "masked term must be add64(a, b)")
    if not isinstance(mask, Int):
        raise _fail("add_align", "mask must be a literal")
    m = mask.value
    if m < 0 or (m & (m + 1)) != 0 or m >= WORD_MOD:
        raise _fail("add_align", "mask must be 2^k - 1")
    a, b = summed.args
    return [(eq(App("and64", (a, mask)), 0), {}),
            (eq(App("and64", (b, mask)), 0), {})]


@_schema("srl_bound")
def _srl_bound(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``(a >> k) < c`` for literals with ``2^(64 - (k & 63)) <= c``."""
    atom = _expect_atom("srl_bound", goal, ("lt",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "srl64"):
        raise _fail("srl_bound", "left side must be srl64(a, k)")
    shift = left.args[1]
    if not (isinstance(shift, Int) and isinstance(right, Int)):
        raise _fail("srl_bound", "shift and bound must be literals")
    if (1 << (64 - (shift.value & 63))) > right.value:
        raise _fail("srl_bound", "bound is too tight for this shift")
    return []


_EXT_BOUNDS = {"extbl": 1 << 8, "extwl": 1 << 16, "extll": 1 << 32}


@_schema("ext_bound")
def _ext_bound(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``extbl/extwl/extll(a, b) < c`` for a literal c at least the width."""
    atom = _expect_atom("ext_bound", goal, ("lt",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op in _EXT_BOUNDS):
        raise _fail("ext_bound", "left side must be a byte/word extraction")
    if not isinstance(right, Int) or right.value < _EXT_BOUNDS[left.op]:
        raise _fail("ext_bound", "bound must be a literal >= extract width")
    return []


@_schema("sll_align")
def _sll_align(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``((a << k) & m) = 0`` for literals with ``m < 2^(k & 63)``."""
    atom = _expect_atom("sll_align", goal, ("eq",))
    left, right = atom.args
    if right != Int(0):
        raise _fail("sll_align", "right side must be 0")
    if not (isinstance(left, App) and left.op == "and64"):
        raise _fail("sll_align", "left side must be and64(a << k, m)")
    shifted, mask = left.args
    if not (isinstance(shifted, App) and shifted.op == "sll64"):
        raise _fail("sll_align", "masked term must be sll64(a, k)")
    shift = shifted.args[1]
    if not (isinstance(shift, Int) and isinstance(mask, Int)):
        raise _fail("sll_align", "shift and mask must be literals")
    if mask.value >= (1 << (shift.value & 63)) or mask.value < 0:
        raise _fail("sll_align", "mask reaches above the shifted-in zeros")
    return []


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


@_schema("or_disjoint")
def _or_disjoint(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``(x & c) | b  =  (x & c) (+) b`` given ``b & c = 0``.

    The SFI sandboxing identity: OR-ing a masked offset into a segment
    base is the same as adding it, because the bit ranges are disjoint.
    Sound unconditionally given the premise: the two operands share no set
    bits, so there are no carries and the sum stays below 2^64.
    ``c`` must be constant-valued.
    """
    atom = _expect_atom("or_disjoint", goal, ("eq",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "or64"):
        raise _fail("or_disjoint", "left side must be or64(a, b)")
    a, b = left.args
    if right != App("add64", (a, b)):
        raise _fail("or_disjoint", "right side must be add64(a, b)")
    if not (isinstance(a, App) and a.op == "and64"):
        raise _fail("or_disjoint", "first operand must be and64(x, c)")
    mask = a.args[1]
    if _constant_mask(mask) is None:
        raise _fail("or_disjoint", "mask is not constant-valued")
    premise = eq(App("and64", (b, mask)), 0)
    return [(premise, {})]


@_schema("and_submask")
def _and_submask(goal: Formula, params: tuple,
                 hyps: Hyps) -> list[Obligation]:
    """``a & c2 = 0`` from ``a & c1 = 0`` when c2's bits are inside c1's.

    params: (c1,) — the wider constant mask of the premise.
    """
    _expect_params("and_submask", params, 1)
    wide = params[0]
    atom = _expect_atom("and_submask", goal, ("eq",))
    left, right = atom.args
    if right != Int(0):
        raise _fail("and_submask", "right side must be 0")
    if not (isinstance(left, App) and left.op == "and64"):
        raise _fail("and_submask", "left side must be and64(a, c2)")
    a, narrow = left.args
    wide_value = _constant_mask(wide)
    narrow_value = _constant_mask(narrow)
    if wide_value is None or narrow_value is None:
        raise _fail("and_submask", "masks must be constant-valued")
    if narrow_value & ~wide_value:
        raise _fail("and_submask", "c2 is not a submask of c1")
    premise = eq(App("and64", (a, wide)), 0)
    return [(premise, {})]


@_schema("sll_ubound")
def _sll_ubound(goal: Formula, params: tuple,
                hyps: Hyps) -> list[Obligation]:
    """``(a << k) <= c`` from ``0 <= a <= m``, for constant k, m, c with
    ``m << k <= c`` and ``m << k < 2^64`` (so the shift cannot wrap).

    params: (m,) — the premise bound.
    """
    _expect_params("sll_ubound", params, 1)
    m = params[0]
    atom = _expect_atom("sll_ubound", goal, ("le",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "sll64"):
        raise _fail("sll_ubound", "left side must be sll64(a, k)")
    a, k = left.args
    k_value = _constant_mask(k)
    m_value = _constant_mask(m)
    c_value = _constant_mask(right)
    if k_value is None or m_value is None or c_value is None:
        raise _fail("sll_ubound", "k, m and the bound must be constant")
    shifted = m_value << (k_value & 63)
    if shifted > c_value or shifted >= WORD_MOD:
        raise _fail("sll_ubound", "m << k exceeds the bound or the word")
    return [(Atom("ge", (a, Int(0))), {}),
            (Atom("le", (a, m)), {})]


@_schema("shift_trunc_le")
def _shift_trunc_le(goal: Formula, params: tuple,
                    hyps: Hyps) -> list[Obligation]:
    """``((a >> k) << k) <= a mod 2^64`` — truncating the low k bits never
    increases a word value.  ``k`` must be constant-valued."""
    atom = _expect_atom("shift_trunc_le", goal, ("le",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "sll64"):
        raise _fail("shift_trunc_le", "left side must be sll64(srl64(a,k),k)")
    shifted, k_out = left.args
    if not (isinstance(shifted, App) and shifted.op == "srl64"):
        raise _fail("shift_trunc_le", "inner term must be srl64(a, k)")
    a, k_in = shifted.args
    if k_in != k_out or _constant_mask(k_in) is None:
        raise _fail("shift_trunc_le", "shift counts must be the same "
                    "constant")
    if right != App("mod64", (a,)):
        raise _fail("shift_trunc_le", "bound must be a mod 2^64")
    return []


@_schema("sll_lt_of_srl")
def _sll_lt_of_srl(goal: Formula, params: tuple,
                   hyps: Hyps) -> list[Obligation]:
    """From ``a mod 2^64 < (b >> k) mod 2^64`` conclude
    ``(a << k) < b mod 2^64`` — the view-index bound: if a word index is
    below ``len >> k``, the byte offset ``index << k`` is below ``len``
    (and the shift cannot wrap).  params: (b,); k constant-valued."""
    _expect_params("sll_lt_of_srl", params, 1)
    b = params[0]
    atom = _expect_atom("sll_lt_of_srl", goal, ("lt",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "sll64"):
        raise _fail("sll_lt_of_srl", "left side must be sll64(a, k)")
    a, k = left.args
    if _constant_mask(k) is None:
        raise _fail("sll_lt_of_srl", "shift count must be constant-valued")
    if right != App("mod64", (b,)):
        raise _fail("sll_lt_of_srl", "bound must be b mod 2^64")
    premise = Atom("lt", (App("mod64", (a,)),
                          App("mod64", (App("srl64", (b, k)),))))
    return [(premise, {})]


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


@_schema("linarith")
def _linarith(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Linear integer arithmetic over opaque atoms, by Farkas certificate.

    params: the premise atoms, then one tuple of weights — one per row of
    :func:`linarith_rows`, branch after branch.  Each weight must be a
    nonnegative ``int``, and in every branch the weighted sum of the rows
    must leave no variable and a positive constant ``c``: ``0 < c <= 0``
    refutes the branch over the rationals, hence over the integers
    (strict comparisons were tightened by one).  Checking is one pass;
    finding the weights is the prover's job.
    """
    goal_atom = _expect_atom("linarith", goal,
                             ("eq", "ne", "lt", "le", "gt", "ge"))
    if not params or not isinstance(params[-1], tuple):
        raise _fail("linarith", "last parameter must be the weight tuple")
    premises, weights = params[:-1], params[-1]
    for premise in premises:
        if not isinstance(premise, Atom) or premise.pred not in (
                "eq", "lt", "le", "gt", "ge", "ne"):
            raise _fail("linarith", "premises must be comparison atoms")
    branches = linarith_rows(goal_atom, premises)
    if len(weights) != sum(len(rows) for rows in branches):
        raise _fail("linarith", "certificate needs one weight per row")
    if not all(type(weight) is int and weight >= 0 for weight in weights):
        raise _fail("linarith", "weights must be nonnegative integers")
    position = 0
    for rows in branches:
        total: dict = {}
        for row in rows:
            for key, value in row.items():
                total[key] = total.get(key, 0) + weights[position] * value
            position += 1
        constant = total.pop(None, 0)
        if any(total.values()) or constant <= 0:
            raise _fail("linarith",
                        "goal does not follow by linear arithmetic")
    return [(premise, {}) for premise in premises]
