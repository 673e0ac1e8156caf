"""The proof rule set Delta: predicate calculus + two's-complement arithmetic.

Each rule is registered in :data:`RULES` with a checking function that,
given the *goal* formula, the proof node's parameters, and the current
hypotheses, either raises :class:`repro.errors.ProofError` or returns the
list of premise obligations ``(subgoal, extra_hypotheses)``.  The
producer's encoder (:mod:`repro.proof.encode`) replays these top-down to
learn each premise's goal, as does the reference checker
(:mod:`repro.proof.checker`), so a rule function fully determines what its
premises must prove: there is no search at checking time, which is what
makes validation "simple, allowing fast and easy-to-trust implementations"
(paper §1).

Two rule families:

**Predicate calculus** — ``truei``, ``andi``/``andel``/``ander``,
``impi``/``impe``, ``alli``/``alle``, ``ori1``/``ori2``/``ore``,
``falsee``, ``hyp``, and the equality rules ``eqrefl``/``eqsym``/
``eqtrans``/``eqsub``.  These are the standard natural-deduction rules; the
paper shows ``impe`` (implication elimination) explicitly.

**Two's-complement arithmetic** — axiom schemas.  The seventeen whose
soundness depends on literal values carry computable side conditions; they
live in the consumer's trusted core (:mod:`repro.lf.arith`), and this rule
set registers those same functions.  The rest (the compare-flag rules,
``add64_exact``/``sub64_exact``, ``cmp_bool`` and the ``sel``/``upd``
rules) have premises that fully constrain them.  Soundness of every schema
over random instantiations is property-tested in
``tests/proof/test_rule_soundness.py``.
"""

from __future__ import annotations

from typing import Callable

from repro.lf.arith import (
    SCHEMAS,
    Hyps,
    Obligation,
    RuleFn,
    _expect_atom,
    _expect_params,
    _fail,
)
from repro.logic.formulas import (
    And,
    Atom,
    Falsity,
    Forall,
    Formula,
    Implies,
    Or,
    Truth,
    eq,
    formula_vars,
)
from repro.logic.subst import subst_formula
from repro.logic.terms import App, Int, Var, WORD_MOD

RULES: dict[str, RuleFn] = {}


def _rule(name: str) -> Callable[[RuleFn], RuleFn]:
    def register(fn: RuleFn) -> RuleFn:
        RULES[name] = fn
        return fn
    return register


# ---------------------------------------------------------------------------
# Predicate calculus
# ---------------------------------------------------------------------------

@_rule("truei")
def _truei(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``|- true``."""
    if not isinstance(goal, Truth):
        raise _fail("truei", "goal is not true")
    return []


@_rule("andi")
def _andi(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``A`` and ``B`` conclude ``A /\\ B``."""
    if not isinstance(goal, And):
        raise _fail("andi", "goal is not a conjunction")
    return [(goal.left, {}), (goal.right, {})]


@_rule("andel")
def _andel(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``A /\\ B`` conclude ``A``; params: (B,)."""
    _expect_params("andel", params, 1)
    right = params[0]
    return [(And(goal, right), {})]


@_rule("ander")
def _ander(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``A /\\ B`` conclude ``B``; params: (A,)."""
    _expect_params("ander", params, 1)
    left = params[0]
    return [(And(left, goal), {})]


@_rule("impi")
def _impi(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Prove ``A => B`` by proving ``B`` under hypothesis ``A``.

    params: (label,) — the fresh name binding the hypothesis.
    """
    _expect_params("impi", params, 1)
    label = params[0]
    if not isinstance(goal, Implies):
        raise _fail("impi", "goal is not an implication")
    if not isinstance(label, str):
        raise _fail("impi", "hypothesis label must be a string")
    if label in hyps:
        raise _fail("impi", f"hypothesis label {label!r} already in scope")
    return [(goal.right, {label: goal.left})]


@_rule("impe")
def _impe(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Modus ponens: from ``A => B`` and ``A`` conclude ``B``.

    params: (A,) — the antecedent, which the goal alone cannot determine.
    """
    _expect_params("impe", params, 1)
    antecedent = params[0]
    return [(Implies(antecedent, goal), {}), (antecedent, {})]


@_rule("alli")
def _alli(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Prove ``ALL x. P`` by proving ``P[x := e]`` for a fresh eigenvariable.

    params: (eigen,) — the eigenvariable name.  The side condition is the
    usual one: the eigenvariable may occur neither in any hypothesis in
    scope nor in the goal itself.
    """
    _expect_params("alli", params, 1)
    eigen = params[0]
    if not isinstance(goal, Forall):
        raise _fail("alli", "goal is not universally quantified")
    if not isinstance(eigen, str):
        raise _fail("alli", "eigenvariable name must be a string")
    for label, hypothesis in hyps.items():
        if eigen in formula_vars(hypothesis):
            raise _fail("alli",
                        f"eigenvariable {eigen!r} occurs in hypothesis "
                        f"{label!r}")
    if eigen in formula_vars(goal):
        raise _fail("alli", f"eigenvariable {eigen!r} occurs free in goal")
    body = subst_formula(goal.body, {goal.var: Var(eigen)})
    return [(body, {})]


@_rule("alle")
def _alle(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``ALL x. P`` conclude ``P[x := t]``.

    params: (forall_formula, t) — the quantified premise and the witness.
    """
    _expect_params("alle", params, 2)
    source, term = params
    if not isinstance(source, Forall):
        raise _fail("alle", "premise parameter is not a Forall")
    expected = subst_formula(source.body, {source.var: term})
    if expected != goal:
        raise _fail("alle", "goal is not the stated instantiation")
    return [(source, {})]


@_rule("ori1")
def _ori1(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``A`` conclude ``A \\/ B``."""
    if not isinstance(goal, Or):
        raise _fail("ori1", "goal is not a disjunction")
    return [(goal.left, {})]


@_rule("ori2")
def _ori2(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``B`` conclude ``A \\/ B``."""
    if not isinstance(goal, Or):
        raise _fail("ori2", "goal is not a disjunction")
    return [(goal.right, {})]


@_rule("ore")
def _ore(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Case split: from ``A \\/ B``, ``A => C`` and ``B => C`` conclude ``C``.

    params: (A, B).
    """
    _expect_params("ore", params, 2)
    left, right = params
    return [(Or(left, right), {}),
            (Implies(left, goal), {}),
            (Implies(right, goal), {})]


@_rule("falsee")
def _falsee(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Ex falso quodlibet."""
    return [(Falsity(), {})]


@_rule("hyp")
def _hyp(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Use a hypothesis in scope; params: (label,)."""
    _expect_params("hyp", params, 1)
    label = params[0]
    if label not in hyps:
        raise _fail("hyp", f"no hypothesis named {label!r} in scope")
    if hyps[label] != goal:
        raise _fail("hyp", f"hypothesis {label!r} does not match the goal")
    return []


# ---------------------------------------------------------------------------
# Equality
# ---------------------------------------------------------------------------

@_rule("eqrefl")
def _eqrefl(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``|- t = t``."""
    atom = _expect_atom("eqrefl", goal, ("eq",))
    if atom.args[0] != atom.args[1]:
        raise _fail("eqrefl", "sides are not structurally identical")
    return []


@_rule("eqsym")
def _eqsym(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``b = a`` conclude ``a = b``."""
    atom = _expect_atom("eqsym", goal, ("eq",))
    return [(eq(atom.args[1], atom.args[0]), {})]


@_rule("eqtrans")
def _eqtrans(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """From ``a = m`` and ``m = b`` conclude ``a = b``; params: (m,)."""
    _expect_params("eqtrans", params, 1)
    middle = params[0]
    atom = _expect_atom("eqtrans", goal, ("eq",))
    return [(eq(atom.args[0], middle), {}), (eq(middle, atom.args[1]), {})]


@_rule("eqsub")
def _eqsub(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """Congruence: from ``a = b`` and ``P[x := a]`` conclude ``P[x := b]``.

    params: (template P, hole variable name x, a, b).  The checker verifies
    that the goal really is ``P[x := b]``; which occurrences are rewritten
    is controlled by where the producer put the hole in the template.
    """
    _expect_params("eqsub", params, 4)
    template, hole, a, b = params
    if not isinstance(hole, str):
        raise _fail("eqsub", "hole must be a variable name")
    expected = subst_formula(template, {hole: b})
    if expected != goal:
        raise _fail("eqsub", "goal does not match template[hole := b]")
    before = subst_formula(template, {hole: a})
    return [(eq(a, b), {}), (before, {})]


# ---------------------------------------------------------------------------
# Two's-complement arithmetic schemas
# ---------------------------------------------------------------------------

#: The schemas with side conditions: the functions the LF checker runs.
RULES.update(SCHEMAS)


_CMP_RULES = {
    # rule name: (operator, premise pred on the flag, conclusion pred)
    "cmpult_true": ("cmpult", "ne", "lt"),
    "cmpult_false": ("cmpult", "eq", "ge"),
    "cmpule_true": ("cmpule", "ne", "le"),
    "cmpule_false": ("cmpule", "eq", "gt"),
    "cmpeq_true": ("cmpeq", "ne", "eq"),
    "cmpeq_false": ("cmpeq", "eq", "ne"),
}


def _make_cmp_rule(name: str, op: str, flag_pred: str,
                   conclusion_pred: str) -> None:
    def rule(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
        """Semantics of an Alpha compare instruction.

        From ``cmpXX(a, b) != 0`` (or ``= 0``) conclude the corresponding
        comparison of the *word values* ``a mod 2^64`` and ``b mod 2^64``.
        params: (a, b).
        """
        if len(params) != 2:
            raise _fail(name, "params must be the two compared terms")
        a, b = params
        atom = _expect_atom(name, goal, (conclusion_pred,))
        expected = (App("mod64", (a,)), App("mod64", (b,)))
        if atom.args != expected:
            raise _fail(
                name, "goal must compare (a mod 2^64) with (b mod 2^64)")
        flag = App(op, (a, b))
        premise = Atom(flag_pred, (flag, Int(0)))
        return [(premise, {})]

    RULES[name] = rule


for _name, (_op, _flag, _conc) in _CMP_RULES.items():
    _make_cmp_rule(_name, _op, _flag, _conc)


@_rule("add64_exact")
def _add64_exact(goal: Formula, params: tuple,
                 hyps: Hyps) -> list[Obligation]:
    """``a (+) b = a + b`` when ``a >= 0``, ``b >= 0`` and ``a + b < 2^64``.

    The bridge from machine addition to pure integer addition, after which
    ``linarith`` applies.
    """
    atom = _expect_atom("add64_exact", goal, ("eq",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "add64"):
        raise _fail("add64_exact", "left side must be add64(a, b)")
    a, b = left.args
    if right != App("add", (a, b)):
        raise _fail("add64_exact", "right side must be add(a, b)")
    total = App("add", (a, b))
    return [(Atom("ge", (a, Int(0))), {}),
            (Atom("ge", (b, Int(0))), {}),
            (Atom("lt", (total, Int(WORD_MOD))), {})]


@_rule("sub64_exact")
def _sub64_exact(goal: Formula, params: tuple,
                 hyps: Hyps) -> list[Obligation]:
    """``a (-) b = a - b`` when ``0 <= b <= a < 2^64``."""
    atom = _expect_atom("sub64_exact", goal, ("eq",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "sub64"):
        raise _fail("sub64_exact", "left side must be sub64(a, b)")
    a, b = left.args
    if right != App("sub", (a, b)):
        raise _fail("sub64_exact", "right side must be sub(a, b)")
    return [(Atom("ge", (b, Int(0))), {}),
            (Atom("le", (b, a)), {}),
            (Atom("lt", (a, Int(WORD_MOD))), {})]


@_rule("cmp_bool")
def _cmp_bool(goal: Formula, params: tuple, hyps: Hyps) -> list[Obligation]:
    """``cmpXX(a, b) = 0 \\/ cmpXX(a, b) = 1`` — compare results are
    boolean, which postconditions about verdict registers need."""
    if not isinstance(goal, Or):
        raise _fail("cmp_bool", "goal must be a disjunction")
    zero_side, one_side = goal.left, goal.right
    ok = (isinstance(zero_side, Atom) and zero_side.pred == "eq"
          and isinstance(one_side, Atom) and one_side.pred == "eq"
          and zero_side.args[0] == one_side.args[0]
          and zero_side.args[1] == Int(0)
          and one_side.args[1] == Int(1))
    if not ok:
        raise _fail("cmp_bool", "goal must be (t = 0) \\/ (t = 1)")
    flag = zero_side.args[0]
    if not (isinstance(flag, App)
            and flag.op in ("cmpeq", "cmpult", "cmpule")):
        raise _fail("cmp_bool", "term is not a compare result")
    return []


@_rule("sel_upd_same")
def _sel_upd_same(goal: Formula, params: tuple,
                  hyps: Hyps) -> list[Obligation]:
    """``sel(upd(m, a, v), b) = v mod 2^64`` from ``a mod 2^64 = b mod 2^64``."""
    atom = _expect_atom("sel_upd_same", goal, ("eq",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "sel"):
        raise _fail("sel_upd_same", "left side must be sel(upd(...), b)")
    memory, read_addr = left.args
    if not (isinstance(memory, App) and memory.op == "upd"):
        raise _fail("sel_upd_same", "memory must be an upd(...)")
    __, write_addr, value = memory.args
    if right != App("mod64", (value,)):
        raise _fail("sel_upd_same", "right side must be v mod 2^64")
    premise = eq(App("mod64", (write_addr,)), App("mod64", (read_addr,)))
    return [(premise, {})]


@_rule("sel_upd_other")
def _sel_upd_other(goal: Formula, params: tuple,
                   hyps: Hyps) -> list[Obligation]:
    """``sel(upd(m, a, v), b) = sel(m, b)`` from ``a mod 2^64 != b mod 2^64``."""
    atom = _expect_atom("sel_upd_other", goal, ("eq",))
    left, right = atom.args
    if not (isinstance(left, App) and left.op == "sel"):
        raise _fail("sel_upd_other", "left side must be sel(upd(...), b)")
    memory, read_addr = left.args
    if not (isinstance(memory, App) and memory.op == "upd"):
        raise _fail("sel_upd_other", "memory must be an upd(...)")
    base, write_addr, __ = memory.args
    if right != App("sel", (base, read_addr)):
        raise _fail("sel_upd_other", "right side must be sel(m, b)")
    premise = Atom("ne", (App("mod64", (write_addr,)),
                          App("mod64", (read_addr,))))
    return [(premise, {})]
