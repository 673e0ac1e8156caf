"""First-order formulas over :mod:`repro.logic.terms`.

The formula language is the one the paper's safety predicates live in:
truth/falsity, conjunction, disjunction, implication, universal
quantification, and atomic predicates.  Atoms are either integer
comparisons (``eq``/``ne``/``lt``/``le``/``gt``/``ge``, interpreted over the
unbounded integers) or the safety predicates ``rd``/``wr`` whose meaning is
supplied by the safety policy at evaluation time.

Negation is not a primitive: the paper's predicates only ever need ``ne``,
and leaving ``Not`` out keeps both the proof rules and the LF signature
smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

from repro.errors import LogicError
from repro.logic.eqcache import dag_equal
from repro.logic.terms import Env, Term, eval_term, term_size, term_vars, _coerce


@dataclass(frozen=True, slots=True)
class Truth:
    """The always-true formula (the paper's trivial postcondition)."""


@dataclass(frozen=True, slots=True)
class Falsity:
    """The always-false formula."""


@dataclass(frozen=True, slots=True)
class And:
    left: "Formula"
    right: "Formula"
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("and", self.left, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, And):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.left, node.right))



@dataclass(frozen=True, slots=True)
class Or:
    left: "Formula"
    right: "Formula"
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("or", self.left, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Or):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.left, node.right))



@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("imp", self.left, self.right))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Implies):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.left, node.right))



@dataclass(frozen=True, slots=True)
class Forall:
    """Universal quantification over an integer-valued variable."""

    var: str
    body: "Formula"
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("all", self.var, self.body))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forall):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.var, node.body))


#: The comparison predicates and their meaning over the integers.
COMPARISONS: dict[str, Callable[[int, int], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

#: Predicate table: name -> arity.  ``rd``/``wr`` are the abstract-machine
#: safety checks; their truth is policy-defined (see ``holds``).
PREDICATES: dict[str, int] = {**dict.fromkeys(COMPARISONS, 2),
                              "rd": 1, "wr": 1}


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...]
    _hash: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.pred, self.args))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return dag_equal(self, other,
                         lambda node: (node.pred, node.args))


    def __post_init__(self) -> None:
        arity = PREDICATES.get(self.pred)
        if arity is None:
            raise LogicError(f"unknown predicate {self.pred!r}")
        if len(self.args) != arity:
            raise LogicError(
                f"predicate {self.pred!r} expects {arity} arguments, "
                f"got {len(self.args)}")


Formula = Union[Truth, Falsity, And, Or, Implies, Forall, Atom]


def eq(a: int | Term, b: int | Term) -> Atom:
    """``a = b`` over the integers."""
    return Atom("eq", (_coerce(a), _coerce(b)))


def ne(a: int | Term, b: int | Term) -> Atom:
    """``a != b`` over the integers."""
    return Atom("ne", (_coerce(a), _coerce(b)))


def lt(a: int | Term, b: int | Term) -> Atom:
    """``a < b`` over the integers."""
    return Atom("lt", (_coerce(a), _coerce(b)))


def le(a: int | Term, b: int | Term) -> Atom:
    """``a <= b`` over the integers."""
    return Atom("le", (_coerce(a), _coerce(b)))


def gt(a: int | Term, b: int | Term) -> Atom:
    """``a > b`` over the integers."""
    return Atom("gt", (_coerce(a), _coerce(b)))


def ge(a: int | Term, b: int | Term) -> Atom:
    """``a >= b`` over the integers."""
    return Atom("ge", (_coerce(a), _coerce(b)))


def rd(address: int | Term) -> Atom:
    """It is safe to read the 64-bit word at ``address``."""
    return Atom("rd", (_coerce(address),))


def wr(address: int | Term) -> Atom:
    """It is safe to write the 64-bit word at ``address``."""
    return Atom("wr", (_coerce(address),))


def conj(formulas: Sequence[Formula]) -> Formula:
    """Right-nested conjunction of a sequence; ``Truth()`` if empty."""
    if not formulas:
        return Truth()
    result = formulas[-1]
    for formula in reversed(formulas[:-1]):
        result = And(formula, result)
    return result


def conjuncts(formula: Formula) -> list[Formula]:
    """Flatten nested conjunctions into a list."""
    if isinstance(formula, And):
        return conjuncts(formula.left) + conjuncts(formula.right)
    return [formula]


#: id-keyed cache for formula_vars; values keep the key formula alive.
_FORMULA_VARS_CACHE: dict[int, tuple] = {}


def formula_vars(formula: Formula) -> frozenset[str]:
    """Free variable names of ``formula`` (cached on identity)."""
    if isinstance(formula, (Truth, Falsity)):
        return frozenset()
    cached = _FORMULA_VARS_CACHE.get(id(formula))
    if cached is not None:
        return cached[1]
    if isinstance(formula, Atom):
        names = frozenset().union(*(term_vars(arg)
                                    for arg in formula.args))
    elif isinstance(formula, (And, Or, Implies)):
        names = formula_vars(formula.left) | formula_vars(formula.right)
    elif isinstance(formula, Forall):
        names = formula_vars(formula.body) - {formula.var}
    else:
        raise LogicError(f"not a formula: {formula!r}")
    if len(_FORMULA_VARS_CACHE) >= 500_000:
        _FORMULA_VARS_CACHE.clear()  # evict wholesale; never stop caching
    _FORMULA_VARS_CACHE[id(formula)] = (formula, names)
    return names


def formula_size(formula: Formula) -> int:
    """Node count of a formula (atoms count their term nodes)."""
    if isinstance(formula, (Truth, Falsity)):
        return 1
    if isinstance(formula, Atom):
        return 1 + sum(term_size(arg) for arg in formula.args)
    if isinstance(formula, (And, Or, Implies)):
        return 1 + formula_size(formula.left) + formula_size(formula.right)
    if isinstance(formula, Forall):
        return 1 + formula_size(formula.body)
    raise LogicError(f"not a formula: {formula!r}")


def holds(formula: Formula, env: Env,
          can_read: Callable[[int], bool] | None = None,
          can_write: Callable[[int], bool] | None = None,
          forall_samples: Iterable[int] | None = None) -> bool:
    """Semantic truth of ``formula`` in ``env``.

    ``rd``/``wr`` atoms are decided by the supplied policy callbacks; if a
    callback is missing, evaluating the corresponding atom raises
    :class:`LogicError` (tests must say what they mean).

    ``Forall`` cannot be decided exactly over the integers, so it is checked
    over ``forall_samples`` (default: a small set of boundary values).  That
    makes :func:`holds` a *refutation-complete sampler*, which is exactly
    what the property-based soundness tests need: a formula reported false
    is definitely false, one reported true was merely not refuted.
    """
    if forall_samples is None:
        forall_samples = (0, 1, 7, 8, 63, 64, (1 << 63) - 1, (1 << 64) - 1)
    if isinstance(formula, Truth):
        return True
    if isinstance(formula, Falsity):
        return False
    if isinstance(formula, And):
        return (holds(formula.left, env, can_read, can_write, forall_samples)
                and holds(formula.right, env, can_read, can_write,
                          forall_samples))
    if isinstance(formula, Or):
        return (holds(formula.left, env, can_read, can_write, forall_samples)
                or holds(formula.right, env, can_read, can_write,
                         forall_samples))
    if isinstance(formula, Implies):
        if not holds(formula.left, env, can_read, can_write, forall_samples):
            return True
        return holds(formula.right, env, can_read, can_write, forall_samples)
    if isinstance(formula, Forall):
        for value in forall_samples:
            extended = dict(env)
            extended[formula.var] = value
            if not holds(formula.body, extended, can_read, can_write,
                         forall_samples):
                return False
        return True
    if isinstance(formula, Atom):
        if formula.pred in COMPARISONS:
            a = eval_term(formula.args[0], env)
            b = eval_term(formula.args[1], env)
            return COMPARISONS[formula.pred](a, b)
        if formula.pred == "rd":
            if can_read is None:
                raise LogicError("rd() atom evaluated without a policy")
            return can_read(eval_term(formula.args[0], env))
        if formula.pred == "wr":
            if can_write is None:
                raise LogicError("wr() atom evaluated without a policy")
            return can_write(eval_term(formula.args[0], env))
    raise LogicError(f"not a formula: {formula!r}")
