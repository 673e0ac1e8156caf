"""Encoding between the logic layer and LF objects.

Two jobs:

* :func:`encode_term` / :func:`encode_formula` — map logic terms and
  formulas to LF objects (registers and eigenvariables become LF bound
  variables; there are two quantifiers, ``all`` over individuals and
  ``allm`` over memory states, selected by the variable's sort);
* :func:`decode_logic_term` / :func:`decode_logic_formula` — the partial
  inverse used by the signature's side conditions (bound LF variables
  decode to synthetic ``%i`` logic variables, which is sufficient because
  side conditions only compare structure and literals).

The producer's encoder of natural-deduction proofs into LF objects builds
on these (:mod:`repro.proof.encode`).
"""

from __future__ import annotations

from repro.errors import LfError
from repro.logic.formulas import (
    PREDICATES,
    And,
    Atom,
    Falsity,
    Forall,
    Formula,
    Implies,
    Or,
    Truth,
)
from repro.logic.terms import App, Int, OPS, Term, Var
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfTerm,
    LfVar,
    lf_app,
    spine,
)
from repro.vcgen.vcgen import MEMORY_VAR, REGISTER_VARS

_TM = LfConst("tm")
_MEM = LfConst("mem")

_CONNECTIVES = {"and": And, "or": Or, "imp": Implies}

#: Machine-state variables encodable as LF constants when free.  Loop
#: invariants are *open* formulas over the registers (they are closed by
#: the VC generator, not by the invariant itself), so the wire encoding
#: maps a free register to the corresponding signature constant.
STATE_CONSTANTS = REGISTER_VARS + (MEMORY_VAR,)


def is_memory_var(name: str) -> bool:
    """Our convention: the memory pseudo-register and eigenvariables derived
    from it are named ``rm`` or ``rm$<n>``."""
    return name == "rm" or name.startswith("rm$")


Env = dict[str, int]  # variable name -> binder level


def _var_ref(name: str, env: Env, depth: int) -> LfTerm:
    if name in env:
        return LfVar(depth - env[name] - 1)
    if name in STATE_CONSTANTS:
        return LfConst(name)
    raise LfError(f"free variable {name!r} has no LF binding")


#: Encoding caches: logic formulas/terms are DAGs (join-point predicates
#: shared across control-flow arms); re-encoding shared nodes per path
#: builds exponentially large LF trees.  The key captures everything the
#: encoding depends on: node identity, binder depth, and the de Bruijn
#: levels of the node's free variables.  Values keep their nodes alive.
_TERM_ENC_CACHE: dict[tuple, tuple] = {}
_FORMULA_ENC_CACHE: dict[tuple, tuple] = {}
_ENC_CACHE_LIMIT = 500_000


def _enc_key(node, names, env: Env, depth: int) -> tuple:
    positions = tuple(sorted((name, env[name]) for name in names
                             if name in env))
    return (id(node), depth, positions)


def encode_term(term: Term, env: Env, depth: int) -> LfTerm:
    """Encode a logic term; ``env``/``depth`` track LF binders in scope.
    Memoized and sharing-preserving (see the cache note above)."""
    if isinstance(term, Int):
        return LfInt(term.value)
    if isinstance(term, Var):
        return _var_ref(term.name, env, depth)
    if isinstance(term, App):
        from repro.logic.terms import term_vars
        key = _enc_key(term, term_vars(term), env, depth)
        cached = _TERM_ENC_CACHE.get(key)
        if cached is not None:
            return cached[1]
        head = LfConst(term.op)
        result = lf_app(head, *(encode_term(arg, env, depth)
                                for arg in term.args))
        if len(_TERM_ENC_CACHE) >= _ENC_CACHE_LIMIT:
            _TERM_ENC_CACHE.clear()
        _TERM_ENC_CACHE[key] = (term, result)
        return result
    raise LfError(f"not a logic term: {term!r}")


def encode_formula(formula: Formula, env: Env, depth: int) -> LfTerm:
    """Encode a formula as an LF object of type ``form`` (memoized)."""
    if isinstance(formula, Truth):
        return LfConst("true")
    if isinstance(formula, Falsity):
        return LfConst("false")
    from repro.logic.formulas import formula_vars
    key = _enc_key(formula, formula_vars(formula), env, depth)
    cached = _FORMULA_ENC_CACHE.get(key)
    if cached is not None:
        return cached[1]
    result = _encode_formula_node(formula, env, depth)
    if len(_FORMULA_ENC_CACHE) >= _ENC_CACHE_LIMIT:
        _FORMULA_ENC_CACHE.clear()
    _FORMULA_ENC_CACHE[key] = (formula, result)
    return result


def _encode_formula_node(formula: Formula, env: Env, depth: int) -> LfTerm:
    if isinstance(formula, And):
        return lf_app(LfConst("and"),
                      encode_formula(formula.left, env, depth),
                      encode_formula(formula.right, env, depth))
    if isinstance(formula, Or):
        return lf_app(LfConst("or"),
                      encode_formula(formula.left, env, depth),
                      encode_formula(formula.right, env, depth))
    if isinstance(formula, Implies):
        return lf_app(LfConst("imp"),
                      encode_formula(formula.left, env, depth),
                      encode_formula(formula.right, env, depth))
    if isinstance(formula, Forall):
        memory = is_memory_var(formula.var)
        quantifier = "allm" if memory else "all"
        sort = _MEM if memory else _TM
        inner_env = dict(env)
        inner_env[formula.var] = depth
        body = encode_formula(formula.body, inner_env, depth + 1)
        return LfApp(LfConst(quantifier), LfLam(sort, body,
                                                hint=formula.var))
    if isinstance(formula, Atom):
        return lf_app(LfConst(formula.pred),
                      *(encode_term(arg, env, depth)
                        for arg in formula.args))
    raise LfError(f"not a formula: {formula!r}")


def decode_logic_term(term: LfTerm, _memo: dict | None = None) -> Term:
    """Partial inverse of :func:`encode_term` for side conditions.

    Bound LF variables become logic variables named ``%<index>`` — a
    consistent renaming within a single side-condition call, which is all
    structural checks need.  Raises :class:`LfError` on lambdas or unknown
    heads, which a side condition treats as failure (conservative).
    Memoized per call by node identity, so a shared LF node decodes to
    one shared logic node.
    """
    if isinstance(term, LfInt):
        return Int(term.value)
    if isinstance(term, LfVar):
        return Var(f"%{term.index}")
    memo = _memo if _memo is not None else {}
    cached = memo.get(id(term))
    if cached is not None:
        return cached
    head, args = spine(term)
    if isinstance(head, LfConst):
        if head.name in STATE_CONSTANTS and not args:
            return Var(head.name)
        if head.name in OPS:
            expected = OPS[head.name].arity
            if len(args) != expected:
                raise LfError(
                    f"operator {head.name!r} applied to {len(args)} "
                    f"arguments, expected {expected}")
            result = memo[id(term)] = App(
                head.name, tuple(decode_logic_term(arg, memo)
                                 for arg in args))
            return result
    raise LfError(f"cannot decode LF term {term!r} as a logic term")


def _bound_name(level: int, memories: int) -> str:
    """The canonical name of the quantifier bound at binder ``level``."""
    return f"rm${level}" if memories >> level & 1 else f"v{level}"


def decode_logic_formula(term: LfTerm, depth: int = 0, memories: int = 0,
                         _memo: dict | None = None) -> Formula:
    """Partial inverse of :func:`encode_formula`.

    Quantifiers decode with *canonical* bound-variable names derived from
    the binder depth (``v<depth>`` for individuals, ``rm$<depth>`` for
    memories); certification round-trips invariants through this decoder
    so producer and consumer compute structurally identical safety
    predicates regardless of the names the producer originally used.
    The scope is therefore ``depth`` plus ``memories``, with bit ``level``
    set for each enclosing ``allm``.  Memoized per call by node identity
    and scope, formulas and terms apart, so a shared LF node decodes to
    one shared logic node.
    """
    if term == LfConst("true"):
        return Truth()
    if term == LfConst("false"):
        return Falsity()
    memo = _memo if _memo is not None else {}
    key = (id(term), depth, memories, "form")
    cached = memo.get(key)
    if cached is not None:
        return cached
    head, args = spine(term)
    name = head.name if isinstance(head, LfConst) else None
    if name in _CONNECTIVES and len(args) == 2:
        result = _CONNECTIVES[name](
            decode_logic_formula(args[0], depth, memories, memo),
            decode_logic_formula(args[1], depth, memories, memo))
    elif name in PREDICATES:
        result = Atom(name, tuple(
            _decode_term_scoped(arg, depth, memories, memo) for arg in args))
    elif name in ("all", "allm") and len(args) == 1:
        body_lam = args[0]
        if not isinstance(body_lam, LfLam):
            raise LfError("quantifier body must be a lambda")
        if name == "allm":
            memories |= 1 << depth
        body = decode_logic_formula(body_lam.body, depth + 1, memories, memo)
        result = Forall(_bound_name(depth, memories), body)
    else:
        raise LfError(f"cannot decode LF term {term!r} as a formula")
    memo[key] = result
    return result


def _decode_term_scoped(term: LfTerm, depth: int, memories: int,
                        memo: dict) -> Term:
    """Decode a term that may mention quantifier-bound variables: those
    bound at a level below ``depth`` get their canonical names."""
    if isinstance(term, LfVar):
        level = depth - term.index - 1
        if level >= 0:
            return Var(_bound_name(level, memories))
        return Var(f"%{term.index}")
    if isinstance(term, LfInt):
        return Int(term.value)
    key = (id(term), depth, memories, "tm")
    cached = memo.get(key)
    if cached is not None:
        return cached
    head, args = spine(term)
    if isinstance(head, LfConst):
        if head.name in STATE_CONSTANTS and not args:
            return Var(head.name)
        if head.name in OPS and len(args) == OPS[head.name].arity:
            result = memo[key] = App(head.name, tuple(
                _decode_term_scoped(arg, depth, memories, memo)
                for arg in args))
            return result
    raise LfError(f"cannot decode LF term {term!r} as a logic term")
