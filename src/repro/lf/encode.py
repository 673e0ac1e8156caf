"""Encoding between the logic/proof layer and LF objects.

Three jobs:

* :func:`encode_term` / :func:`encode_formula` — map logic terms and
  formulas to LF objects (registers and eigenvariables become LF bound
  variables; there are two quantifiers, ``all`` over individuals and
  ``allm`` over memory states, selected by the variable's sort);
* :func:`encode_proof` — map a natural-deduction proof to an LF object
  whose type is ``pf (encoding of the goal)``; the encoder replays the
  rule functions from :mod:`repro.proof.rules` to learn each premise's
  goal, so it stays mechanically in sync with the checker;
* :func:`decode_logic_term` / :func:`decode_logic_formula` — the partial
  inverse used by the signature's side conditions (bound LF variables
  decode to synthetic ``%i`` logic variables, which is sufficient because
  side conditions only compare structure and literals).
"""

from __future__ import annotations

from repro.errors import LfError, ProofError
from repro.logic.formulas import (
    And,
    Atom,
    Falsity,
    Forall,
    Formula,
    Implies,
    Or,
    Truth,
    conj,
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
from repro.proof.proofs import Proof
from repro.proof.rules import RULES

_TM = LfConst("tm")
_MEM = LfConst("mem")
_PF = LfConst("pf")

_CONNECTIVES = {"and": And, "or": Or, "imp": Implies}
_PREDICATES = ("eq", "ne", "lt", "le", "gt", "ge", "rd", "wr")

#: Machine-state variables encodable as LF constants when free.  Loop
#: invariants are *open* formulas over the registers (they are closed by
#: the VC generator, not by the invariant itself), so the wire encoding
#: maps a free register to the corresponding signature constant.
STATE_CONSTANTS = tuple(f"r{i}" for i in range(11)) + ("rm",)


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


def _pf(formula_lf: LfTerm) -> LfTerm:
    return LfApp(_PF, formula_lf)


def decode_logic_term(term: LfTerm) -> Term:
    """Partial inverse of :func:`encode_term` for side conditions.

    Bound LF variables become logic variables named ``%<index>`` — a
    consistent renaming within a single side-condition call, which is all
    structural checks need.  Raises :class:`LfError` on lambdas or unknown
    heads, which a side condition treats as failure (conservative).
    """
    if isinstance(term, LfInt):
        return Int(term.value)
    if isinstance(term, LfVar):
        return Var(f"%{term.index}")
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
            return App(head.name,
                       tuple(decode_logic_term(arg) for arg in args))
    raise LfError(f"cannot decode LF term {term!r} as a logic term")


def decode_logic_formula(term: LfTerm, depth: int = 0,
                         env: dict[int, str] | None = None) -> Formula:
    """Partial inverse of :func:`encode_formula`.

    Quantifiers decode with *canonical* bound-variable names derived from
    the binder depth (``v<depth>`` for individuals, ``rm$<depth>`` for
    memories); certification round-trips invariants through this decoder
    so producer and consumer compute structurally identical safety
    predicates regardless of the names the producer originally used.
    """
    bound = env or {}

    def term_in_scope(lf: LfTerm) -> Term:
        return _decode_term_scoped(lf, depth, bound)

    if term == LfConst("true"):
        return Truth()
    if term == LfConst("false"):
        return Falsity()
    head, args = spine(term)
    if isinstance(head, LfConst):
        if head.name in _CONNECTIVES and len(args) == 2:
            ctor = _CONNECTIVES[head.name]
            return ctor(decode_logic_formula(args[0], depth, bound),
                        decode_logic_formula(args[1], depth, bound))
        if head.name in _PREDICATES:
            return Atom(head.name, tuple(term_in_scope(a) for a in args))
        if head.name in ("all", "allm") and len(args) == 1:
            body_lam = args[0]
            if not isinstance(body_lam, LfLam):
                raise LfError("quantifier body must be a lambda")
            name = f"rm${depth}" if head.name == "allm" else f"v{depth}"
            inner = dict(bound)
            inner[depth] = name
            body = decode_logic_formula(body_lam.body, depth + 1, inner)
            return Forall(name, body)
    raise LfError(f"cannot decode LF term {term!r} as a formula")


def _decode_term_scoped(term: LfTerm, depth: int,
                        env: dict[int, str]) -> Term:
    """Decode a term that may mention quantifier-bound variables; ``env``
    maps binder *level* to the canonical variable name."""
    if isinstance(term, LfVar):
        level = depth - term.index - 1
        if level in env:
            return Var(env[level])
        return Var(f"%{term.index}")
    if isinstance(term, LfInt):
        return Int(term.value)
    head, args = spine(term)
    if isinstance(head, LfConst):
        if head.name in STATE_CONSTANTS and not args:
            return Var(head.name)
        if head.name in OPS and len(args) == OPS[head.name].arity:
            return App(head.name,
                       tuple(_decode_term_scoped(arg, depth, env)
                             for arg in args))
    raise LfError(f"cannot decode LF term {term!r} as a logic term")


def _proof_references(proof: Proof, cache: dict) -> tuple:
    """(hypothesis labels, variable names) referenced anywhere in
    ``proof`` — from hyp rules and from rule parameters (witness terms,
    templates, premise atoms).  DAG-aware and cached per node."""
    from repro.logic.formulas import (
        And as _And, Atom as _Atom, Falsity as _F, Forall as _Fa,
        Implies as _Imp, Or as _Or, Truth as _T, formula_vars,
    )
    from repro.logic.terms import App as _App, Int as _Int, Var as _Var
    from repro.logic.terms import term_vars

    cached = cache.get(id(proof))
    if cached is not None:
        return cached
    labels: set[str] = set()
    names: set[str] = set()
    seen: set[int] = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.rule == "hyp" and node.params:
            labels.add(node.params[0])
        for param in node.params:
            if isinstance(param, (_Int, _Var, _App)):
                names |= term_vars(param)
            elif isinstance(param, (_T, _F, _And, _Or, _Imp, _Fa, _Atom)):
                names |= formula_vars(param)
        stack.extend(node.premises)
    result = (frozenset(labels), frozenset(names))
    cache[id(proof)] = result
    return result


class _ProofEncoder:
    """Encodes a checked proof tree bottom-up, replaying the rule functions
    to learn premise goals (exactly what the Delta checker does).

    Encoding is memoized per (proof identity, goal, binder depth, and the
    de Bruijn positions of the hypotheses and variables the subproof
    references): proofs are DAGs (join-point subproofs shared across
    branch arms), and re-encoding per path would be exponential.
    """

    def __init__(self) -> None:
        self._memo: dict = {}
        self._labels: dict = {}

    def encode(self, proof: Proof, goal: Formula, env: Env,
               hyp_env: Env, hyp_forms: dict[str, Formula],
               depth: int) -> LfTerm:
        from repro.logic.formulas import formula_vars

        used_labels, used_names = _proof_references(proof, self._labels)
        hyp_positions = tuple(sorted(
            (label, hyp_env[label]) for label in used_labels
            if label in hyp_env))
        relevant = used_names | formula_vars(goal)
        var_positions = tuple(sorted(
            (name, env[name]) for name in relevant if name in env))
        key = (id(proof), goal, depth, hyp_positions, var_positions)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = self._encode(proof, goal, env, hyp_env, hyp_forms, depth)
        self._memo[key] = result
        return result

    def _encode(self, proof: Proof, goal: Formula, env: Env,
                hyp_env: Env, hyp_forms: dict[str, Formula],
                depth: int) -> LfTerm:
        rule = proof.rule
        try:
            obligations = RULES[rule](goal, proof.params, hyp_forms)
        except ProofError as error:
            raise LfError(f"cannot encode invalid proof: {error}") from error
        if len(obligations) != len(proof.premises):
            raise LfError(f"rule {rule!r}: premise count mismatch")

        def F(formula: Formula) -> LfTerm:
            return encode_formula(formula, env, depth)

        def T(term: Term) -> LfTerm:
            return encode_term(term, env, depth)

        def P(index: int) -> LfTerm:
            subgoal, extra = obligations[index]
            if extra:
                raise LfError(f"rule {rule!r}: unexpected hypothetical "
                              f"premise in plain position")
            return self.encode(proof.premises[index], subgoal, env,
                               hyp_env, hyp_forms, depth)

        if rule == "truei":
            return LfConst("truei")
        if rule == "hyp":
            label = proof.params[0]
            return _var_ref(label, hyp_env, depth)
        if rule == "andi":
            assert isinstance(goal, And)
            return lf_app(LfConst("andi"), F(goal.left), F(goal.right),
                          P(0), P(1))
        if rule == "andel":
            right = proof.params[0]
            return lf_app(LfConst("andel"), F(goal), F(right), P(0))
        if rule == "ander":
            left = proof.params[0]
            return lf_app(LfConst("ander"), F(left), F(goal), P(0))
        if rule == "impi":
            assert isinstance(goal, Implies)
            label = proof.params[0]
            inner_hyp_env = dict(hyp_env)
            inner_hyp_env[label] = depth
            inner_forms = dict(hyp_forms)
            inner_forms[label] = goal.left
            body = self.encode(proof.premises[0], goal.right, env,
                               inner_hyp_env, inner_forms, depth + 1)
            return lf_app(LfConst("impi"), F(goal.left), F(goal.right),
                          LfLam(_pf(F(goal.left)), body, hint=label))
        if rule == "impe":
            antecedent = proof.params[0]
            return lf_app(LfConst("impe"), F(antecedent), F(goal),
                          P(0), P(1))
        if rule == "alli":
            assert isinstance(goal, Forall)
            eigen = proof.params[0]
            memory = is_memory_var(goal.var)
            quantifier = "alli_m" if memory else "alli"
            sort = _MEM if memory else _TM
            body_env = dict(env)
            body_env[goal.var] = depth
            predicate = LfLam(
                sort, encode_formula(goal.body, body_env, depth + 1),
                hint=goal.var)
            subgoal, __ = obligations[0]
            inner_env = dict(env)
            inner_env[eigen] = depth
            body = self.encode(proof.premises[0], subgoal, inner_env,
                               hyp_env, hyp_forms, depth + 1)
            return lf_app(LfConst(quantifier), predicate,
                          LfLam(sort, body, hint=eigen))
        if rule == "alle":
            source, witness = proof.params
            assert isinstance(source, Forall)
            memory = is_memory_var(source.var)
            quantifier = "alle_m" if memory else "alle"
            sort = _MEM if memory else _TM
            body_env = dict(env)
            body_env[source.var] = depth
            predicate = LfLam(
                sort, encode_formula(source.body, body_env, depth + 1),
                hint=source.var)
            return lf_app(LfConst(quantifier), predicate, T(witness), P(0))
        if rule == "ori1":
            assert isinstance(goal, Or)
            return lf_app(LfConst("ori1"), F(goal.left), F(goal.right),
                          P(0))
        if rule == "ori2":
            assert isinstance(goal, Or)
            return lf_app(LfConst("ori2"), F(goal.left), F(goal.right),
                          P(0))
        if rule == "ore":
            left, right = proof.params
            return lf_app(LfConst("ore"), F(left), F(right), F(goal),
                          P(0), P(1), P(2))
        if rule == "falsee":
            return lf_app(LfConst("falsee"), F(goal), P(0))
        if rule == "eqrefl":
            assert isinstance(goal, Atom)
            return lf_app(LfConst("eqrefl"), T(goal.args[0]))
        if rule == "eqsym":
            assert isinstance(goal, Atom)
            a, b = goal.args
            return lf_app(LfConst("eqsym"), T(b), T(a), P(0))
        if rule == "eqtrans":
            assert isinstance(goal, Atom)
            middle = proof.params[0]
            a, b = goal.args
            return lf_app(LfConst("eqtrans"), T(a), T(middle), T(b),
                          P(0), P(1))
        if rule == "eqsub":
            template, hole, a, b = proof.params
            body_env = dict(env)
            body_env[hole] = depth
            predicate = LfLam(
                _TM, encode_formula(template, body_env, depth + 1),
                hint=hole)
            return lf_app(LfConst("eqsub"), predicate, T(a), T(b),
                          P(0), P(1))
        if rule == "arith_eval":
            return lf_app(LfConst("arith_eval"), F(goal))
        if rule == "mod_word":
            assert isinstance(goal, Atom)
            return lf_app(LfConst("mod_word"), T(goal.args[1]))
        if rule == "norm_mod_eq":
            assert isinstance(goal, Atom)
            left, right = goal.args
            assert isinstance(left, App) and isinstance(right, App)
            return lf_app(LfConst("norm_mod_eq"), T(left.args[0]),
                          T(right.args[0]))
        if rule == "word_ge0":
            assert isinstance(goal, Atom)
            return lf_app(LfConst("word_ge0"), T(goal.args[0]))
        if rule == "word_lt_mod":
            assert isinstance(goal, Atom)
            return lf_app(LfConst("word_lt_mod"), T(goal.args[0]))
        if rule in ("cmpult_true", "cmpult_false", "cmpule_true",
                    "cmpule_false", "cmpeq_true", "cmpeq_false"):
            a, b = proof.params
            return lf_app(LfConst(rule), T(a), T(b), P(0))
        if rule in ("add64_exact", "sub64_exact"):
            assert isinstance(goal, Atom)
            machine = goal.args[0]
            assert isinstance(machine, App)
            a, b = machine.args
            return lf_app(LfConst(rule), T(a), T(b), P(0), P(1), P(2))
        if rule == "and_ubound":
            assert isinstance(goal, Atom)
            masked = goal.args[0]
            assert isinstance(masked, App)
            return lf_app(LfConst(rule), T(masked.args[0]),
                          T(masked.args[1]))
        if rule == "and_mask_disjoint":
            assert isinstance(goal, Atom)
            outer = goal.args[0]
            assert isinstance(outer, App)
            inner = outer.args[0]
            assert isinstance(inner, App)
            return lf_app(LfConst(rule), T(inner.args[0]),
                          T(inner.args[1]), T(outer.args[1]))
        if rule == "add_align":
            assert isinstance(goal, Atom)
            masked = goal.args[0]
            assert isinstance(masked, App)
            summed = masked.args[0]
            assert isinstance(summed, App)
            return lf_app(LfConst(rule), T(summed.args[0]),
                          T(summed.args[1]), T(masked.args[1]), P(0), P(1))
        if rule == "srl_bound":
            assert isinstance(goal, Atom)
            shifted = goal.args[0]
            assert isinstance(shifted, App)
            return lf_app(LfConst(rule), T(shifted.args[0]),
                          T(shifted.args[1]), T(goal.args[1]))
        if rule == "ext_bound":
            assert isinstance(goal, Atom)
            extracted = goal.args[0]
            assert isinstance(extracted, App)
            constant = LfConst(f"{extracted.op}_bound")
            return lf_app(constant, T(extracted.args[0]),
                          T(extracted.args[1]), T(goal.args[1]))
        if rule == "sll_align":
            assert isinstance(goal, Atom)
            masked = goal.args[0]
            assert isinstance(masked, App)
            shifted = masked.args[0]
            assert isinstance(shifted, App)
            return lf_app(LfConst(rule), T(shifted.args[0]),
                          T(shifted.args[1]), T(masked.args[1]))
        if rule == "sll_ubound":
            assert isinstance(goal, Atom)
            shifted = goal.args[0]
            assert isinstance(shifted, App)
            a, k = shifted.args
            m = proof.params[0]
            return lf_app(LfConst(rule), T(a), T(k), T(m),
                          T(goal.args[1]), P(0), P(1))
        if rule == "shift_trunc_le":
            assert isinstance(goal, Atom)
            shifted = goal.args[0]
            assert isinstance(shifted, App)
            inner, k = shifted.args
            assert isinstance(inner, App)
            return lf_app(LfConst(rule), T(inner.args[0]), T(k))
        if rule == "sll_lt_of_srl":
            assert isinstance(goal, Atom)
            shifted = goal.args[0]
            assert isinstance(shifted, App)
            a, k = shifted.args
            b = proof.params[0]
            return lf_app(LfConst(rule), T(a), T(k), T(b), P(0))
        if rule == "or_disjoint":
            assert isinstance(goal, Atom)
            ored = goal.args[0]
            assert isinstance(ored, App)
            masked, b = ored.args
            assert isinstance(masked, App)
            x, c = masked.args
            return lf_app(LfConst(rule), T(x), T(c), T(b), P(0))
        if rule == "and_submask":
            assert isinstance(goal, Atom)
            masked = goal.args[0]
            assert isinstance(masked, App)
            a, narrow = masked.args
            wide = proof.params[0]
            return lf_app(LfConst(rule), T(a), T(wide), T(narrow), P(0))
        if rule in ("sel_upd_same", "sel_upd_other"):
            assert isinstance(goal, Atom)
            read = goal.args[0]
            assert isinstance(read, App)
            updated, read_addr = read.args
            assert isinstance(updated, App)
            memory, write_addr, value = updated.args
            return lf_app(LfConst(rule), encode_term(memory, env, depth),
                          T(write_addr), T(value), T(read_addr), P(0))
        if rule == "cmp_bool":
            assert isinstance(goal, Or)
            zero_side = goal.left
            assert isinstance(zero_side, Atom)
            flag = zero_side.args[0]
            assert isinstance(flag, App)
            return lf_app(LfConst(f"{flag.op}_bool"),
                          T(flag.args[0]), T(flag.args[1]))
        if rule == "linarith":
            premises = list(proof.params[:-1])
            certificate = LfConst("cnil")
            for weight in reversed(proof.params[-1]):
                certificate = lf_app(LfConst("ccons"), LfInt(weight),
                                     certificate)
            conj_proof = self._conjunction_proof(
                premises, [P(i) for i in range(len(premises))], env, depth)
            return lf_app(LfConst("linarith"), F(conj(premises)), F(goal),
                          certificate, conj_proof)
        raise LfError(f"no LF encoding for rule {rule!r}")

    def _conjunction_proof(self, formulas: list[Formula],
                           proofs: list[LfTerm], env: Env,
                           depth: int) -> LfTerm:
        """Combine proofs of each formula into a proof of their right-nested
        conjunction, mirroring :func:`repro.logic.formulas.conj`."""
        if not formulas:
            return LfConst("truei")
        if len(formulas) == 1:
            return proofs[0]
        rest = conj(formulas[1:])
        rest_proof = self._conjunction_proof(formulas[1:], proofs[1:],
                                             env, depth)
        return lf_app(LfConst("andi"),
                      encode_formula(formulas[0], env, depth),
                      encode_formula(rest, env, depth),
                      proofs[0], rest_proof)


def encode_proof(proof: Proof, goal: Formula) -> LfTerm:
    """Encode a closed proof of ``goal`` as an LF object.

    The proof must be valid (the encoder replays the rule functions and
    fails otherwise) — run :func:`repro.proof.check_proof` first if in
    doubt.  The result's LF type is ``pf (encode_formula(goal))``.
    """
    return _ProofEncoder().encode(proof, goal, {}, {}, {}, 0)
