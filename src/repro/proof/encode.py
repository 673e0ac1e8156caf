"""Encoding natural-deduction proofs as LF objects (the producer's side).

:func:`encode_proof` maps a proof of a goal to an LF object whose type is
``pf (encoding of the goal)``.  It replays the rule functions of
:mod:`repro.proof.rules` top-down to learn each premise's goal, so it stays
mechanically in sync with the rule set, and every proof the producer ships
has been replayed rule by rule.  The consumer never runs this: it
type-checks the LF object it receives (:mod:`repro.lf.typecheck`).
"""

from __future__ import annotations

from repro.errors import LfError, ProofError
from repro.lf.encode import (
    Env,
    _var_ref,
    encode_formula,
    encode_term,
    is_memory_var,
)
from repro.lf.syntax import LfApp, LfConst, LfInt, LfLam, LfTerm, lf_app
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
    formula_vars,
)
from repro.logic.terms import App, Int, Term, Var, term_vars
from repro.proof.proofs import Proof
from repro.proof.rules import RULES

_TM = LfConst("tm")
_MEM = LfConst("mem")
_PF = LfConst("pf")


def _pf(formula_lf: LfTerm) -> LfTerm:
    return LfApp(_PF, formula_lf)


def _proof_references(proof: Proof, cache: dict) -> tuple:
    """(hypothesis labels, variable names) referenced anywhere in
    ``proof`` — from hyp rules and from rule parameters (witness terms,
    templates, premise atoms).  DAG-aware and cached per node."""
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
            if isinstance(param, (Int, Var, App)):
                names |= term_vars(param)
            elif isinstance(param, (Truth, Falsity, And, Or, Implies,
                                    Forall, Atom)):
                names |= formula_vars(param)
        stack.extend(node.premises)
    result = (frozenset(labels), frozenset(names))
    cache[id(proof)] = result
    return result


class _ProofEncoder:
    """Encodes a proof tree, replaying the rule functions top-down to learn
    premise goals (exactly what the Delta checker does).

    Encoding is memoized per (proof identity, goal, binder depth, and the
    de Bruijn positions and formulas of the hypotheses, and the positions
    of the variables, the subproof references): proofs are DAGs
    (join-point subproofs shared across branch arms), and re-encoding per
    path would be exponential.  A memo hit replays nothing, so, as in the
    Delta checker's memo, the key holds the formulas of the hypotheses
    the subproof uses.
    """

    def __init__(self) -> None:
        self._memo: dict = {}
        self._labels: dict = {}

    def encode(self, proof: Proof, goal: Formula, env: Env,
               hyp_env: Env, hyp_forms: dict[str, Formula],
               depth: int) -> LfTerm:
        used_labels, used_names = _proof_references(proof, self._labels)
        hyp_positions = tuple(sorted(
            (label, hyp_env[label], hyp_forms[label])
            for label in used_labels if label in hyp_env))
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
        check = RULES.get(rule)
        if check is None:
            raise LfError(f"cannot encode unknown rule {rule!r}")
        try:
            obligations = check(goal, proof.params, hyp_forms)
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

    The encoder replays every rule application top-down, so a proof of
    another goal, an unknown rule, a wrong premise count or parameters a
    rule rejects raise :class:`LfError`.  The result's LF type is
    ``pf (encode_formula(goal))``.
    """
    return _ProofEncoder().encode(proof, goal, {}, {}, {}, 0)
