"""Proof steps read off the LF signature, and their encoding as LF objects.

The LF signature (:mod:`repro.lf.signature`) is the published proof
system: each proof constant's Π-type states what the step concludes and
what its premises must prove, and nothing here restates a rule.
:func:`instantiate` reads one step off its constant's type; the prover
builds every step through it and checks it with the constant's own side
condition (:func:`side_condition_holds`), and :func:`encode_proof` folds
it over a proof tree to build the LF object that ships.  The consumer
never runs this: it type-checks that object (:mod:`repro.lf.typecheck`).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import LfError, ProofError
from repro.lf.encode import (
    _CONNECTIVES,
    Env,
    _var_ref,
    encode_formula,
    encode_term,
    is_memory_var,
)
from repro.lf.signature import SIGNATURE
from repro.lf.syntax import (
    LfApp,
    LfConst,
    LfInt,
    LfLam,
    LfPi,
    LfTerm,
    LfVar,
    lf_app,
    spine,
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
    formula_vars,
)
from repro.logic.subst import subst_formula
from repro.logic.terms import App, Int, OPS, Term, Var, term_vars
from repro.proof.proofs import Proof

_MEM = LfConst("mem")
_FORM = LfConst("form")
_CERT = LfConst("cert")
_PF = LfConst("pf")

#: LF constant -> the formula class it encodes (the quantifiers aside).
_FORMULAS = {"true": Truth, "false": Falsity, **_CONNECTIVES}
_NAMES = {cls: name for name, cls in _FORMULAS.items()}

#: The level of a premise's own eigenvariable (``Πx:tm. pf (P x)``).
_BOUND = -1


def _is_pf(term: LfTerm) -> bool:
    return isinstance(term, LfApp) and term.fn == _PF


def _pattern(term: LfTerm, levels: list) -> tuple:
    """A formula or term of a Π-type as a pattern over the step's
    arguments.  ``levels`` holds, per enclosing binder (outermost first),
    the index of the argument it binds."""
    head, args = spine(term)
    if isinstance(head, LfVar):
        ref = levels[len(levels) - 1 - head.index]
        if args:
            return ("apply", ref, _pattern(args[0], levels))
        return ("bound",) if ref == _BOUND else ("arg", ref)
    if isinstance(head, LfInt):
        return ("int", head.value)
    return ("const", head.name,
            tuple(_pattern(arg, levels) for arg in args))


class _Telescope(NamedTuple):
    """A proof constant's Π-type, split into its parts."""

    #: The non-proof binders' domains (``tm``, ``form``, ``tm → form``...).
    sorts: tuple
    #: Per premise: ``("plain", A, None)``, ``("hyp", A, B)`` for
    #: ``pf A → pf B`` or ``("eigen", sort, P)`` for ``Πx:sort. pf (P x)``.
    premises: tuple
    conclusion: tuple
    #: Premises that bind a hypothesis label or an eigenvariable.
    binding: int
    #: The match skips ``p t``, so the built conclusion is compared.
    compare: bool


def _telescope(name: str, ty: LfTerm) -> _Telescope | None:
    """The Π-type ``ty`` of the constant ``name``, split into its parts;
    None unless it concludes ``pf``."""
    levels, sorts, premises = [], [], []
    while isinstance(ty, LfPi):
        dom, ty = ty.dom, ty.cod
        if _is_pf(dom):
            premises.append(("plain", _pattern(dom.arg, levels), None))
        elif isinstance(dom, LfPi) and _is_pf(dom.dom):
            premises.append(("hyp", _pattern(dom.dom.arg, levels),
                             _pattern(dom.cod.arg, levels + [None])))
        elif isinstance(dom, LfPi) and _is_pf(dom.cod):
            premises.append(("eigen", dom.dom, _pattern(
                dom.cod.arg, levels + [_BOUND])))
        else:
            # The fold emits the arguments, then the premises.
            assert not premises, f"{name}: a term binder after a premise"
            levels.append(len(sorts))
            sorts.append(dom)
            continue
        levels.append(None)
    if not _is_pf(ty):
        return None
    conclusion = _pattern(ty.arg, levels)
    return _Telescope(tuple(sorts), tuple(premises), conclusion,
                      sum(kind != "plain" for kind, __, __ in premises),
                      _applies(conclusion))


def _applies(pattern: tuple) -> bool:
    """Does ``pattern`` apply a predicate argument to a term?"""
    return pattern[0] == "apply" or (
        pattern[0] == "const" and any(map(_applies, pattern[2])))


#: The signature's proof constants (Π-types concluding ``pf``), in
#: declaration order, each with its parsed type.
_TELESCOPES = {name: telescope for name, entry in SIGNATURE.entries.items()
               if (telescope := _telescope(name, entry.ty)) is not None}
PROOF_CONSTANTS = tuple(_TELESCOPES)


def _split(node) -> tuple[str | None, tuple]:
    """A formula or term as the LF constant that heads its encoding and
    the children it is applied to (a quantifier's is the whole
    :class:`Forall`, its predicate)."""
    if isinstance(node, App):
        return node.op, node.args
    if isinstance(node, Atom):
        return node.pred, node.args
    if isinstance(node, Forall):
        return ("allm" if is_memory_var(node.var) else "all"), (node,)
    if isinstance(node, (And, Or, Implies)):
        return _NAMES[type(node)], (node.left, node.right)
    return _NAMES.get(type(node)), ()


def _match(pattern: tuple, node, args: list) -> bool:
    """First-order match of ``pattern`` against ``node``, binding
    ``args``; a predicate applied to a term matches anything."""
    tag = pattern[0]
    if tag == "arg":
        bound = args[pattern[1]]
        if bound is None:
            args[pattern[1]] = node
            return True
        return bound == node
    if tag == "int":
        return isinstance(node, Int) and node.value == pattern[1]
    if tag == "apply":
        return True
    name, children = _split(node)
    return (name == pattern[1] and len(children) == len(pattern[2])
            and all(_match(part, child, args)
                    for part, child in zip(pattern[2], children)))


def _build(pattern: tuple, args: list, eigen: str | None = None):
    """The formula or term ``pattern`` denotes under ``args``."""
    tag = pattern[0]
    if tag == "arg":
        return args[pattern[1]]
    if tag == "int":
        return Int(pattern[1])
    if tag == "bound":
        return Var(eigen)
    if tag == "apply":
        predicate = args[pattern[1]]
        return subst_formula(predicate.body, {
            predicate.var: _build(pattern[2], args, eigen)})
    __, name, parts = pattern
    built = tuple(_build(part, args, eigen) for part in parts)
    if name in ("all", "allm"):
        return built[0]
    if name in _FORMULAS:
        return _FORMULAS[name](*built)
    return App(name, built) if name in OPS else Atom(name, built)


def _fits(sort: LfTerm, value) -> bool:
    if sort == _FORM:
        return isinstance(value, Formula)
    if sort == _CERT:
        return isinstance(value, tuple)
    if isinstance(sort, LfPi):
        return (isinstance(value, Forall)
                and is_memory_var(value.var) == (sort.dom == _MEM))
    return isinstance(value, Term)


def instantiate(name: str, goal: Formula,
                params: tuple) -> tuple[list, list[tuple]]:
    """Read one proof step off the Π-type of the signature constant
    ``name``: its arguments, in Π order, and its premise obligations.

    The conclusion is matched against ``goal``; the arguments it leaves
    open come from ``params`` in Π order, followed by one hypothesis label
    or eigenvariable name per premise that binds one.  A predicate
    argument is a :class:`Forall`, applied by substituting for its bound
    variable.  An obligation is ``(goal, None, None)``, ``(B, label, A)``
    for ``pf A → pf B`` or ``(P x, x, sort)`` for ``Πx:sort. pf (P x)``.
    Raises :class:`ProofError` when the step does not prove ``goal``.
    """
    telescope = _TELESCOPES.get(name)
    if telescope is None:
        raise ProofError(f"unknown rule {name!r}")
    args: list = [None] * len(telescope.sorts)
    if not _match(telescope.conclusion, goal, args):
        raise ProofError(f"{name}: goal does not match the conclusion")
    open_args = [index for index, value in enumerate(args) if value is None]
    expected = len(open_args) + telescope.binding
    if len(params) != expected:
        raise ProofError(
            f"{name}: expected {expected} parameters, got {len(params)}")
    for index, value in zip(open_args, params):
        if not _fits(telescope.sorts[index], value):
            raise ProofError(f"{name}: parameter {index} has the wrong sort")
        args[index] = value
    names = iter(params[len(open_args):])
    premises = []
    for kind, first, second in telescope.premises:
        if kind == "plain":
            premises.append((_build(first, args), None, None))
            continue
        bound = next(names)
        if not isinstance(bound, str):
            raise ProofError(f"{name}: a binder name must be a string")
        if kind == "hyp":
            premises.append((_build(second, args), bound,
                             _build(first, args)))
        elif bound in formula_vars(goal):
            raise ProofError(
                f"{name}: eigenvariable {bound!r} occurs free in goal")
        else:
            premises.append((_build(second, args, bound), bound, first))
    if telescope.compare and _build(telescope.conclusion, args) != goal:
        raise ProofError(f"{name}: goal is not the stated instantiation")
    return args, premises


def _encode_arg(sort: LfTerm, value, env: Env, depth: int) -> LfTerm:
    """Encode one step argument by its binder's declared sort."""
    if sort == _FORM:
        return encode_formula(value, env, depth)
    if sort == _CERT:
        certificate: LfTerm = LfConst("cnil")
        for weight in reversed(value):
            certificate = lf_app(LfConst("ccons"), LfInt(weight),
                                 certificate)
        return certificate
    if isinstance(sort, LfPi):
        inner = {**env, value.var: depth}
        return LfLam(sort.dom, encode_formula(value.body, inner, depth + 1),
                     hint=value.var)
    return encode_term(value, env, depth)


def _free_names(value) -> frozenset:
    if isinstance(value, Term):
        return term_vars(value)
    if isinstance(value, Formula):
        return formula_vars(value)
    return frozenset()


def side_condition_holds(name: str, args: list) -> bool:
    """Run the side condition of ``name`` (if any) on a step's arguments,
    encoded as the consumer sees them.  Free variables are bound in sorted
    order, so the check is exactly the consumer's."""
    entry = SIGNATURE.entries[name]
    if entry.side_condition is None:
        return True
    names = sorted(frozenset().union(*map(_free_names, args)))
    env = {free: level for level, free in enumerate(names)}
    return entry.side_condition([
        _encode_arg(sort, value, env, len(names))
        for sort, value in zip(_TELESCOPES[name].sorts, args)])


def references(proof: Proof, memo: dict) -> tuple:
    """(hypothesis labels, variable names, proof) referenced anywhere in
    ``proof``, from ``hyp`` steps and from step parameters; computed once
    per node, bottom-up, into ``memo`` (keyed by node identity, each value
    keeping its node alive)."""
    cached = memo.get(id(proof))
    if cached is None:
        labels = frozenset(proof.params[:1] if proof.rule == "hyp" else ())
        names = frozenset().union(*map(_free_names, proof.params))
        for premise in proof.premises:
            premise_labels, premise_names, __ = references(premise, memo)
            labels |= premise_labels
            names |= premise_names
        cached = memo[id(proof)] = (labels, names, proof)
    return cached


class _ProofEncoder:
    """Encodes a proof tree as a fold over :func:`instantiate`.

    Encoding is memoized per (proof identity, goal, binder depth, and the
    de Bruijn positions and formulas of the hypotheses, and the positions
    of the variables, the subproof references): proofs are DAGs
    (join-point subproofs shared across branch arms), and re-encoding per
    path would be exponential.  A memo hit checks nothing, so the key
    holds the formulas of the hypotheses the subproof uses.
    """

    def __init__(self) -> None:
        self._memo: dict = {}
        self._refs: dict = {}

    def encode(self, proof: Proof, goal: Formula, env: Env,
               hyp_env: Env, hyp_forms: dict[str, Formula],
               depth: int) -> LfTerm:
        used_labels, used_names, __ = references(proof, self._refs)
        hyp_positions = tuple(sorted(
            (label, hyp_env[label], hyp_forms[label])
            for label in used_labels if label in hyp_env))
        relevant = used_names | formula_vars(goal)
        var_positions = tuple(sorted(
            (name, env[name]) for name in relevant if name in env))
        key = (id(proof), goal, depth, hyp_positions, var_positions)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = self._encode(
                proof, goal, env, hyp_env, hyp_forms, depth)
        return cached

    def _encode(self, proof: Proof, goal: Formula, env: Env,
                hyp_env: Env, hyp_forms: dict[str, Formula],
                depth: int) -> LfTerm:
        rule = proof.rule
        if rule == "hyp":
            label = proof.params[0] if len(proof.params) == 1 else None
            if not isinstance(label, str) or hyp_forms.get(label) != goal:
                raise LfError(f"cannot encode invalid proof: hypothesis "
                              f"{label!r} is out of scope or does not "
                              f"match the goal")
            return _var_ref(label, hyp_env, depth)
        telescope = _TELESCOPES.get(rule)
        if telescope is None:
            raise LfError(f"cannot encode unknown rule {rule!r}")
        try:
            args, obligations = instantiate(rule, goal, proof.params)
        except ProofError as error:
            raise LfError(f"cannot encode invalid proof: {error}") from error
        if len(obligations) != len(proof.premises):
            raise LfError(f"rule {rule!r}: premise count mismatch")
        encoded = [_encode_arg(sort, value, env, depth)
                   for sort, value in zip(telescope.sorts, args)]
        for premise, (subgoal, name, assumed) in zip(proof.premises,
                                                     obligations):
            if name is None:
                encoded.append(self.encode(premise, subgoal, env, hyp_env,
                                           hyp_forms, depth))
                continue
            inner_env, inner_hyps, inner_forms = env, hyp_env, hyp_forms
            if isinstance(assumed, Formula):  # pf A → pf B
                if name in hyp_env:
                    raise LfError(f"cannot encode invalid proof: hypothesis "
                                  f"label {name!r} already in scope")
                domain = LfApp(_PF, encode_formula(assumed, env, depth))
                inner_hyps = {**hyp_env, name: depth}
                inner_forms = {**hyp_forms, name: assumed}
            else:  # Πx:sort. pf (P x)
                if any(name in formula_vars(formula)
                       for formula in hyp_forms.values()):
                    raise LfError(f"cannot encode invalid proof: "
                                  f"eigenvariable {name!r} occurs in a "
                                  f"hypothesis")
                domain, inner_env = assumed, {**env, name: depth}
            body = self.encode(premise, subgoal, inner_env, inner_hyps,
                               inner_forms, depth + 1)
            encoded.append(LfLam(domain, body, hint=name))
        return lf_app(LfConst(rule), *encoded)


def encode_proof(proof: Proof, goal: Formula) -> LfTerm:
    """Encode a closed proof of ``goal`` as an LF object.

    Every step is read off its constant's Π-type against the goal it must
    prove, so a proof of another goal, an unknown constant, a wrong
    premise count or a hypothesis out of scope raise :class:`LfError`.
    Side conditions are the prover's and the consumer's to check.  The
    result's LF type is ``pf (encode_formula(goal))``.
    """
    return _ProofEncoder().encode(proof, goal, {}, {}, {}, 0)
