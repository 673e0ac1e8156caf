"""Goal-directed proof search over the rule set Delta.

The prover maintains a *fact database*: formulas currently known, each
paired with the proof that derives it from the hypotheses in scope.
Implications and quantifiers in the goal are introduced structurally;
hypotheses are decomposed on assumption (conjunctions split, Alpha compare
flags saturated into their arithmetic meaning); atoms are discharged by the
strategies described in each ``_prove_*`` method.

Design constraints worth knowing:

* **Determinism** — certification must be reproducible, so candidate facts
  are tried in sorted pretty-printed order and fresh names come from a
  counter.
* **Every step is validated immediately** — schemas are applied through
  :func:`_apply`, which runs the trusted rule function and proves the
  side obligations recursively; the prover therefore cannot emit a proof
  the checker would reject.
* **Failure is cheap** — strategies raise/return None and the next one
  runs; :class:`repro.errors.ProverError` surfaces only at the top with
  the unprovable subgoal, which in practice points at the offending
  instruction (the paper: the prover "requires intervention from the
  programmer, mainly to learn new axioms about arithmetic").
"""

from __future__ import annotations

import itertools
import math

from repro.errors import ProofError, ProverError
from repro.lf.arith import _constraints_of, _linear_form, linarith_rows
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
    ge,
    le,
    lt,
)
from repro.logic.pretty import pp_formula, pp_term
from repro.logic.subst import subst_formula
from repro.logic.terms import (
    App,
    Int,
    Term,
    Var,
    WORD_MOD,
    all_subterms,
)
from repro.proof.proofs import Proof
from repro.proof.rules import RULES
from repro.prover.arith import (
    is_linear_atom,
    is_word_valued,
    linear_difference,
    match_term,
)

_MAX_DEPTH = 160
_HOLE = "?hole"

#: Saturation of Alpha compare-flag hypotheses into arithmetic facts:
#: (flag operator, hypothesis predicate) -> rule name.
_FLAG_RULES = {
    ("cmpult", "ne"): "cmpult_true",
    ("cmpult", "eq"): "cmpult_false",
    ("cmpule", "ne"): "cmpule_true",
    ("cmpule", "eq"): "cmpule_false",
    ("cmpeq", "ne"): "cmpeq_true",
    ("cmpeq", "eq"): "cmpeq_false",
}


def _constant_value(term: Term) -> int | None:
    """The constant a word-valued compound term always evaluates to, if
    its linear normal form modulo 2^64 is constant; None otherwise."""
    if not is_word_valued(term):
        return None
    form = _linear_form(term, WORD_MOD)
    if not form:
        return 0
    if set(form) == {None}:
        return form[None]
    return None


def _linear_atoms_of(atom: Atom) -> frozenset[Term]:
    """The opaque atoms of the comparison's linear decomposition."""
    found: set[Term] = set()
    for arg in atom.args:
        found.update(key for key in _linear_form(arg, None)
                     if key is not None)
    return frozenset(found)


def _connected_premises(goal: Atom,
                        candidates: dict[Atom, "Proof"],
                        ) -> dict[Atom, "Proof"]:
    """Premises transitively connected to the goal via shared linear atoms.

    Unconnected facts cannot participate in a Fourier-Motzkin refutation of
    the goal's negation (they only combine with each other), so dropping
    them is complete — and essential for performance.
    """
    reachable = set(_linear_atoms_of(goal))
    remaining = {atom: _linear_atoms_of(atom) for atom in candidates}
    selected: dict[Atom, Proof] = {}
    changed = True
    while changed:
        changed = False
        for atom in list(remaining):
            atoms = remaining[atom]
            if not atoms or atoms & reachable:
                selected[atom] = candidates[atom]
                reachable |= atoms
                del remaining[atom]
                changed = True
    return selected


def _collect_subterms(atoms, into: set) -> None:
    """All subterms of the atoms' arguments, DAG-aware (shared sel-terms
    are enormous; walking them as trees dominated certification)."""
    seen: set[int] = set()
    stack = []
    for atom in atoms:
        stack.extend(atom.args)
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        into.add(term)
        if isinstance(term, App):
            stack.extend(term.args)


def _hyp_labels(proof: Proof) -> frozenset:
    """All hypothesis labels a proof references (shared nodes once)."""
    labels: set[str] = set()
    seen: set[int] = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.rule == "hyp":
            labels.add(node.params[0])
        stack.extend(node.premises)
    return frozenset(labels)


def _replace_term(term: Term, old: Term, new: Term) -> Term:
    """Replace every occurrence of ``old`` in ``term`` by ``new``."""
    if term == old:
        return new
    if isinstance(term, App):
        args = tuple(_replace_term(arg, old, new) for arg in term.args)
        if args != term.args:
            return App(term.op, args)
    return term


#: Fourier-Motzkin gives up rather than build more rows than this.
_FM_ROW_CAP = 4000


def _fm_pick_variable(work: list[tuple[dict, dict]]) -> Term:
    """Deterministic Fourier-Motzkin elimination order: the variable whose
    elimination produces the fewest combined rows (the classic heuristic),
    tie-broken by rendered text.  ``next(iter(set))`` would depend on hash
    randomization and make certification nondeterministic across runs."""
    counts: dict = {}
    for row, __ in work:
        for key, value in row.items():
            if key is None:
                continue
            pos, neg = counts.get(key, (0, 0))
            counts[key] = (pos + 1, neg) if value > 0 else (pos, neg + 1)
    return min(counts,
               key=lambda key: (counts[key][0] * counts[key][1],
                                pp_term(key)))


def _combine(a: dict, scale_a: int, b: dict, scale_b: int) -> dict:
    """``scale_a * a + scale_b * b`` over sparse coefficient maps."""
    merged = {key: value * scale_a for key, value in a.items()}
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value * scale_b
    return merged


def _farkas(rows: list[dict]) -> list[int] | None:
    """A Farkas certificate refuting the rows ``lin <= 0``, or None.

    Fourier-Motzkin elimination in exact integer arithmetic, where every
    row carries its multipliers over the input rows.  Returns the
    multipliers of the derived contradiction ``0 < c <= 0`` that uses the
    fewest input rows, one weight per input row — what the ``linarith``
    rule checks.  None when the rows are satisfiable over the rationals,
    or when elimination would pass :data:`_FM_ROW_CAP` rows.
    """
    work = [(row, {index: 1}) for index, row in enumerate(rows)]
    # Rows hold no zero coefficients, so a variable key means a variable.
    while any(key is not None for row, __ in work for key in row):
        variable = _fm_pick_variable(work)
        positive = [item for item in work if item[0].get(variable, 0) > 0]
        negative = [item for item in work if item[0].get(variable, 0) < 0]
        work = [item for item in work if not item[0].get(variable, 0)]
        for pos, pos_weights in positive:
            for neg, neg_weights in negative:
                if len(work) >= _FM_ROW_CAP:
                    return None
                scale_pos, scale_neg = -neg[variable], pos[variable]
                row = _combine(pos, scale_pos, neg, scale_neg)
                weights = _combine(pos_weights, scale_pos,
                                   neg_weights, scale_neg)
                # Divide out the common factor: the row stays the exact
                # weighted sum, and certificates stay small.
                common = math.gcd(*weights.values())
                work.append(({key: value // common
                              for key, value in row.items() if value},
                             {index: weight // common
                              for index, weight in weights.items()}))
    best = None
    for row, weights in work:
        if row.get(None, 0) > 0 and (best is None or len(weights) < len(best)):
            best = weights
    if best is None:
        return None
    return [best.get(index, 0) for index in range(len(rows))]


class Prover:
    """A fresh prover instance per safety predicate (it carries state)."""

    def __init__(self) -> None:
        self.facts: dict[Formula, Proof] = {}
        self.mod_ids: dict[str, Proof] = {}
        self._labels = itertools.count()
        self._eigens = itertools.count()
        self._fail_cache: set[Formula] = set()
        self._exact_in_progress: set[Term] = set()
        self._flipping = False
        self._sorted_cache: list[Formula] | None = None
        self._contra_cache: bool | None = None
        self._hyp_formulas: dict[str, Formula] = {}
        # goal -> (proof, referenced hypothesis labels).  Never rolled
        # back: an entry is reusable in any scope that still has all the
        # referenced hypotheses (adding hypotheses cannot invalidate a
        # proof, and labels are globally unique).
        self._success_cache: dict[Formula, tuple[Proof, frozenset]] = {}

    # -- public entry ------------------------------------------------------

    def prove(self, goal: Formula) -> Proof:
        """Prove ``goal`` from the current fact database."""
        proof = self._prove(goal, 0)
        if proof is None:
            raise ProverError(f"cannot prove: {pp_formula(goal)}")
        return proof

    # -- context management -------------------------------------------------

    def _snapshot(self) -> tuple:
        return (dict(self.facts), dict(self.mod_ids),
                set(self._fail_cache), dict(self._hyp_formulas))

    def _restore(self, snapshot: tuple) -> None:
        (self.facts, self.mod_ids, self._fail_cache,
         self._hyp_formulas) = snapshot
        self._sorted_cache = None
        self._contra_cache = None

    def _assume(self, formula: Formula, proof: Proof) -> None:
        """Decompose and record a hypothesis."""
        self._fail_cache.clear()
        self._sorted_cache = None
        self._contra_cache = None
        if isinstance(formula, And):
            self._assume(formula.left,
                         Proof("andel", (formula.right,), (proof,)))
            self._assume(formula.right,
                         Proof("ander", (formula.left,), (proof,)))
            return
        if isinstance(formula, Truth):
            return
        self.facts[formula] = proof
        if isinstance(formula, Atom):
            self._saturate_atom(formula, proof)

    def _saturate_atom(self, atom: Atom, proof: Proof) -> None:
        # Register word-identity facts:  r mod 2^64 = r.
        if (atom.pred == "eq" and isinstance(atom.args[1], Var)
                and atom.args[0] == App("mod64", (atom.args[1],))):
            self.mod_ids[atom.args[1].name] = proof
        # Saturate compare-flag facts into their arithmetic meaning.
        if (atom.pred in ("eq", "ne") and atom.args[1] == Int(0)
                and isinstance(atom.args[0], App)):
            flag = atom.args[0]
            rule = _FLAG_RULES.get((flag.op, atom.pred))
            if rule is not None:
                a, b = flag.args
                conclusion = self._flag_conclusion(rule, a, b)
                derived = Proof(rule, (a, b), (proof,))
                self.facts.setdefault(conclusion, derived)

    @staticmethod
    def _flag_conclusion(rule: str, a: Term, b: Term) -> Atom:
        pred = {"cmpult_true": "lt", "cmpult_false": "ge",
                "cmpule_true": "le", "cmpule_false": "gt",
                "cmpeq_true": "eq", "cmpeq_false": "ne"}[rule]
        return Atom(pred, (App("mod64", (a,)), App("mod64", (b,))))

    # -- schema application --------------------------------------------------

    def _apply(self, rule: str, goal: Formula, params: tuple,
               depth: int) -> Proof | None:
        """Apply a rule whose premises the prover must itself prove.

        Runs the trusted rule function to get the premise obligations, then
        proves each recursively.  Returns None (never raises) on failure.
        """
        if depth > _MAX_DEPTH:
            return None
        try:
            obligations = RULES[rule](goal, params, self.facts)
        except ProofError:
            return None
        premises = []
        for subgoal, extra in obligations:
            if extra:
                return None  # schemas never introduce hypotheses
            premise = self._prove(subgoal, depth + 1)
            if premise is None:
                return None
            premises.append(premise)
        return Proof(rule, params, tuple(premises))

    # -- the main dispatcher --------------------------------------------------

    def _prove(self, goal: Formula, depth: int) -> Proof | None:
        if depth > _MAX_DEPTH or goal in self._fail_cache:
            return None

        falsity_proof = self.facts.get(Falsity())
        if falsity_proof is not None and not isinstance(goal, Truth):
            return Proof("falsee", (), (falsity_proof,))

        cached = self._success_cache.get(goal)
        if cached is not None:
            proof, labels = cached
            if all(label in self._hyp_formulas for label in labels):
                return proof

        proof = self._prove_structural(goal, depth)
        if proof is None:
            proof = self._prove_by_cases(goal, depth)
        if proof is None:
            self._fail_cache.add(goal)
        else:
            self._success_cache[goal] = (proof, _hyp_labels(proof))
        return proof

    def _prove_structural(self, goal: Formula, depth: int) -> Proof | None:
        # Structural descent does not consume search budget: connective
        # recursion always shrinks the goal, so only the atom strategies
        # (which genuinely search) count against _MAX_DEPTH.
        if isinstance(goal, Truth):
            return Proof("truei")
        if isinstance(goal, And):
            left = self._prove(goal.left, depth)
            if left is None:
                return None
            right = self._prove(goal.right, depth)
            if right is None:
                return None
            return Proof("andi", (), (left, right))
        if isinstance(goal, Implies):
            label = f"h{next(self._labels)}"
            snapshot = self._snapshot()
            try:
                self._hyp_formulas[label] = goal.left
                self._assume(goal.left, Proof("hyp", (label,)))
                body = self._prove(goal.right, depth)
            finally:
                self._restore(snapshot)
            if body is None:
                return None
            return Proof("impi", (label,), (body,))
        if isinstance(goal, Forall):
            eigen = self._fresh_eigen(goal)
            body = subst_formula(goal.body, {goal.var: Var(eigen)})
            inner = self._prove(body, depth)
            if inner is None:
                return None
            return Proof("alli", (eigen,), (inner,))
        if isinstance(goal, Or):
            boolean = self._apply("cmp_bool", goal, (), depth)
            if boolean is not None:
                return boolean
            left = self._prove(goal.left, depth + 1)
            if left is not None:
                return Proof("ori1", (), (left,))
            right = self._prove(goal.right, depth + 1)
            if right is not None:
                return Proof("ori2", (), (right,))
            return None
        if isinstance(goal, Atom):
            return self._prove_atom(goal, depth)
        return None

    def _fresh_eigen(self, goal: Forall) -> str:
        """The binder's own name when no hypotheses are in scope (this
        keeps top-level safety-predicate proofs readable); otherwise a
        counter-fresh name, which is collision-free by construction and
        avoids scanning every fact's free variables."""
        if not self.facts and goal.var not in formula_vars(goal):
            return goal.var
        return f"{goal.var}${next(self._eigens)}"

    def _prove_by_cases(self, goal: Formula, depth: int) -> Proof | None:
        """Last resort: eliminate an available disjunction (from BGT/BLE
        branch hypotheses)."""
        if depth > _MAX_DEPTH - 5:
            return None
        for fact in self._sorted_facts():
            if not isinstance(fact, Or):
                continue
            or_proof = self.facts[fact]
            branches = []
            failed = False
            for branch in (fact.left, fact.right):
                label = f"h{next(self._labels)}"
                snapshot = self._snapshot()
                try:
                    del self.facts[fact]  # do not re-split the same Or
                    self._sorted_cache = None
                    self._contra_cache = None
                    self._hyp_formulas[label] = branch
                    self._assume(branch, Proof("hyp", (label,)))
                    sub = self._prove(goal, depth + 2)
                finally:
                    self._restore(snapshot)
                if sub is None:
                    failed = True
                    break
                branches.append(Proof("impi", (label,), (sub,)))
            if not failed:
                return Proof("ore", (fact.left, fact.right),
                             (or_proof, branches[0], branches[1]))
        return None

    def _sorted_facts(self) -> list[Formula]:
        """Deterministic fact ordering; cached because atom strategies
        iterate it constantly and pretty-printing large facts is dear."""
        if self._sorted_cache is not None:
            return self._sorted_cache
        ordered = sorted(self.facts, key=pp_formula)
        self._sorted_cache = ordered
        return ordered

    # -- atoms -----------------------------------------------------------------

    def _prove_atom(self, goal: Atom, depth: int) -> Proof | None:
        direct = self.facts.get(goal)
        if direct is not None:
            return direct
        ground = self._apply("arith_eval", goal, (), depth)
        if ground is not None:
            return ground
        folded = self._prove_via_constant_folding(goal, depth)
        if folded is not None:
            return folded
        if goal.pred == "eq":
            proof = self._prove_word_eq(goal.args[0], goal.args[1], depth)
            if proof is not None:
                return proof
        if goal.pred in ("rd", "wr"):
            proof = self._prove_safety_atom(goal, depth)
            if proof is not None:
                return proof
        if is_linear_atom(goal):
            proof = self._prove_linear(goal, depth)
            if proof is not None:
                return proof
        proof = self._prove_congruent_fact(goal, depth)
        if proof is not None:
            return proof
        proof = self._prove_from_implications(goal, depth)
        if proof is not None:
            return proof
        # Universal facts conclude more than rd/wr: the packet policy's
        # no-alias conjunct ends in a ne atom, for example.
        if depth <= _MAX_DEPTH - 10:
            for fact in self._sorted_facts():
                if isinstance(fact, Forall):
                    proof = self._instantiate_universal(fact, goal, depth)
                    if proof is not None:
                        return proof
        return None

    # -- constant folding inside goals -------------------------------------------

    def _prove_via_constant_folding(self, goal: Atom,
                                    depth: int) -> Proof | None:
        """If the goal contains a compound subterm whose value is a
        constant (zero-register idioms like ``sub64(r, r)``, or masks built
        with LDA chains), rewrite it to the literal and prove the folded
        goal.  This keeps every literal-checking schema applicable to
        hand-scheduled code."""
        if depth > _MAX_DEPTH - 10:
            return None
        target = None
        value = 0
        for arg in goal.args:
            for sub in all_subterms(arg):
                if not isinstance(sub, App) or sub.op in ("sel", "upd"):
                    continue
                constant = _constant_value(sub)
                if constant is not None:
                    target = sub
                    value = constant
                    break
            if target is not None:
                break
        if target is None:
            return None
        literal = Int(value)
        eq_proof = self._prove_word_eq(target, literal, depth + 1)
        if eq_proof is None:
            return None
        folded = Atom(goal.pred,
                      tuple(_replace_term(arg, target, literal)
                            for arg in goal.args))
        inner = self._prove(folded, depth + 1)
        if inner is None:
            return None
        template = Atom(goal.pred,
                        tuple(_replace_term(arg, target, Var(_HOLE))
                              for arg in goal.args))
        return Proof("eqsub", (template, _HOLE, literal, target),
                     (Proof("eqsym", (), (eq_proof,)), inner))

    # -- equality ---------------------------------------------------------------

    def _prove_word_eq(self, left: Term, right: Term,
                       depth: int) -> Proof | None:
        """Prove ``left = right``."""
        if depth > _MAX_DEPTH:
            return None
        goal = eq(left, right)
        if goal in self._fail_cache:
            return None
        if left == right:
            return Proof("eqrefl")
        fact = self.facts.get(goal)
        if fact is not None:
            return fact
        reverse = self.facts.get(eq(right, left))
        if reverse is not None:
            return Proof("eqsym", (), (reverse,))

        proof = self._apply("arith_eval", goal, (), depth)
        if proof is not None:
            return proof

        # t mod 2^64 = t  (either orientation).
        proof = self._apply("mod_word", goal, (), depth)
        if proof is not None:
            return proof
        if isinstance(right, App) and right.op == "mod64":
            inner = self._apply("mod_word", eq(right, left), (), depth)
            if inner is not None:
                return Proof("eqsym", (), (inner,))

        # The mod-equality chain:
        #   t = (t mod) = (s mod) = s.
        proof = self._mod_chain(left, right, depth)
        if proof is not None:
            return proof

        # Shape-directed schemas.
        for rule in ("and_mask_disjoint", "add_align", "sll_align",
                     "add64_exact", "sub64_exact", "or_disjoint",
                     "sel_upd_same", "sel_upd_other"):
            proof = self._apply(rule, goal, (), depth)
            if proof is not None:
                return proof

        # a & c2 = 0 from a known wider-mask fact  (a & c1 = 0, c2 <= c1).
        if (isinstance(left, App) and left.op == "and64"
                and right == Int(0)):
            operand = left.args[0]
            for fact in self._sorted_facts():
                if not (isinstance(fact, Atom) and fact.pred == "eq"):
                    continue
                fact_left, fact_right = fact.args
                if fact_right != Int(0):
                    continue
                if not (isinstance(fact_left, App)
                        and fact_left.op == "and64"
                        and fact_left.args[0] == operand):
                    continue
                proof = self._apply("and_submask", goal,
                                    (fact_left.args[1],), depth)
                if proof is not None:
                    return proof

        # Reads through memory updates: rewrite sel(upd(m, a, v), b) to
        # its value (same cell) or the underlying read (other cell), then
        # chain to the right-hand side.
        proof = self._sel_upd_chain(left, right, depth)
        if proof is not None:
            return proof

        # Congruence: same operator, equal arguments.
        proof = self._congruent_app_eq(left, right, depth)
        if proof is not None:
            return proof

        # Orientation: retry the schemas on the flipped goal.
        if not getattr(self, "_flipping", False):
            self._flipping = True
            try:
                flipped = self._prove_word_eq(right, left, depth + 1)
            finally:
                self._flipping = False
            if flipped is not None:
                return Proof("eqsym", (), (flipped,))
        self._fail_cache.add(goal)
        return None

    def _mod_id(self, term: Term, depth: int) -> Proof | None:
        """A proof of ``term mod 2^64 = term``, if the term is known to be
        word-valued (structurally, or by hypothesis for registers)."""
        if isinstance(term, Var):
            return self.mod_ids.get(term.name)
        goal = eq(App("mod64", (term,)), term)
        fact = self.facts.get(goal)
        if fact is not None:
            return fact
        if is_word_valued(term):
            return self._apply("mod_word", goal, (), depth)
        return None

    def _mod_chain(self, left: Term, right: Term,
                   depth: int) -> Proof | None:
        left_mod = App("mod64", (left,))
        right_mod = App("mod64", (right,))
        middle = self._apply("norm_mod_eq", eq(left_mod, right_mod), (),
                             depth)
        if middle is None:
            return None
        left_id = self._mod_id(left, depth)
        right_id = self._mod_id(right, depth)
        if left_id is None or right_id is None:
            return None
        # left = mod(left)      (eqsym of left_id)
        # mod(left) = right     (eqtrans via mod(right))
        upper = Proof("eqtrans", (right_mod,), (middle, right_id))
        return Proof("eqtrans", (left_mod,),
                     (Proof("eqsym", (), (left_id,)), upper))

    def _sel_upd_chain(self, left: Term, right: Term,
                       depth: int) -> Proof | None:
        if not (isinstance(left, App) and left.op == "sel"):
            return None
        updated, read_addr = left.args
        if not (isinstance(updated, App) and updated.op == "upd"):
            return None
        base, __, value = updated.args
        for rule, middle in (
                ("sel_upd_same", App("mod64", (value,))),
                ("sel_upd_other", App("sel", (base, read_addr)))):
            if middle == right:
                continue  # the direct schema attempt already ran
            step = self._apply(rule, eq(left, middle), (), depth)
            if step is None:
                continue
            rest = self._prove_word_eq(middle, right, depth + 1)
            if rest is not None:
                return Proof("eqtrans", (middle,), (step, rest))
        return None

    def _congruent_app_eq(self, left: Term, right: Term,
                          depth: int) -> Proof | None:
        if not (isinstance(left, App) and isinstance(right, App)):
            return None
        if left.op != right.op or len(left.args) != len(right.args):
            return None
        current = left
        proof = Proof("eqrefl")
        for position in range(len(left.args)):
            a = current.args[position]
            b = right.args[position]
            if a == b:
                continue
            arg_eq = self._prove_word_eq(a, b, depth + 1)
            if arg_eq is None:
                return None
            hole_args = list(current.args)
            hole_args[position] = Var(_HOLE)
            template = eq(left, App(left.op, tuple(hole_args)))
            new_args = list(current.args)
            new_args[position] = b
            current = App(left.op, tuple(new_args))
            proof = Proof("eqsub", (template, _HOLE, a, b),
                          (arg_eq, proof))
        if current != right:
            return None
        return proof

    # -- rd/wr ---------------------------------------------------------------

    def _prove_safety_atom(self, goal: Atom, depth: int) -> Proof | None:
        address = goal.args[0]
        # 0. SFI-style sandboxed addresses: rewrite (x & c) | b into
        #    (x & c) (+) b so the additive policy facts apply.
        if isinstance(address, App) and address.op == "or64":
            added = App("add64", address.args)
            disjoint = self._apply("or_disjoint", eq(address, added), (),
                                   depth)
            if disjoint is not None:
                inner = self._prove(Atom(goal.pred, (added,)), depth + 1)
                if inner is not None:
                    template = Atom(goal.pred, (Var(_HOLE),))
                    return Proof(
                        "eqsub", (template, _HOLE, added, address),
                        (Proof("eqsym", (), (disjoint,)), inner))
        # 1. A matching fact, possibly modulo word equality.
        for fact in self._sorted_facts():
            if isinstance(fact, Atom) and fact.pred == goal.pred:
                if fact == goal:
                    return self.facts[fact]
                rewritten = self._rewrite_atom(fact, self.facts[fact], goal,
                                               depth)
                if rewritten is not None:
                    return rewritten
        # 2. Implication facts concluding a congruent rd/wr atom.
        proof = self._prove_from_implications(goal, depth)
        if proof is not None:
            return proof
        # 3. Universal policy facts.
        for fact in self._sorted_facts():
            if isinstance(fact, Forall):
                proof = self._instantiate_universal(fact, goal, depth)
                if proof is not None:
                    return proof
        return None

    def _rewrite_atom(self, fact: Atom, fact_proof: Proof, goal: Atom,
                      depth: int) -> Proof | None:
        """Turn a proof of ``fact`` into a proof of ``goal`` by rewriting
        each differing argument with a word-equality."""
        if fact.pred != goal.pred or len(fact.args) != len(goal.args):
            return None
        current_args = list(fact.args)
        proof = fact_proof
        for position in range(len(goal.args)):
            a = current_args[position]
            b = goal.args[position]
            if a == b:
                continue
            arg_eq = self._prove_word_eq(a, b, depth + 1)
            if arg_eq is None:
                return None
            hole_args = list(current_args)
            hole_args[position] = Var(_HOLE)
            template = Atom(goal.pred, tuple(hole_args))
            proof = Proof("eqsub", (template, _HOLE, a, b),
                          (arg_eq, proof))
            current_args[position] = b
        return proof

    def _prove_congruent_fact(self, goal: Atom, depth: int) -> Proof | None:
        for fact in self._sorted_facts():
            if isinstance(fact, Atom) and fact.pred == goal.pred:
                proof = self._rewrite_atom(fact, self.facts[fact], goal,
                                           depth)
                if proof is not None:
                    return proof
        return None

    def _prove_from_implications(self, goal: Atom,
                                 depth: int) -> Proof | None:
        if depth > _MAX_DEPTH - 5:
            return None
        for fact in self._sorted_facts():
            if not isinstance(fact, Implies):
                continue
            conclusion = fact.right
            if not (isinstance(conclusion, Atom)
                    and conclusion.pred == goal.pred):
                continue
            antecedent_proof = self._prove(fact.left, depth + 2)
            if antecedent_proof is None:
                continue
            concluded = Proof("impe", (fact.left,),
                              (self.facts[fact], antecedent_proof))
            if conclusion == goal:
                return concluded
            rewritten = self._rewrite_atom(conclusion, concluded, goal,
                                           depth)
            if rewritten is not None:
                return rewritten
        return None

    def _instantiate_universal(self, fact: Forall, goal: Atom,
                               depth: int) -> Proof | None:
        """Instantiate ``ALL x1..xn. A => C`` so that C proves ``goal``.

        Single-binder facts get the full candidate machinery (syntactic
        match plus the linear-difference guess); multi-binder facts (the
        packet policy's no-alias conjunct) use pure syntactic matching of
        the conclusion against the goal.
        """
        binders: list[str] = []
        body: Formula = fact
        while isinstance(body, Forall):
            binders.append(body.var)
            body = body.body
        if not isinstance(body, Implies):
            return None
        conclusion = body.right
        if not (isinstance(conclusion, Atom)
                and conclusion.pred == goal.pred
                and len(conclusion.args) == len(goal.args)):
            return None

        if len(binders) == 1:
            assignments = [{binders[0]: candidate}
                           for candidate in self._candidates(
                               binders[0], conclusion, goal)]
        else:
            binding = self._match_atom(conclusion, goal,
                                       frozenset(binders))
            if binding is None or set(binding) != set(binders):
                return None
            assignments = [binding]

        for assignment in assignments:
            instantiated = subst_formula(body, assignment)
            assert isinstance(instantiated, Implies)
            antecedent_proof = self._prove(instantiated.left, depth + 2)
            if antecedent_proof is None:
                continue
            # Peel the binders with alle, one at a time.
            source: Formula = fact
            concluded = self.facts[fact]
            for index, name in enumerate(binders):
                assert isinstance(source, Forall)
                witness = assignment[name]
                concluded = Proof("alle", (source, witness), (concluded,))
                source = subst_formula(source.body, {name: witness})
            concluded = Proof("impe", (instantiated.left,),
                              (concluded, antecedent_proof))
            new_conclusion = instantiated.right
            assert isinstance(new_conclusion, Atom)
            if new_conclusion == goal:
                return concluded
            rewritten = self._rewrite_atom(new_conclusion, concluded, goal,
                                           depth)
            if rewritten is not None:
                return rewritten
        return None

    @staticmethod
    def _match_atom(pattern: Atom, goal: Atom,
                    wildcards: frozenset) -> dict[str, Term] | None:
        binding: dict[str, Term] = {}
        for p_arg, g_arg in zip(pattern.args, goal.args):
            partial = match_term(p_arg, g_arg, wildcards)
            if partial is None:
                return None
            for name, value in partial.items():
                if binding.get(name, value) != value:
                    return None
                binding[name] = value
        return binding

    def _candidates(self, var: str, pattern: Atom,
                    goal: Atom) -> list[Term]:
        """Instantiation candidates for a universal fact."""
        found: list[Term] = []
        binding = None
        for p_arg, g_arg in zip(pattern.args, goal.args):
            binding = match_term(p_arg, g_arg, frozenset((var,)))
            if binding and var in binding:
                found.append(binding[var])
                break
        # Linear guess: pattern address is base (+) i.
        address = pattern.args[0]
        if (isinstance(address, App) and address.op == "add64"
                and address.args[1] == Var(var)):
            guess = linear_difference(goal.args[0], address.args[0])
            if guess is not None and guess not in found:
                found.append(guess)
        if Var(var) == address:
            if goal.args[0] not in found:
                found.append(goal.args[0])
        return found

    # -- linear arithmetic ------------------------------------------------------

    def _prove_linear(self, goal: Atom, depth: int) -> Proof | None:
        """The linear pipeline: gather comparison facts, enrich with bound
        lemmas and machine-to-pure equalities, and search them for the
        Farkas certificate a ``linarith`` step ships."""
        if depth > _MAX_DEPTH - 10:
            return None
        candidates: dict[Atom, Proof] = {}

        for fact in self.facts:
            if (isinstance(fact, Atom) and is_linear_atom(fact)
                    and fact.pred != "ne"):
                candidates[fact] = self.facts[fact]

        # Keep only premises transitively sharing a linear atom with the
        # goal: Fourier-Motzkin on everything in scope is what makes naive
        # certification exponential on branchy compiled code.
        premises = _connected_premises(goal, candidates)

        terms: set[Term] = set()
        _collect_subterms(list(premises) + [goal], terms)

        for term in sorted(terms, key=pp_term):
            self._enrich(term, premises, depth)

        proof = self._linarith(goal, premises)
        # Fallback for dead branches: contradictory hypotheses prove any
        # comparison, even one unconnected to them.
        if proof is None and self._facts_contradictory(candidates):
            proof = self._linarith(goal, candidates)
        return proof

    @staticmethod
    def _linarith(goal: Atom, premises: dict[Atom, Proof]) -> Proof | None:
        """A ``linarith`` step from the premises that carry weight in the
        Farkas certificates of the goal's negated branches — the unsat
        core, a proof-size optimization (the paper: "we have implemented
        several optimizations in the representation of the proofs")."""
        ordered = sorted(premises, key=pp_formula)
        owners = [index for index, premise in enumerate(ordered)
                  if premise.pred != "ne"
                  for __ in _constraints_of(premise, negate=False)[0]]
        certificates = []
        for rows in linarith_rows(goal, ordered):
            weights = _farkas(rows)
            if weights is None:
                return None
            certificates.append(weights)
        kept = {owners[row] for weights in certificates
                for row, weight in enumerate(weights[:len(owners)])
                if weight}
        used = [premise for index, premise in enumerate(ordered)
                if index in kept]
        certificate = tuple(
            weight for weights in certificates
            for row, weight in enumerate(weights)
            if row >= len(owners) or owners[row] in kept)
        return Proof("linarith", (*used, certificate),
                     tuple(premises[premise] for premise in used))

    def _facts_contradictory(self, candidates: dict[Atom, Proof]) -> bool:
        """True when the linear facts in scope are jointly infeasible (a
        dead branch).  Cached per scope change."""
        if self._contra_cache is None:
            rows = [row for atom in candidates if atom.pred != "ne"
                    for row in _constraints_of(atom, negate=False)[0]]
            self._contra_cache = _farkas(rows) is not None
        return self._contra_cache

    def _enrich(self, term: Term, premises: dict[Atom, Proof],
                depth: int) -> None:
        """Add bound lemmas and exactness equalities for one subterm."""
        if not isinstance(term, App):
            return

        def try_add(rule: str, atom: Atom, params: tuple = ()) -> None:
            if atom in premises:
                return
            proof = self._apply(rule, atom, params, depth + 1)
            if proof is not None:
                premises[atom] = proof

        if is_word_valued(term):
            try_add("word_ge0", ge(term, 0))
            # Ground constant-valued compounds (zero-register idioms,
            # LDA-built constants) so linear reasoning sees the number.
            constant = _constant_value(term)
            if constant is not None:
                grounded = eq(term, Int(constant))
                if grounded not in premises:
                    proof = self._prove_word_eq(term, Int(constant),
                                                depth + 1)
                    if proof is not None:
                        premises[grounded] = proof
        if term.op == "and64" and isinstance(term.args[1], Int):
            try_add("and_ubound", le(term, term.args[1]))
        if term.op == "srl64" and isinstance(term.args[1], Int):
            shift = term.args[1].value & 63
            try_add("srl_bound", lt(term, Int(1 << (64 - shift))))
        if term.op in ("extbl", "extwl", "extll"):
            bound = {"extbl": 1 << 8, "extwl": 1 << 16,
                     "extll": 1 << 32}[term.op]
            try_add("ext_bound", lt(term, bound))
        if term.op in ("mod64", "sel"):
            try_add("word_lt_mod", lt(term, Int(WORD_MOD)))
        if term.op == "mod64":
            identity = self._mod_id(term.args[0], depth + 1)
            if identity is not None:
                premises.setdefault(eq(term, term.args[0]), identity)
        if term.op == "sll64":
            a, k = term.args
            # (a << k) <= m << k when a is a masked value:  a = x & m.
            if (isinstance(a, App) and a.op == "and64"
                    and isinstance(a.args[1], Int) and isinstance(k, Int)):
                mask = a.args[1].value
                shifted = mask << (k.value & 63)
                if 0 <= shifted < WORD_MOD:
                    try_add("sll_ubound", le(term, Int(shifted)),
                            (a.args[1],))
            # ((a >> k) << k) <= a mod 2^64
            if isinstance(a, App) and a.op == "srl64" and a.args[1] == k:
                inner = a.args[0]
                bound = le(term, App("mod64", (inner,)))
                try_add("shift_trunc_le", bound)
                identity = self._mod_id(inner, depth + 1)
                if identity is not None:
                    premises.setdefault(
                        eq(App("mod64", (inner,)), inner), identity)
            # (a << k) < b mod 2^64  from  a mod < (b >> k) mod
            for fact in list(self.facts):
                if not (isinstance(fact, Atom) and fact.pred == "lt"):
                    continue
                lhs, rhs = fact.args
                if lhs != App("mod64", (a,)):
                    continue
                if not (isinstance(rhs, App) and rhs.op == "mod64"):
                    continue
                shifted = rhs.args[0]
                if not (isinstance(shifted, App) and shifted.op == "srl64"
                        and shifted.args[1] == k):
                    continue
                b = shifted.args[0]
                bound = lt(term, App("mod64", (b,)))
                try_add("sll_lt_of_srl", bound, (b,))
                identity = self._mod_id(b, depth + 1)
                if identity is not None:
                    premises.setdefault(eq(App("mod64", (b,)), b),
                                        identity)
        if term.op == "add64":
            a, b = term.args
            exact = eq(term, App("add", (a, b)))
            if exact not in premises:
                proof = self._prove_add64_exact(term, premises, depth)
                if proof is not None:
                    premises[exact] = proof
        if term.op == "sub64":
            exact = eq(term, App("sub", term.args))
            if exact not in premises:
                proof = self._apply("sub64_exact", exact, (), depth + 1)
                if proof is not None:
                    premises[exact] = proof

    def _prove_add64_exact(self, term: App, premises: dict[Atom, Proof],
                           depth: int) -> Proof | None:
        """``a (+) b = a + b`` needs ``a + b < 2^64``; prove it with the
        premises gathered *so far* (bounds of a and b were enriched first
        because subterms sort shorter)."""
        if term in self._exact_in_progress:
            return None
        self._exact_in_progress.add(term)
        try:
            return self._prove_add64_exact_inner(term, premises, depth)
        finally:
            self._exact_in_progress.discard(term)

    def _prove_add64_exact_inner(self, term: App,
                                 premises: dict[Atom, Proof],
                                 depth: int) -> Proof | None:
        a, b = term.args
        goal = eq(term, App("add", (a, b)))
        try:
            obligations = RULES["add64_exact"](goal, (), self.facts)
        except ProofError:
            return None
        sub_proofs = []
        for subgoal, __ in obligations:
            assert isinstance(subgoal, Atom)
            proof = self._prove(subgoal, depth + 2)
            if proof is None:
                proof = self._linarith(subgoal, premises)
            if proof is None:
                return None
            sub_proofs.append(proof)
        return Proof("add64_exact", (), tuple(sub_proofs))


def prove_safety_predicate(predicate: Formula) -> Proof:
    """Certify a safety predicate: the producer-side proof generation step.

    Raises :class:`ProverError` when the (incomplete, deterministic) search
    fails; the message names the first unprovable subgoal.
    """
    return Prover().prove(predicate)
