"""Sharing preservation: the structural operations must not expand DAGs.

The VC of diamond-shaped control flow shares join-point formulas; if any
pass (substitution, simplification) rebuilt unchanged shared nodes, the
formula would blow up exponentially — the regression these tests pin.
"""

import time

from repro.alpha.parser import parse_program
from repro.logic.formulas import And, Forall, Implies, Or, Truth, eq, ne
from repro.logic.simplify import simplify_formula
from repro.logic.subst import subst_formula
from repro.logic.terms import Int, Var, add64


def _distinct_nodes(formula, seen=None):
    seen = set() if seen is None else seen
    if id(formula) in seen:
        return seen
    seen.add(id(formula))
    if isinstance(formula, (And, Or, Implies)):
        _distinct_nodes(formula.left, seen)
        _distinct_nodes(formula.right, seen)
    elif isinstance(formula, Forall):
        _distinct_nodes(formula.body, seen)
    return seen


def _diamonds(count):
    lines = []
    for index in range(count):
        label = f"m{index}"
        lines.append(f"BEQ r1, {label}")
        lines.append("ADDQ r0, 1, r0")
        lines.append(f"{label}: ADDQ r0, 0, r0")
    lines.append("RET")
    return parse_program("\n".join(lines))


class TestSubstitutionSharing:
    def test_identity_substitution_returns_same_object(self):
        shared = eq(Var("x"), 0)
        formula = And(shared, shared)
        result = subst_formula(formula, {"unrelated": Int(1)})
        assert result is formula

    def test_changed_nodes_stay_shared(self):
        shared = eq(Var("x"), 0)
        formula = And(shared, shared)
        result = subst_formula(formula, {"x": add64(Var("y"), 1)})
        assert result.left is result.right

    def test_partial_change_keeps_untouched_subtree(self):
        touched = eq(Var("x"), 0)
        untouched = ne(Var("z"), 1)
        formula = And(touched, untouched)
        result = subst_formula(formula, {"x": Int(3)})
        assert result.right is untouched


class TestVcGenerationScales:
    def test_deep_diamonds_stay_linear(self):
        from repro.vcgen.vcgen import compute_vc

        sizes = {}
        for depth in (10, 20, 40):
            vc = compute_vc(_diamonds(depth), Truth())
            sizes[depth] = len(_distinct_nodes(vc))
        # distinct-node growth must be (roughly) linear in depth
        assert sizes[40] < 5 * sizes[10]

    def test_sixty_diamonds_generate_quickly(self):
        from repro.logic.formulas import Truth
        from repro.vcgen.vcgen import safety_predicate

        started = time.perf_counter()
        safety_predicate(_diamonds(60), Truth(), Truth(), simplify=False)
        assert time.perf_counter() - started < 2.0


class TestSimplifierSharing:
    def test_unchanged_formula_is_same_object(self):
        shared = ne(Var("x"), 0)
        formula = And(shared, Implies(shared, shared))
        assert simplify_formula(formula) is formula

    def test_shared_simplified_once(self):
        reducible = eq(add64(Int(1), Int(2)), Int(3))
        formula = And(reducible, reducible)
        simplified = simplify_formula(formula)
        assert simplified == Truth()


class TestLfSharing:
    def test_normalize_preserves_shared_objects(self):
        from repro.lf.syntax import LfApp, LfConst, lf_app, normalize

        leaf = lf_app(LfConst("add64"), LfConst("r0"), LfConst("r1"))
        term = LfApp(leaf, leaf)
        result = normalize(term)
        assert result.fn is result.arg

    def test_big_dag_normalizes_quickly(self):
        from repro.lf.syntax import LfApp, LfConst, normalize

        term = LfConst("tm")
        for __ in range(40):
            term = LfApp(term, term)  # 2^40 tree nodes, 41 shared ones
        started = time.perf_counter()
        normalize(term)
        assert time.perf_counter() - started < 1.0
