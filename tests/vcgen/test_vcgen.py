"""VC generator tests: the Figure 4 rules, the Figure 5 worked example,
branch hypotheses, loop invariants, and determinism."""

import pytest

from repro.alpha.parser import parse_program
from repro.errors import VcGenError
from repro.logic.formulas import (
    And,
    Forall,
    Implies,
    Truth,
    conjuncts,
    eq,
    formula_vars,
    ge,
    lt,
    ne,
    rd,
    wr,
)
from repro.logic.pretty import pp_formula
from repro.logic.terms import Int, Var, add64, sel, upd
from repro.vcgen.vcgen import compute_vc, safety_predicate


def _strip_foralls(formula):
    while isinstance(formula, Forall):
        formula = formula.body
    return formula


class TestFigure4Rules:
    def test_operate_substitutes(self):
        program = parse_program("ADDQ r1, 2, r0\nRET")
        vc = compute_vc(program, eq(Var("r0"), 5))
        assert vc == eq(add64(Var("r1"), 2), 5)

    def test_ldq_adds_rd_check_and_substitutes_sel(self):
        program = parse_program("LDQ r0, 8(r1)\nRET")
        vc = compute_vc(program, eq(Var("r0"), 0))
        address = add64(Var("r1"), 8)
        assert vc == And(rd(address),
                         eq(sel(Var("rm"), address), 0))

    def test_stq_adds_wr_check_and_updates_memory(self):
        program = parse_program("STQ r2, 0(r1)\nRET")
        post = eq(sel(Var("rm"), Var("r1")), 7)
        vc = compute_vc(program, post)
        new_memory = upd(Var("rm"), Var("r1"), Var("r2"))
        assert vc == And(wr(Var("r1")),
                         eq(sel(new_memory, Var("r1")), 7))

    def test_negative_displacement_becomes_word_constant(self):
        program = parse_program("LDQ r0, -8(r1)\nRET")
        vc = compute_vc(program, Truth())
        assert vc == And(rd(add64(Var("r1"), (1 << 64) - 8)), Truth())

    def test_beq_splits_on_zero(self):
        program = parse_program("BEQ r1, skip\nLDQ r0, 0(r2)\nskip: RET")
        vc = compute_vc(program, Truth())
        assert isinstance(vc, And)
        taken, fall = vc.left, vc.right
        assert taken == Implies(eq(Var("r1"), 0), Truth())
        assert fall.left == ne(Var("r1"), 0)

    def test_signed_branch_hypotheses(self):
        program = parse_program("BGE r1, skip\nLDQ r0, 0(r2)\nskip: RET")
        vc = compute_vc(program, Truth())
        bound = Int(1 << 63)
        assert vc.left.left == lt(Var("r1"), bound)
        assert vc.right.left == ge(Var("r1"), bound)

    def test_ret_yields_postcondition(self):
        program = parse_program("RET")
        post = eq(Var("r0"), 1)
        assert compute_vc(program, post) == post

    def test_lda_semantics(self):
        program = parse_program("LDA r0, -2048(r1)\nRET")
        vc = compute_vc(program, eq(Var("r0"), 0))
        assert vc == eq(add64(Var("r1"), (1 << 64) - 2048), 0)


class TestSafetyPredicate:
    def test_closed_over_all_state(self, resource_policy):
        program = parse_program("RET")
        predicate = safety_predicate(program, resource_policy.precondition,
                                     Truth())
        assert formula_vars(predicate) == set()

    def test_figure5_worked_example(self, resource_policy):
        """The paper's SP_r: rd(r0+8), rd of the tag address, and the
        conditional wr — after trivial simplifications."""
        program = parse_program("""
            ADDQ r0, 8, r1
            LDQ  r0, 8(r0)
            LDQ  r2, -8(r1)
            ADDQ r0, 1, r0
            BEQ  r2, L1
            STQ  r0, 0(r1)
        L1: RET
        """)
        predicate = safety_predicate(
            program, resource_policy.precondition, Truth())
        body = _strip_foralls(predicate)
        assert isinstance(body, Implies)
        obligations = conjuncts(body.right)
        data_address = add64(Var("r0"), 8)
        tag_address = add64(Var("r0"), 0)  # (r0+8)-8 folds to r0+0
        assert rd(data_address) in obligations
        assert rd(tag_address) in obligations
        conditional = obligations[-1]
        assert conditional == Implies(ne(sel(Var("rm"), tag_address), 0),
                                      wr(data_address))

    def test_deterministic(self, resource_policy):
        program = parse_program("LDQ r0, 8(r0)\nRET")
        first = safety_predicate(program, resource_policy.precondition,
                                 Truth())
        second = safety_predicate(program, resource_policy.precondition,
                                  Truth())
        assert first == second
        assert pp_formula(first) == pp_formula(second)


class TestLoops:
    def test_backward_branch_without_invariant_rejected(self):
        program = parse_program("""
        top: ADDQ r0, 1, r0
             BNE r1, top
             RET
        """)
        with pytest.raises(VcGenError):
            safety_predicate(program, Truth(), Truth())

    def test_invariant_splits_into_obligations(self):
        program = parse_program("""
        top: ADDQ r0, 1, r0
             BNE r1, top
             RET
        """)
        invariant = eq(Var("r1"), Var("r1"))
        predicate = safety_predicate(program, Truth(), Truth(),
                                     invariants={0: invariant},
                                     simplify=False)
        # entry obligation AND one obligation per cut point
        assert isinstance(predicate, And)

    def test_invariant_outside_program_rejected(self):
        program = parse_program("RET")
        with pytest.raises(VcGenError):
            safety_predicate(program, Truth(), Truth(),
                             invariants={5: Truth()})

    def test_diamond_control_flow_is_polynomial(self):
        """Memoization: 20 consecutive diamonds must not take exponential
        time to generate (structure sharing keeps it linear)."""
        lines = []
        for __ in range(20):
            label = f"m{len(lines)}"
            lines.append(f"BEQ r1, {label}")
            lines.append("ADDQ r0, 1, r0")
            lines.append(f"{label}: ADDQ r0, 0, r0")
        lines.append("RET")
        program = parse_program("\n".join(lines))
        predicate = safety_predicate(program, Truth(), Truth(),
                                     simplify=False)
        assert predicate is not None
