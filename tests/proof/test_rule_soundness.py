"""Property-based soundness of every arithmetic proof constant of the LF
signature.

Strategy: generate random steps the consumer *accepts* — the constant's
Π-type matched against the goal (:func:`repro.proof.encode.instantiate`),
then its side condition — and evaluate premises and conclusion on random
integer environments.  Whenever all premises hold, the conclusion must
hold.  A failure here would mean the published signature can prove a
falsehood — the one bug class PCC cannot tolerate — so these tests
deliberately hammer the word-size boundaries.
"""

import inspect

from hypothesis import given, settings, strategies as st

from repro.errors import ProofError
from repro.lf.arith import linarith_rows
from repro.logic.formulas import Atom, Or, conj, eq, ge, holds, le, lt, ne
from repro.logic.terms import (
    App,
    Int,
    Var,
    WORD_MOD,
    add64,
    and64,
    mod64,
    or64,
    sll64,
    srl64,
    sub64,
)
from repro.proof.encode import (
    PROOF_CONSTANTS,
    instantiate,
    side_condition_holds,
)
from repro.prover.prover import _farkas

# Values biased toward the interesting boundaries.
words = st.one_of(
    st.integers(min_value=0, max_value=WORD_MOD - 1),
    st.sampled_from([0, 1, 7, 8, 63, 64, 2047, 2048,
                     (1 << 63) - 1, 1 << 63, WORD_MOD - 8, WORD_MOD - 1]),
)
any_ints = st.integers(min_value=-(1 << 70), max_value=1 << 70)

X, Y = Var("x"), Var("y")


#: The proof constants of the predicate calculus; every other proof
#: constant is an arithmetic schema.
LOGIC = frozenset((
    "truei", "andi", "andel", "ander", "impi", "impe", "alli", "alle",
    "alli_m", "alle_m", "ori1", "ori2", "ore", "falsee", "eqrefl", "eqsym",
    "eqtrans", "eqsub"))


def _accepted(rule, goal, params=()):
    """Does the consumer accept this step?  Returns the premise goals, or
    None."""
    try:
        args, premises = instantiate(rule, goal, params)
    except ProofError:
        return None
    if not side_condition_holds(rule, args):
        return None
    return [premise for premise, __, __ in premises]


def _check_sound(rule, goal, params, env):
    obligations = _accepted(rule, goal, params)
    if obligations is None:
        return  # rejected instances prove nothing, trivially sound
    premises_hold = all(holds(subgoal, env) for subgoal in obligations)
    if premises_hold:
        assert holds(goal, env), (
            f"UNSOUND {rule}: premises hold but conclusion fails "
            f"in {env}")


class TestUnconditionalSchemas:
    @given(any_ints, any_ints)
    def test_mod_word(self, x, y):
        term = add64(X, Y)
        _check_sound("mod_word", eq(mod64(term), term), (),
                     {"x": x, "y": y})

    @given(any_ints, any_ints)
    def test_norm_mod_eq(self, x, y):
        left = add64(add64(X, Y), sub64(X, X))
        right = add64(Y, X)
        goal = eq(mod64(left), mod64(right))
        _check_sound("norm_mod_eq", goal, (), {"x": x, "y": y})

    @given(any_ints)
    def test_word_bounds(self, x):
        env = {"x": x}
        term = srl64(X, 3)
        _check_sound("word_ge0", ge(term, 0), (), env)
        _check_sound("word_lt_mod", lt(term, WORD_MOD), (), env)

    @given(words, st.integers(min_value=0, max_value=WORD_MOD - 1))
    def test_and_ubound(self, x, mask):
        goal = le(and64(X, mask), Int(mask))
        _check_sound("and_ubound", goal, (), {"x": x})

    @given(words, words, words)
    def test_and_mask_disjoint(self, x, c1, c2):
        goal = eq(and64(and64(X, c1), c2), 0)
        _check_sound("and_mask_disjoint", goal, (), {"x": x})

    @given(words, st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=WORD_MOD - 1))
    def test_srl_bound(self, x, k, c):
        goal = lt(srl64(X, k), Int(c))
        _check_sound("srl_bound", goal, (), {"x": x})

    @given(words, st.integers(min_value=0, max_value=63), words)
    def test_sll_align(self, x, k, m):
        goal = eq(and64(sll64(X, k), m), 0)
        _check_sound("sll_align", goal, (), {"x": x})

    @given(words, st.integers(min_value=0, max_value=7),
           st.one_of(st.integers(min_value=0, max_value=WORD_MOD - 1),
                     st.sampled_from([255, 256, 65535, 65536,
                                      (1 << 32) - 1, 1 << 32])))
    def test_ext_bound(self, x, k, c):
        for rule, op in (("extbl_bound", "extbl"), ("extwl_bound", "extwl"),
                         ("extll_bound", "extll")):
            goal = lt(App(op, (X, Int(k))), Int(c))
            _check_sound(rule, goal, (), {"x": x})

    @given(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
           st.sampled_from(["add64", "sub64", "and64", "srl64", "sll64"]),
           words, words, words, any_ints)
    def test_arith_eval(self, pred, op, a, b, c, x):
        """Ground atoms are decided by evaluation; an atom over a
        variable is not ground and must be turned down."""
        ground = Atom(pred, (App(op, (Int(a), Int(b))), Int(c)))
        _check_sound("arith_eval", ground, (), {})
        _check_sound("arith_eval", Atom(pred, (App(op, (X, Int(b))),
                                               Int(c))), (), {"x": x})

    @given(words, words)
    def test_cmp_bool(self, x, y):
        for rule, op in (("cmpeq_bool", "cmpeq"), ("cmpult_bool", "cmpult"),
                         ("cmpule_bool", "cmpule")):
            flag = App(op, (X, Y))
            _check_sound(rule, Or(eq(flag, 0), eq(flag, 1)), (),
                         {"x": x, "y": y})

    @given(words, st.integers(min_value=0, max_value=63))
    def test_shift_trunc_le(self, x, k):
        goal = le(sll64(srl64(X, k), k), mod64(X))
        _check_sound("shift_trunc_le", goal, (), {"x": x})


class TestConditionalSchemas:
    """Schemas with premises: sample states where premises happen to hold."""

    @given(any_ints, any_ints)
    def test_add64_exact(self, x, y):
        goal = eq(add64(X, Y), App("add", (X, Y)))
        _check_sound("add64_exact", goal, (), {"x": x, "y": y})

    @given(any_ints, any_ints)
    def test_sub64_exact(self, x, y):
        goal = eq(sub64(X, Y), App("sub", (X, Y)))
        _check_sound("sub64_exact", goal, (), {"x": x, "y": y})

    @given(words, words)
    def test_cmp_rules(self, x, y):
        env = {"x": x, "y": y}
        for rule, conclusion in (
                ("cmpult_true", lt(mod64(X), mod64(Y))),
                ("cmpult_false", ge(mod64(X), mod64(Y))),
                ("cmpule_true", le(mod64(X), mod64(Y))),
                ("cmpule_false", Atom("gt", (mod64(X), mod64(Y)))),
                ("cmpeq_true", eq(mod64(X), mod64(Y))),
                ("cmpeq_false", ne(mod64(X), mod64(Y)))):
            _check_sound(rule, conclusion, (), env)

    @given(words, words, st.sampled_from([7, 15, 63, 2040, 2047]))
    def test_add_align(self, x, y, mask):
        goal = eq(and64(add64(X, Y), mask), 0)
        _check_sound("add_align", goal, (), {"x": x, "y": y})

    @given(words, words, st.sampled_from([8, 63, 248, 2040]))
    def test_or_disjoint(self, x, y, mask):
        masked = and64(X, mask)
        goal = eq(or64(masked, Y), add64(masked, Y))
        _check_sound("or_disjoint", goal, (), {"x": x, "y": y})

    @given(words, st.sampled_from([(2040, 8), (15, 7), (255, 248)]))
    def test_and_submask(self, x, masks):
        wide, narrow = masks
        goal = eq(and64(X, narrow), 0)
        _check_sound("and_submask", goal, (Int(wide),), {"x": x})

    @given(words, words, st.integers(min_value=0, max_value=10))
    def test_sll_lt_of_srl(self, x, y, k):
        goal = lt(sll64(X, k), mod64(Y))
        _check_sound("sll_lt_of_srl", goal, (), {"x": x, "y": y})

    @given(any_ints, st.integers(min_value=0, max_value=70), words, words)
    def test_sll_ubound(self, x, k, m, c):
        goal = le(sll64(X, k), Int(c))
        _check_sound("sll_ubound", goal, (Int(m),), {"x": x})

    @given(words, words, words, words)
    def test_sel_upd_rules(self, addr_a, addr_b, value, other):
        from repro.logic.terms import make_memory, sel, upd
        memory = make_memory({addr_a % WORD_MOD & ~7: other})
        env = {"m": memory, "a": addr_a, "b": addr_b, "v": value}
        same = eq(sel(upd(Var("m"), Var("a"), Var("v")), Var("b")),
                  mod64(Var("v")))
        _check_sound("sel_upd_same", same, (), env)
        diff = eq(sel(upd(Var("m"), Var("a"), Var("v")), Var("b")),
                  sel(Var("m"), Var("b")))
        _check_sound("sel_upd_other", diff, (), env)


class TestLinarithSoundness:
    @staticmethod
    def _atom(pred, a, b, c):
        left = App("add", (App("mul", (Int(a), X)), App("mul", (Int(b), Y))))
        return Atom(pred, (left, Int(c)))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.sampled_from(["le", "lt", "ge", "gt", "eq"]),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-20, max_value=20)), max_size=4),
        st.sampled_from(["le", "lt", "ge", "gt", "eq", "ne"]),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.data())
    def test_random_systems(self, premise_specs, goal_pred, ga, gb, gc,
                            x, y, data):
        """Random small linear systems over two variables, with the
        prover's certificate when it finds one and with random weights:
        whenever the rule accepts, the implication must hold on a random
        point.  A certificate the prover finds must be accepted."""
        premises = tuple(self._atom(*spec) for spec in premise_specs)
        goal = self._atom(goal_pred, ga, gb, gc)
        branches = linarith_rows(goal, premises)
        found = [_farkas(rows) for rows in branches]
        if None not in found:
            certificate = tuple(w for weights in found for w in weights)
            assert _accepted("linarith", goal,
                             (conj(premises), certificate)) is not None
            _check_sound("linarith", goal, (conj(premises), certificate),
                         {"x": x, "y": y})
        size = sum(len(rows) for rows in branches)
        weights = data.draw(st.lists(st.integers(min_value=0, max_value=6),
                                     min_size=size, max_size=size))
        _check_sound("linarith", goal, (conj(premises), tuple(weights)),
                     {"x": x, "y": y})

    def test_fixed_system_is_accepted(self):
        """x + y <= 4 and x - y <= 2 give x <= 3: with the negated goal
        4 - x <= 0 weighted twice, the rows sum to 2 <= 0."""
        premises = (self._atom("le", 1, 1, 4), self._atom("le", 1, -1, 2))
        goal = self._atom("le", 1, 0, 3)
        assert _accepted("linarith", goal,
                         (conj(premises), (1, 1, 2))) is not None
        assert _farkas(linarith_rows(goal, premises)[0]) == [1, 1, 2]


def test_every_arithmetic_constant_has_a_case():
    """Each arithmetic proof constant of the signature is sampled above."""
    arithmetic = set(PROOF_CONSTANTS) - LOGIC
    assert len(arithmetic) == 32
    cases = "".join(inspect.getsource(case) for case in (
        TestUnconditionalSchemas, TestConditionalSchemas,
        TestLinarithSoundness))
    assert sorted(name for name in arithmetic
                  if f'"{name}"' not in cases) == []
