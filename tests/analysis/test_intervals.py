"""Interval domain unit + property tests.

The load-bearing property: every abstract transfer function
over-approximates the concrete operator.  The Hypothesis test drives
each operate through random concrete operand pairs drawn *from* random
intervals and asserts the concrete result always lands inside the
abstract one.
"""

from hypothesis import given, settings, strategies as st

from repro.alpha.isa import OPERATE_NAMES, operate
from repro.alpha.parser import parse_program
from repro.analysis import analyze_intervals, packet_filter_context
from repro.analysis.intervals import (
    TOP,
    Interval,
    WORD_MASK,
    const,
    join,
    operate_interval,
    refine_branch,
    widen,
)
from repro.filters.policy import PACKET_BASE, SCRATCH_BASE
from repro.filters.programs import FILTERS

_SIGN = 1 << 63


# -- lattice basics ----------------------------------------------------


def test_join_is_hull():
    assert join(Interval(1, 3), Interval(10, 12)) == Interval(1, 12)
    assert join(None, Interval(4, 5)) == Interval(4, 5)
    assert join(Interval(4, 5), None) == Interval(4, 5)


def test_widen_jumps_to_limits():
    assert widen(Interval(5, 10), Interval(3, 10)) == Interval(0, 10)
    assert widen(Interval(5, 10), Interval(5, 11)) == Interval(5, WORD_MASK)
    assert widen(Interval(5, 10), Interval(5, 10)) == Interval(5, 10)


def test_wrap_around_subtraction():
    # 0 - 1 wraps to 2^64 - 1.
    assert operate_interval("SUBQ", const(0), const(1)) \
        == const(WORD_MASK)


def test_multiply_overflow_goes_top():
    huge = Interval(0, 1 << 40)
    assert operate_interval("MULQ", huge, huge) == TOP


def test_comparison_decided_by_disjoint_intervals():
    assert operate_interval("CMPULT", Interval(0, 5), Interval(6, 9)) \
        == const(1)
    assert operate_interval("CMPULT", Interval(9, 12), Interval(0, 9)) \
        == const(0)
    assert operate_interval("CMPEQ", Interval(0, 5), Interval(3, 9)) \
        == Interval(0, 1)


def test_extract_with_constant_lane_shifts_the_bound():
    # Byte 3 of a value below 256 is zero.
    assert operate_interval("EXTBL", Interval(0, 255), const(3)) \
        == const(0)
    assert operate_interval("EXTWL", Interval(0, 0x12345), const(2)) \
        == Interval(0, 1)
    assert operate_interval("EXTLL", TOP, const(4)) \
        == Interval(0, 0xFFFFFFFF)


# -- the soundness property --------------------------------------------


@st.composite
def _interval_and_member(draw):
    lo = draw(st.integers(min_value=0, max_value=WORD_MASK))
    hi = draw(st.integers(min_value=lo, max_value=WORD_MASK))
    value = draw(st.integers(min_value=lo, max_value=hi))
    return Interval(lo, hi), value


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(OPERATE_NAMES)),
       a=_interval_and_member(), b=_interval_and_member())
def test_operate_interval_over_approximates_machine(name, a, b):
    interval_a, value_a = a
    interval_b, value_b = b
    abstract = operate_interval(name, interval_a, interval_b)
    concrete = operate(name, value_a, value_b)
    assert concrete in abstract, \
        f"{name}: {value_a} op {value_b} = {concrete} not in {abstract}"


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["BEQ", "BNE", "BGE", "BLT", "BGT", "BLE"]),
       value=st.integers(min_value=0, max_value=WORD_MASK),
       taken=st.booleans())
def test_branch_refinement_keeps_consistent_values(name, value, taken):
    from repro.alpha.isa import branch_taken

    if branch_taken(name, value) != taken:
        return  # this concrete value does not take this edge
    state = (Interval(0, WORD_MASK),) * 11
    refined = refine_branch(state, name, 0, taken)
    assert refined is not None
    assert value in refined[0], \
        f"{name} taken={taken}: {value:#x} refined away"


def test_refinement_proves_edges_infeasible():
    state = (const(0),) * 11
    # r0 == 0, so BNE cannot be taken.
    assert refine_branch(state, "BNE", 0, taken=True) is None
    assert refine_branch(state, "BEQ", 0, taken=True) is not None
    # r0 in [2^63, 2^64-1] is negative: BGE cannot be taken.
    neg = (Interval(_SIGN, WORD_MASK),) * 11
    assert refine_branch(neg, "BGE", 0, taken=True) is None
    assert refine_branch(neg, "BLT", 0, taken=True) is not None


# -- whole-program fixpoint --------------------------------------------


def test_entry_state_matches_context():
    ctx = packet_filter_context()
    analysis = analyze_intervals(parse_program("RET"), ctx)
    state = analysis.state_at(0)
    assert state[1] == const(PACKET_BASE)
    assert state[2] == Interval(64, 1518)
    assert state[3] == const(SCRATCH_BASE)
    # Unmentioned registers are the machine's zeroed file.
    assert state[4] == const(0)


def test_filter_accesses_all_safe_and_aligned():
    ctx = packet_filter_context()
    for spec in FILTERS:
        analysis = analyze_intervals(spec.program, ctx)
        assert analysis.accesses, spec.name
        for access in analysis.accesses:
            assert access.verdict == "safe", (spec.name, access)
            # Constant addresses are proved aligned; loop-indexed ones
            # (filter4) are at worst "maybe" — never proven-unaligned.
            assert access.alignment != "never", (spec.name, access)
        assert analysis.definite_faults == ()


def test_rogue_store_is_definite_fault():
    ctx = packet_filter_context()
    analysis = analyze_intervals(parse_program("STQ r2, 0(r1)\nRET"), ctx)
    (access,) = analysis.accesses
    assert access.kind == "wr"
    assert access.verdict == "escape"
    assert access.definite_fault


def test_unaligned_load_is_definite_fault():
    ctx = packet_filter_context()
    analysis = analyze_intervals(
        parse_program("LDA r4, 4(r1)\nLDQ r5, 0(r4)\nRET"), ctx)
    (access,) = analysis.accesses
    assert access.alignment == "never"
    assert access.definite_fault


def test_null_load_is_definite_fault():
    ctx = packet_filter_context()
    analysis = analyze_intervals(parse_program("LDQ r4, 0(r5)\nRET"), ctx)
    (access,) = analysis.accesses
    assert access.verdict == "escape"


def test_widening_terminates_on_growing_loop():
    # r4 grows forever; without widening the fixpoint would not close.
    analysis = analyze_intervals(parse_program("""
 loop:  ADDQ r4, 8, r4
        BR   loop
    """))
    state = analysis.state_at(0)
    assert state is not None
    assert state[4].hi == WORD_MASK  # widened


def test_state_at_propagates_within_block():
    analysis = analyze_intervals(parse_program("""
        LDA r4, 8(r4)
        LDA r4, 8(r4)
        RET
    """))
    assert analysis.state_at(0)[4] == const(0)
    assert analysis.state_at(1)[4] == const(8)
    assert analysis.state_at(2)[4] == const(16)


def test_unreachable_pc_reports_none():
    analysis = analyze_intervals(parse_program("""
        RET
        ADDQ r1, 1, r1
        RET
    """))
    assert analysis.state_at(0) is not None
    assert analysis.state_at(1) is None


def test_exit_interval_joins_all_rets():
    from repro.analysis import AnalysisContext

    analysis = analyze_intervals(parse_program("""
        BEQ  r1, zero
        LDA  r0, 5(r0)
        RET
 zero:  LDA  r0, 9(r0)
        RET
    """), AnalysisContext(entry={1: TOP}))
    assert analysis.exit_interval(0) == Interval(5, 9)


def test_infeasible_edge_pruned_with_exact_entry():
    # With the default zeroed entry, BEQ r1 is always taken: the
    # fall-through arm is proved unreachable.
    analysis = analyze_intervals(parse_program("""
        BEQ  r1, zero
        LDA  r0, 5(r0)
        RET
 zero:  LDA  r0, 9(r0)
        RET
    """))
    assert analysis.state_at(1) is None
    assert analysis.exit_interval(0) == const(9)
