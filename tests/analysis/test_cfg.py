"""CFG recovery unit tests: leaders, edges, dominators, loops."""

import tracemalloc

from repro.alpha.isa import Branch, Operate, Reg, Lit, Ret
from repro.alpha.parser import parse_program
from repro.analysis import build_cfg
from repro.filters.programs import FILTERS


def test_straight_line_single_block():
    cfg = build_cfg(parse_program("ADDQ r1, 1, r2\nRET"))
    assert len(cfg.blocks) == 1
    block = cfg.blocks[0]
    assert (block.start, block.end) == (0, 2)
    assert block.successors == ()
    assert not block.falls_off and not block.fault_targets
    assert cfg.reachable == {0}
    assert cfg.loops == ()


def test_diamond_edges_and_dominators():
    cfg = build_cfg(parse_program("""
        BEQ r1, other
        ADDQ r2, 1, r2
        BR join
 other: SUBQ r2, 1, r2
 join:  RET
    """))
    assert len(cfg.blocks) == 4
    entry, then, other, join = cfg.blocks
    assert set(entry.successors) == {then.index, other.index}
    assert then.successors == (join.index,)
    assert other.successors == (join.index,)
    # The entry dominates everything; neither arm dominates the join.
    assert all(cfg.dominates(0, b) for b in range(4))
    assert not cfg.dominates(then.index, join.index)
    assert not cfg.dominates(other.index, join.index)
    assert cfg.predecessors[join.index] == (then.index, other.index)


def test_backward_branch_is_a_natural_loop():
    cfg = build_cfg(parse_program("""
        LDA  r4, 5(r4)
 loop:  SUBQ r4, 1, r4
        BNE  r4, loop
        RET
    """))
    assert len(cfg.loops) == 1
    loop = cfg.loops[0]
    header = cfg.block_at(1).index
    assert loop.header == header
    assert loop.blocks == {header}
    assert cfg.back_edges == ((header, header),)
    assert cfg.irreducible_edges == ()


def test_unreachable_code_detected():
    cfg = build_cfg(parse_program("""
        RET
        ADDQ r1, 1, r1
        RET
    """))
    assert cfg.reachable == {0}
    assert cfg.blocks[1].index not in cfg.reachable


def test_out_of_range_target_is_fault_not_edge():
    program = (Branch("BEQ", Reg(1), 10), Ret())
    cfg = build_cfg(program)
    entry = cfg.blocks[0]
    assert entry.fault_targets == (11,)
    assert entry.successors == (1,)


def test_fall_off_end_recorded():
    program = (Operate("ADDQ", Reg(1), Lit(1), Reg(1)),)
    cfg = build_cfg(program)
    assert cfg.blocks[0].falls_off
    assert cfg.blocks[0].successors == ()


def test_branch_offset_zero_deduplicates_successor():
    # Taken target == fall-through: one edge, not two.
    program = (Branch("BEQ", Reg(1), 0), Ret())
    cfg = build_cfg(program)
    assert cfg.blocks[0].successors == (1,)


def test_ret_terminates_block_midstream():
    cfg = build_cfg(parse_program("""
        ADDQ r1, 1, r1
        RET
        SUBQ r2, 1, r2
        RET
    """))
    assert [b.start for b in cfg.blocks] == [0, 2]
    assert cfg.blocks[0].successors == ()


def test_empty_program():
    cfg = build_cfg(())
    assert cfg.blocks == ()
    assert cfg.reachable == frozenset()
    assert cfg.loops == ()


def test_block_of_maps_every_pc():
    for spec in FILTERS:
        cfg = build_cfg(spec.program)
        for pc in range(len(cfg.program)):
            block = cfg.block_at(pc)
            assert block.start <= pc < block.end


def test_paper_filters_are_loop_free():
    for spec in FILTERS:
        cfg = build_cfg(spec.program)
        assert cfg.loops == (), spec.name
        assert cfg.irreducible_edges == (), spec.name
        # Every block is reachable in hand-written filters.
        assert cfg.reachable == frozenset(range(len(cfg.blocks)))


def test_irreducible_flow_flagged():
    # Two blocks jumping into each other's middle without a dominating
    # header: entry branches into the middle of a cycle.
    program = parse_program("""
        BEQ r1, second
 first: ADDQ r2, 1, r2
 second: SUBQ r3, 1, r3
        BNE r3, first
        RET
    """)
    cfg = build_cfg(program)
    # The retreating edge second->first is not dominated: irreducible.
    assert cfg.irreducible_edges != () or cfg.loops != ()


def test_long_chain_recovers_in_linear_memory():
    """A 4,000-block chain (each ``BEQ r4, +0`` is its own block) is
    what a 16 KB container can carry.  Per-block dominator sets grew
    quadratically on it, by hundreds of megabytes; one idom per block
    does not."""
    program = (Branch("BEQ", Reg(4), 0),) * 4000 + (Ret(),)
    tracemalloc.start()
    try:
        cfg = build_cfg(program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MB"
    assert len(cfg.blocks) == 4001
    assert cfg.dominates(0, 4000) and not cfg.dominates(4000, 0)
    assert cfg.idom[4000] == 3999
