"""Worst-case cycle estimation from the CFG and the cost model.

PCC (the paper, §2) certifies memory safety but deliberately leaves
termination open; PR 3 papered over that with hand-picked per-invocation
``cycle_budget`` values.  This pass closes the gap the same
ahead-of-time way the rest of the pipeline works:

* **loop-free** programs (every paper filter) get an *exact* bound —
  the longest path through the acyclic CFG, block costs summed with
  :class:`repro.perf.cost.AlphaCostModel`;
* programs with **natural loops** get a sound bound when the interval
  analysis can bound each loop's trip count; the bound is the longest
  acyclic path plus, per loop, ``trips × body cost``;
* everything else (irreducible flow, nested loops, loops the analysis
  cannot bound) is **Unbounded** — ``bound`` is ``None`` and the
  runtime must fall back to an explicit budget.

Trip counts come from an *iteration-indexed* abstract simulation, more
precise than the widened global fixpoint: starting from the join of the
states entering the header from outside the loop, each round pushes the
header state once around the body and refines it along the back edge.
If round ``k`` proves the back edge infeasible, no execution traverses
it ``k`` times, so the body runs at most ``k + 1`` times (``trips = k``
extra passes beyond the one the acyclic path already counts).

Soundness versus the execution engine's accounting: the engine charges
every basic block whole, against the cycle budget, before executing it
— over the same :func:`~repro.alpha.isa.block_partition` this CFG uses —
so observed cycles on any run — including runs that fault mid-block —
never exceed the sum of full block costs along the executed path, which
is exactly what this pass maximises.  Hence a
budget set to the WCET bound can never fire on a run the unbudgeted
engine would complete: ``cycle_budget="auto"`` is verdict-preserving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.alpha.isa import Program
from repro.analysis.cfg import ControlFlowGraph, NaturalLoop, build_cfg
from repro.analysis.intervals import (
    AnalysisContext,
    IntervalAnalysis,
    State,
    _join_states,
    analyze_intervals,
    flow_block,
)
from repro.perf.cost import ALPHA_175, AlphaCostModel

#: Default ceiling on the iteration-indexed loop simulation: a loop the
#: intervals cannot retire within this many abstract rounds is reported
#: Unbounded rather than searched forever.
MAX_LOOP_ITERATIONS = 256


@dataclass(frozen=True)
class LoopBound:
    """The trip-count verdict for one natural loop.

    ``trips`` bounds the number of *back-edge traversals* (extra passes
    beyond the first); ``None`` means the analysis could not bound the
    loop and the whole program is Unbounded.
    """

    header: int
    trips: int | None
    body_cycles: int
    reason: str

    @property
    def bounded(self) -> bool:
        return self.trips is not None

    def __str__(self) -> str:
        if self.trips is None:
            return f"loop@B{self.header}: unbounded ({self.reason})"
        return (f"loop@B{self.header}: <= {self.trips} extra pass(es) "
                f"x {self.body_cycles} cycles")


@dataclass(frozen=True)
class WcetReport:
    """The WCET verdict: ``exact`` / ``bounded`` / ``unbounded``.

    ``bound`` is in cycles of the supplied cost model (``None`` iff
    unbounded); ``acyclic_cycles`` is the longest-path component alone.
    """

    classification: str
    bound: int | None
    acyclic_cycles: int | None
    loop_bounds: tuple[LoopBound, ...]
    block_cycles: Mapping[int, int]

    @property
    def is_bounded(self) -> bool:
        return self.bound is not None

    def budget(self, slack: float = 0.0) -> int | None:
        """The cycle budget implied by this bound: ``ceil(bound * (1 +
        slack))``, at least 1; ``None`` when unbounded."""
        if self.bound is None:
            return None
        return max(1, math.ceil(self.bound * (1.0 + slack)))

    def __str__(self) -> str:
        if self.bound is None:
            return "WCET: unbounded"
        return f"WCET: {self.bound} cycles ({self.classification})"


def block_cycles(cfg: ControlFlowGraph,
                 cost_model: AlphaCostModel) -> dict[int, int]:
    """Total cycle charge of every block (the engine charges blocks
    whole, so per-block sums are the right granularity)."""
    return {block.index: sum(cost_model.cycles(instruction)
                             for _, instruction in cfg.instructions(block))
            for block in cfg.blocks}


def _loop_topo(cfg: ControlFlowGraph,
               loop: NaturalLoop) -> list[int] | None:
    """Topological order of the loop body with the back edge removed;
    ``None`` if the remainder is still cyclic (nested/irreducible)."""
    removed = {(source, loop.header) for source in loop.back_edge_sources}
    indegree = {index: 0 for index in loop.blocks}
    for index in loop.blocks:
        for succ in cfg.blocks[index].successors:
            if succ in loop.blocks and (index, succ) not in removed:
                indegree[succ] += 1
    ready = sorted(index for index, count in indegree.items()
                   if count == 0)
    order: list[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for succ in cfg.blocks[node].successors:
            if succ in loop.blocks and (node, succ) not in removed:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
    if len(order) != len(loop.blocks):
        return None
    return order


def _one_pass(cfg: ControlFlowGraph, loop: NaturalLoop, topo: list[int],
              header_state: State) -> State | None:
    """Push a header-entry state once around the body; returns the
    refined state flowing along the back edge (``None`` = the back edge
    is infeasible from ``header_state``)."""
    removed = {(source, loop.header) for source in loop.back_edge_sources}
    states: dict[int, State] = {loop.header: header_state}
    back_state: State | None = None
    for index in topo:
        state = states.get(index)
        if state is None:
            continue
        for succ, edge_state in flow_block(cfg, cfg.blocks[index], state):
            if edge_state is None:
                continue
            if (index, succ) in removed:
                back_state = _join_states(back_state, edge_state)
            elif succ in loop.blocks:
                states[succ] = _join_states(states.get(succ), edge_state)
    return back_state


def bound_loop(analysis: IntervalAnalysis, loop: NaturalLoop,
               costs: Mapping[int, int],
               max_iterations: int = MAX_LOOP_ITERATIONS) -> LoopBound:
    """Bound one natural loop's back-edge traversals (module docstring)."""
    cfg = analysis.cfg
    body = sum(costs[index] for index in loop.blocks)
    if len(loop.back_edge_sources) != 1:
        return LoopBound(loop.header, None, body,
                         "multiple back edges")
    nested = [other.header for other in cfg.loops
              if other.header != loop.header
              and other.header in loop.blocks]
    if nested:
        return LoopBound(loop.header, None, body,
                         f"nested loop at B{nested[0]}")
    topo = _loop_topo(cfg, loop)
    if topo is None:
        return LoopBound(loop.header, None, body,
                         "cyclic body after back-edge removal")
    state = analysis.entry_state_from_outside(loop.blocks, loop.header)
    if state is None:
        # The analysis already proved the loop unreachable from outside;
        # it contributes nothing to any execution.
        return LoopBound(loop.header, 0, body, "unreachable")
    for trips in range(max_iterations + 1):
        next_state = _one_pass(cfg, loop, topo, state)
        if next_state is None:
            return LoopBound(loop.header, trips, body, "bounded")
        if next_state == state:
            return LoopBound(loop.header, None, body,
                             "abstract state reached a non-bottom "
                             "fixpoint")
        state = next_state
    return LoopBound(loop.header, None, body,
                     f"no bound within {max_iterations} abstract rounds")


def estimate_wcet(program: Program | ControlFlowGraph,
                  context: AnalysisContext | None = None,
                  cost_model: AlphaCostModel | None = None,
                  analysis: IntervalAnalysis | None = None,
                  max_loop_iterations: int = MAX_LOOP_ITERATIONS,
                  ) -> WcetReport:
    """Estimate the worst-case cycle count of ``program``.

    Accepts a raw program, a prebuilt CFG, or (via ``analysis``) a
    finished interval analysis to reuse.  ``context`` defaults to the
    zero-entry :class:`AnalysisContext`, matching the machine's cleared
    register file.
    """
    model = cost_model or ALPHA_175
    if analysis is not None:
        cfg = analysis.cfg
    elif isinstance(program, ControlFlowGraph):
        cfg = program
    else:
        cfg = build_cfg(program)
    if not cfg.blocks:
        return WcetReport("exact", 0, 0, (), {})
    costs = block_cycles(cfg, model)

    if cfg.irreducible_edges:
        return WcetReport("unbounded", None, None, (), costs)

    if not cfg.loops:
        bound = cfg.longest_path(costs)
        return WcetReport("exact", bound, bound, (), costs)

    if analysis is None:
        analysis = analyze_intervals(cfg, context)
    loop_bounds = tuple(bound_loop(analysis, loop, costs,
                                   max_loop_iterations)
                        for loop in cfg.loops)
    acyclic = cfg.longest_path(costs)
    if any(not bound.bounded for bound in loop_bounds):
        return WcetReport("unbounded", None, acyclic, loop_bounds, costs)
    total = acyclic + sum(bound.trips * bound.body_cycles
                          for bound in loop_bounds)
    return WcetReport("bounded", total, acyclic, loop_bounds, costs)
