"""Basic-block control-flow-graph recovery over decoded Alpha programs.

The static-analysis subsystem works on exactly the instruction vector the
consumer received — the same :class:`~repro.alpha.isa.Program` that
validation decodes — so nothing here trusts the producer.  Unlike
:func:`repro.alpha.isa.validate_program`, CFG recovery never *rejects* a
program: malformed control flow (branches out of the code region,
fall-through past the last instruction) is recorded as explicit fault
exits so that the downstream passes (intervals, WCET, lint) can reason
about exactly what the hardware would do — the concrete machine raises
:class:`~repro.errors.MachineError` at those points, and the execution
engine compiles them to trap slots.

Recovery follows the textbook recipe:

* **blocks** — :func:`repro.alpha.isa.block_partition`, the partition
  the execution engine and the batch drivers also use (leaders: pc 0,
  every in-range branch target, and every instruction following a
  control transfer);
* **edges** — :func:`repro.alpha.isa.block_exits`, the successor rule
  the engine and the batch drivers also use: fall-through plus taken
  targets; ``RET`` has no successors; out-of-range targets become
  fault exits, not edges;
* **reachability** — one forward DFS from the entry block, whose post
  order the later passes share;
* **dominators** — one immediate dominator per block (Cooper, Harvey
  and Kennedy's iterative algorithm), and dominator-tree pre-order
  intervals that answer :meth:`~ControlFlowGraph.dominates` in constant
  time, so recovery stays linear on the long block chains a 16 KB
  container can carry (per-block dominator sets were quadratic there);
* **natural loops** — one per back edge ``u -> h`` where ``h``
  dominates ``u``, merged per header; the body is everything that can
  reach ``u`` without passing through ``h``.

:meth:`~ControlFlowGraph.longest_path` is the one longest-path walk:
WCET weighs blocks by cycles, the batch compiler by steps and cycles.

Retreating edges that are *not* back edges (irreducible control flow)
are surfaced separately: the interval analysis still converges on them
(widening is trigger-counted, not loop-header-gated), but the WCET pass
refuses to bound them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alpha.isa import Program, block_exits, block_partition


@dataclass(frozen=True)
class BasicBlock:
    """One maximal straight-line run of instructions.

    ``start``/``end`` delimit the pc range (``end`` exclusive);
    ``successors`` are *block indices*; ``fault_targets`` are the pcs of
    control transfers out of this block that leave the program (the
    machine faults there); ``falls_off`` marks a block whose
    fall-through leaves the program (same fault, implicit transfer).
    """

    index: int
    start: int
    end: int
    successors: tuple[int, ...]
    fault_targets: tuple[int, ...] = ()
    falls_off: bool = False

    @property
    def terminator_pc(self) -> int:
        return self.end - 1

    def __str__(self) -> str:
        succ = ", ".join(f"B{s}" for s in self.successors) or "exit"
        return f"B{self.index}[pc {self.start}..{self.end - 1}] -> {succ}"


@dataclass(frozen=True)
class NaturalLoop:
    """A natural loop: header block, body blocks, back-edge sources."""

    header: int
    blocks: frozenset[int]
    back_edge_sources: tuple[int, ...]

    def __str__(self) -> str:
        return (f"loop@B{self.header} "
                f"{{{', '.join(f'B{b}' for b in sorted(self.blocks))}}}")


class ControlFlowGraph:
    """The recovered CFG; build with :func:`build_cfg`."""

    def __init__(self, program: Program, blocks: tuple[BasicBlock, ...],
                 block_of: tuple[int, ...]) -> None:
        self.program = program
        self.blocks = blocks
        #: pc -> index of the containing block.
        self.block_of = block_of
        predecessors: list[list[int]] = [[] for _ in blocks]
        for block in blocks:
            for succ in block.successors:
                predecessors[succ].append(block.index)
        self.predecessors: tuple[tuple[int, ...], ...] = tuple(
            map(tuple, predecessors))
        #: The reachable blocks in DFS post order (the entry last).
        self.post_order: tuple[int, ...] = self._post_order()
        self.reachable: frozenset[int] = frozenset(self.post_order)
        rank = {index: place for place, index in enumerate(self.post_order)}
        #: Reachable block -> its immediate dominator (the entry maps to
        #: itself).
        self.idom: dict[int, int] = self._immediate_dominators(rank)
        self._dominator_span = self._dominator_spans()
        #: Edges against the DFS order (a superset of the back edges);
        #: any retreating edge that is *not* a back edge is irreducible.
        self.retreating_edges: tuple[tuple[int, int], ...] = tuple(
            (block.index, succ)
            for block in blocks if block.index in rank
            for succ in block.successors
            if rank[succ] >= rank[block.index])
        self.back_edges: tuple[tuple[int, int], ...] = tuple(
            (source, header) for source, header in self.retreating_edges
            if self.dominates(header, source))
        self.loops: tuple[NaturalLoop, ...] = self._natural_loops()

    # -- construction helpers -------------------------------------------

    def _post_order(self) -> tuple[int, ...]:
        if not self.blocks:
            return ()
        order: list[int] = []
        seen = {0}
        stack = [(0, iter(self.blocks[0].successors))]
        while stack:
            node, successors = stack[-1]
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.blocks[succ].successors)))
                    break
            else:
                order.append(node)
                stack.pop()
        return tuple(order)

    def _immediate_dominators(self, rank: dict[int, int]) -> dict[int, int]:
        """Cooper, Harvey and Kennedy's "A Simple, Fast Dominance
        Algorithm" over the post-order ``rank``.  Predecessors go deepest
        first (descending index), so a shared reject exit costs one idom
        step per predecessor, not one climb to the entry each."""
        idom = {0: 0} if self.post_order else {}
        changed = True
        while changed:
            changed = False
            for index in self.post_order[-2::-1]:
                new = None
                for pred in reversed(self.predecessors[index]):
                    if pred not in idom:
                        continue    # unreachable, or not yet placed
                    if new is None:
                        new = pred
                        continue
                    finger = pred
                    while finger != new:
                        while rank[finger] < rank[new]:
                            finger = idom[finger]
                        while rank[new] < rank[finger]:
                            new = idom[new]
                if idom.get(index) != new:
                    idom[index] = new
                    changed = True
        return idom

    def _dominator_spans(self) -> dict[int, tuple[int, int]]:
        """Each reachable block's ``[start, end)`` pre-order span in the
        dominator tree: ``a`` dominates ``b`` iff ``b`` starts in
        ``a``'s span."""
        children: dict[int, list[int]] = {}
        for index in self.post_order[-2::-1]:
            children.setdefault(self.idom[index], []).append(index)
        order: list[int] = []
        stack = [0] if self.idom else []
        while stack:
            order.append(stack.pop())
            stack.extend(children.get(order[-1], ()))
        size = dict.fromkeys(order, 1)
        for index in reversed(order[1:]):   # every child before its idom
            size[self.idom[index]] += size[index]
        return {index: (place, place + size[index])
                for place, index in enumerate(order)}

    def _natural_loops(self) -> tuple[NaturalLoop, ...]:
        bodies: dict[int, set[int]] = {}
        sources: dict[int, list[int]] = {}
        for source, header in self.back_edges:
            body = bodies.setdefault(header, {header})
            sources.setdefault(header, []).append(source)
            stack = [source]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(p for p in self.predecessors[node]
                             if p in self.reachable)
        return tuple(NaturalLoop(header, frozenset(body),
                                 tuple(sorted(sources[header])))
                     for header, body in sorted(bodies.items()))

    # -- queries ---------------------------------------------------------

    @property
    def irreducible_edges(self) -> tuple[tuple[int, int], ...]:
        back = set(self.back_edges)
        return tuple(edge for edge in self.retreating_edges
                     if edge not in back)

    def block_at(self, pc: int) -> BasicBlock:
        return self.blocks[self.block_of[pc]]

    def dominates(self, a: int, b: int) -> bool:
        """Does block ``a`` dominate block ``b``? (reachable blocks)"""
        span_a = self._dominator_span.get(a)
        span_b = self._dominator_span.get(b)
        return span_a is not None and span_b is not None \
            and span_a[0] <= span_b[0] < span_a[1]

    def longest_path(self, weights) -> int:
        """The heaviest path from the entry through the reachable
        blocks with the back edges removed, a block weighing
        ``weights[index]``.  Callers guarantee the flow is reducible, so
        what remains is acyclic and the post order visits every
        successor before its predecessors."""
        back = set(self.back_edges)
        longest: dict[int, int] = {}
        for index in self.post_order:
            longest[index] = weights[index] + max(
                (longest[succ] for succ in self.blocks[index].successors
                 if (index, succ) not in back), default=0)
        return longest.get(0, 0)

    def instructions(self, block: BasicBlock):
        """The instruction slice of ``block``, with absolute pcs."""
        for pc in range(block.start, block.end):
            yield pc, self.program[pc]


def build_cfg(program: Program) -> ControlFlowGraph:
    """Recover the basic-block CFG of ``program`` (never raises on
    malformed control flow; see the module docstring)."""
    size = len(program)
    partition = block_partition(program)
    index_of_start = {start: rank for rank, (start, _) in enumerate(partition)}

    blocks: list[BasicBlock] = []
    block_of = [0] * size
    for rank, (start, end) in enumerate(partition):
        for pc in range(start, end):
            block_of[pc] = rank
        taken, fall_through = block_exits(program, end)
        successors: list[int] = []
        faults: list[int] = []
        if taken is not None:
            if 0 <= taken < size:
                successors.append(index_of_start[taken])
            else:
                faults.append(taken)
        falls_off = fall_through == size
        if fall_through is not None and not falls_off:
            successors.append(index_of_start[fall_through])
        # A branch whose taken target IS the fall-through (offset 0)
        # yields the same successor twice; the edge set is deduplicated.
        blocks.append(BasicBlock(rank, start, end,
                                 tuple(dict.fromkeys(successors)),
                                 tuple(faults), falls_off))
    return ControlFlowGraph(program, tuple(blocks), tuple(block_of))
