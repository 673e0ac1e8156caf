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
* **reachability** — forward DFS from the entry block;
* **dominators** — iterative dataflow over reachable blocks in reverse
  post order;
* **natural loops** — one per back edge ``u -> h`` where ``h``
  dominates ``u``, merged per header; the body is everything that can
  reach ``u`` without passing through ``h``.

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
        self.predecessors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(p.index for p in blocks
                         if block.index in p.successors))
            for block in blocks)
        self.reachable: frozenset[int] = self._reach()
        self.dominators: dict[int, frozenset[int]] = self._dominators()
        self.back_edges: tuple[tuple[int, int], ...] = tuple(
            (block.index, succ)
            for block in blocks if block.index in self.reachable
            for succ in block.successors
            if succ in self.dominators.get(block.index, frozenset()))
        self.loops: tuple[NaturalLoop, ...] = self._natural_loops()
        self.retreating_edges: tuple[tuple[int, int], ...] = \
            self._retreating_edges()

    # -- construction helpers -------------------------------------------

    def _reach(self) -> frozenset[int]:
        seen = {0} if self.blocks else set()
        stack = [0] if self.blocks else []
        while stack:
            for succ in self.blocks[stack.pop()].successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset(seen)

    def _post_order(self) -> list[int]:
        order: list[int] = []
        seen: set[int] = set()

        def visit(index: int) -> None:
            stack = [(index, iter(self.blocks[index].successors))]
            seen.add(index)
            while stack:
                node, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(
                            (succ, iter(self.blocks[succ].successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        if self.blocks:
            visit(0)
        return order

    def _dominators(self) -> dict[int, frozenset[int]]:
        reachable = self.reachable
        if not reachable:
            return {}
        rpo = list(reversed(self._post_order()))
        every = frozenset(reachable)
        dom: dict[int, frozenset[int]] = {index: every for index in reachable}
        dom[0] = frozenset({0})
        changed = True
        while changed:
            changed = False
            for index in rpo:
                if index == 0:
                    continue
                preds = [p for p in self.predecessors[index]
                         if p in reachable]
                if not preds:
                    continue
                new = frozenset.intersection(*(dom[p] for p in preds))
                new = new | {index}
                if new != dom[index]:
                    dom[index] = new
                    changed = True
        return dom

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

    def _retreating_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges against the DFS order (superset of the back edges);
        any retreating edge that is *not* a back edge is irreducible."""
        position = {index: rank
                    for rank, index in enumerate(self._post_order())}
        return tuple(
            (block.index, succ)
            for block in self.blocks if block.index in self.reachable
            for succ in block.successors
            if succ in position and position[succ] >= position[block.index])

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
        return a in self.dominators.get(b, frozenset())

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
