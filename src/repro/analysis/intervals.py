"""Sound interval abstract interpretation over 64-bit machine words.

The domain is the classic interval lattice over the *unsigned* value of
a register (every register holds ``value & (2**64 - 1)``, exactly as
:mod:`repro.alpha.machine` stores it): an abstract value is a pair
``lo <= hi`` meaning "every concrete value lies in ``[lo, hi]``", bottom
(``None``) means "this point is unreachable", and ``TOP`` is the full
word range.  Signed branch conditions (BGE/BLT/BGT/BLE test the two's-
complement sign) refine against the unsigned images of the signed
half-ranges: ``signed >= 0`` is ``[0, 2**63 - 1]`` and ``signed < 0`` is
``[2**63, 2**64 - 1]``, so no separate signed domain is needed.

Soundness discipline — every transfer function over-approximates the
concrete operator, :func:`repro.alpha.isa.operate`, which it applies
exactly when both operands are constants:

* wrap-around arithmetic (``ADDQ``/``SUBQ``/``LDA``/``LDAH``) maps the
  exact unbounded-endpoint interval through ``mod 2**64``; if the image
  is not contiguous, the result is ``TOP``;
* bit operations use the standard bounds (``AND`` shrinks below the
  smaller upper bound, ``BIS``/``XOR`` stay below the next power of
  two); a byte-lane extract (``EXTBL``/``EXTWL``/``EXTLL``) stays below
  its lane mask and, for a constant lane ``b``, below
  ``hi >> 8·(b & 7)``;
* comparisons fold to singletons when the operand intervals decide
  them;
* loads return ``TOP`` (memory contents are not tracked).

The fixpoint engine is a worklist over the CFG with **widening**: a
block whose entry state keeps growing is widened to ``TOP`` per drifting
bound after ``widen_after`` joins.  The trigger is a per-block join
counter rather than a loop-header test, so termination holds even on
irreducible control flow.  Branch refinement is applied per *edge*, so
the state entering a loop body already reflects the loop guard.

Every ``LDQ``/``STQ`` is classified against the policy's readable /
writable regions (:class:`AnalysisContext`): ``safe`` (the whole address
interval fits inside one region, 8-byte access included), ``escape``
(no address in the interval can legally complete — every concrete
execution reaching the instruction faults), or ``unknown`` (the interval
straddles region boundaries; run-time behaviour depends on data the
analysis cannot see).  Alignment is classified the same way.  Only the
*definite* verdicts (``escape``, never-aligned) are strong enough for
the loader's pre-screen to act on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from repro.alpha.isa import (
    NUM_REGS,
    WORD_MASK,
    Branch,
    Instruction,
    Lda,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Program,
    Ret,
    Stq,
    block_exits,
    operate,
)
from repro.analysis.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.filters.packets import MAX_FRAME, MIN_FRAME
from repro.filters.policy import PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE
from repro.vcgen.policy import SafetyPolicy

_SIGN = 1 << 63


class Interval(NamedTuple):
    """A non-empty unsigned interval ``[lo, hi]``; bottom is ``None``."""

    lo: int
    hi: int

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        if self.is_constant:
            return f"{{{self.lo:#x}}}" if self.lo > 9 else f"{{{self.lo}}}"
        if self == TOP:
            return "T"
        return f"[{self.lo:#x}, {self.hi:#x}]"


TOP = Interval(0, WORD_MASK)
ZERO = Interval(0, 0)
BIT = Interval(0, 1)

#: An abstract register file: one interval per register, or ``None``
#: for an unreachable program point.
State = tuple  # tuple[Interval, ...]


def const(value: int) -> Interval:
    value &= WORD_MASK
    return Interval(value, value)


def join(a: Interval | None, b: Interval | None) -> Interval | None:
    if a is None:
        return b
    if b is None:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def meet(a: Interval, lo: int, hi: int) -> Interval | None:
    new_lo = max(a.lo, lo)
    new_hi = min(a.hi, hi)
    if new_lo > new_hi:
        return None
    return Interval(new_lo, new_hi)


def widen(old: Interval, new: Interval) -> Interval:
    """Classic interval widening: a drifting bound jumps to the limit."""
    return Interval(0 if new.lo < old.lo else old.lo,
                    WORD_MASK if new.hi > old.hi else old.hi)


def _wrap(lo: int, hi: int) -> Interval:
    """The image of the exact (unbounded-endpoint) interval under
    ``mod 2**64``; ``TOP`` when the image is not contiguous."""
    if hi - lo >= WORD_MASK:
        return TOP
    lo_w = lo & WORD_MASK
    hi_w = hi & WORD_MASK
    if lo_w <= hi_w:
        return Interval(lo_w, hi_w)
    return TOP


# -- transfer functions ------------------------------------------------


def _bitlen_bound(a: Interval, b: Interval) -> int:
    return (1 << max(a.hi.bit_length(), b.hi.bit_length())) - 1


#: The width mask of each byte-lane extract.
_EXTRACT_MASKS = {"EXTBL": 0xFF, "EXTWL": 0xFFFF, "EXTLL": 0xFFFFFFFF}


def operate_interval(name: str, a: Interval, b: Interval) -> Interval:
    """Abstract counterpart of :func:`repro.alpha.isa.operate`."""
    if a.is_constant and b.is_constant:
        return const(operate(name, a.lo, b.lo))
    if name == "ADDQ":
        return _wrap(a.lo + b.lo, a.hi + b.hi)
    if name == "SUBQ":
        return _wrap(a.lo - b.hi, a.hi - b.lo)
    if name == "MULQ":
        if a.hi * b.hi <= WORD_MASK:
            return Interval(a.lo * b.lo, a.hi * b.hi)
        return TOP
    if name == "AND":
        return Interval(0, min(a.hi, b.hi))
    if name == "BIS":
        return Interval(max(a.lo, b.lo), _bitlen_bound(a, b))
    if name == "XOR":
        return Interval(0, _bitlen_bound(a, b))
    if name == "SLL":
        if b.is_constant:
            shift = b.lo & 63
            if a.hi << shift <= WORD_MASK:
                return Interval(a.lo << shift, a.hi << shift)
        return TOP
    if name == "SRL":
        if b.is_constant:
            shift = b.lo & 63
            return Interval(a.lo >> shift, a.hi >> shift)
        return Interval(0, a.hi)
    if name == "CMPEQ":
        if a.hi < b.lo or b.hi < a.lo:
            return ZERO
        return BIT
    if name == "CMPULT":
        if a.hi < b.lo:
            return const(1)
        if a.lo >= b.hi:
            return ZERO
        return BIT
    if name == "CMPULE":
        if a.hi <= b.lo:
            return const(1)
        if a.lo > b.hi:
            return ZERO
        return BIT
    if name in _EXTRACT_MASKS:
        mask = _EXTRACT_MASKS[name]
        if b.is_constant:
            return Interval(0, min(a.hi >> 8 * (b.lo & 7), mask))
        return Interval(0, min(a.hi, mask))
    return TOP  # unknown operate: decode would have rejected it


def _rb_interval(state: State, rb) -> Interval:
    if isinstance(rb, Lit):
        return const(rb.value)
    return state[rb.index]


def address_interval(state: State, instruction: Ldq | Stq) -> Interval:
    """The abstract address of a memory access, wrap-exact like the
    machine's ``(base + disp) & WORD_MASK``."""
    base = state[instruction.rs.index] if isinstance(instruction, Ldq) \
        else state[instruction.rd.index]
    disp = instruction.disp
    return _wrap(base.lo + disp, base.hi + disp)


def transfer(state: State, instruction: Instruction) -> State:
    """Abstractly execute one non-control instruction."""
    if isinstance(instruction, Operate):
        # The zero idiom SUBQ/XOR r, r, r is exactly 0 no matter what
        # interval r carries — the interval product of a register with
        # itself loses the correlation, so fold it here.  This is what
        # keeps mid-program re-zeroed loop counters (the KV family's
        # second table scan) constant and their loops WCET-bounded.
        if (instruction.name in ("SUBQ", "XOR")
                and not isinstance(instruction.rb, Lit)
                and instruction.ra.index == instruction.rb.index):
            return _assign(state, instruction.rc.index, const(0))
        value = operate_interval(instruction.name,
                                 state[instruction.ra.index],
                                 _rb_interval(state, instruction.rb))
        return _assign(state, instruction.rc.index, value)
    if isinstance(instruction, Lda):
        base = state[instruction.rs.index]
        disp = instruction.disp
        return _assign(state, instruction.rd.index,
                       _wrap(base.lo + disp, base.hi + disp))
    if isinstance(instruction, Ldah):
        base = state[instruction.rs.index]
        disp = instruction.disp << 16
        return _assign(state, instruction.rd.index,
                       _wrap(base.lo + disp, base.hi + disp))
    if isinstance(instruction, Ldq):
        return _assign(state, instruction.rd.index, TOP)
    # STQ, Branch, Br, Ret do not write registers.
    return state


def _assign(state: State, index: int, value: Interval) -> State:
    updated = list(state)
    updated[index] = value
    return tuple(updated)


# -- branch refinement -------------------------------------------------

#: Unsigned images of the signed half-planes.
_NONNEG = (0, _SIGN - 1)
_NEG = (_SIGN, WORD_MASK)


def refine_branch(state: State, name: str, reg: int,
                  taken: bool) -> State | None:
    """Refine ``state`` with the fact that branch ``name`` on register
    ``reg`` was (or was not) taken; ``None`` if the edge is infeasible."""
    value = state[reg]
    if name == "BEQ":
        refined = meet(value, 0, 0) if taken else _refine_nonzero(value)
    elif name == "BNE":
        refined = _refine_nonzero(value) if taken else meet(value, 0, 0)
    elif name == "BGE":
        bound = _NONNEG if taken else _NEG
        refined = meet(value, *bound)
    elif name == "BLT":
        bound = _NEG if taken else _NONNEG
        refined = meet(value, *bound)
    elif name == "BGT":
        refined = (meet(value, 1, _SIGN - 1) if taken
                   else _union_meet(value, (0, 0), _NEG))
    elif name == "BLE":
        refined = (_union_meet(value, (0, 0), _NEG) if taken
                   else meet(value, 1, _SIGN - 1))
    else:
        refined = value
    if refined is None:
        return None
    return _assign(state, reg, refined)


def _refine_nonzero(value: Interval) -> Interval | None:
    if value.lo == 0:
        if value.hi == 0:
            return None
        return Interval(1, value.hi)
    return value


def _union_meet(value: Interval, first: tuple[int, int],
                second: tuple[int, int]) -> Interval | None:
    """Meet with a union of two ranges, hulled back into one interval."""
    return join(meet(value, *first), meet(value, *second))


# -- the invocation context -------------------------------------------


@dataclass(frozen=True)
class AnalysisContext:
    """Entry-state assumptions plus the policy's memory regions.

    ``entry`` maps register index to its initial interval; unmentioned
    registers start at ``{0}`` (the machine zeroes the register file).
    ``readable``/``writable`` are ``(base, size)`` pairs naming where an
    8-byte access can legally land; ``None`` disables escape
    classification (the policy's region structure is unknown — every
    access classifies as ``unknown``).

    The regions are the policy's *canonical invocation environment* —
    the concrete bases its semantic checkers and the dispatch runtime
    use.  Escape verdicts are therefore statements about invocations in
    that environment, which is exactly what the runtime dispatches.
    """

    name: str = "anonymous"
    entry: Mapping[int, Interval] = field(default_factory=dict)
    readable: tuple[tuple[int, int], ...] | None = None
    writable: tuple[tuple[int, int], ...] | None = None

    def entry_state(self) -> State:
        return tuple(self.entry.get(index, ZERO)
                     for index in range(NUM_REGS))


def _pad8(size: int) -> int:
    return (size + 7) & ~7


def packet_filter_context(min_frame: int = MIN_FRAME,
                          max_frame: int = MAX_FRAME,
                          packet_base: int = PACKET_BASE,
                          scratch_base: int = SCRATCH_BASE,
                          ) -> AnalysisContext:
    """The §3 packet-filter invocation: r1 = packet, r2 = length in
    ``[min_frame, max_frame]``, r3 = scratch.  The packet region is
    padded to a word boundary exactly as the kernel maps it."""
    packet = (packet_base, _pad8(max_frame))
    scratch = (scratch_base, SCRATCH_SIZE)
    return AnalysisContext(
        name="packet-filter",
        entry={1: const(packet_base),
               2: Interval(min_frame, max_frame),
               3: const(scratch_base)},
        readable=(packet, scratch),
        writable=(scratch,),
    )


def checksum_context(max_length: int = 1 << 16,
                     buffer_base: int | None = None) -> AnalysisContext:
    """The checksum-buffer policy: r1 = read-only buffer, r2 = length
    (a positive multiple of 8)."""
    from repro.filters.checksum import BUFFER_BASE
    base = BUFFER_BASE if buffer_base is None else buffer_base
    return AnalysisContext(
        name="checksum-buffer",
        entry={1: const(base), 2: Interval(8, max_length)},
        readable=((base, max_length),),
        writable=(),
    )


def kv_context(min_frame: int = MIN_FRAME,
               max_frame: int = MAX_FRAME,
               packet_base: int = PACKET_BASE,
               state_base: int | None = None) -> AnalysisContext:
    """The write-capable KV-family invocation: r1 = writable packet,
    r2 = length in ``[min_frame, max_frame]``, r3 = the persistent
    160-byte state area (readable and writable)."""
    from repro.filters.kv import KV_STATE_BASE, STATE_SIZE
    base = KV_STATE_BASE if state_base is None else state_base
    packet = (packet_base, _pad8(max_frame))
    state = (base, STATE_SIZE)
    return AnalysisContext(
        name="kv-packet",
        entry={1: const(packet_base),
               2: Interval(min_frame, max_frame),
               3: const(base)},
        readable=(packet, state),
        writable=(packet, state),
    )


def context_for_policy(policy: SafetyPolicy) -> AnalysisContext:
    """The canonical context for a known policy; policies the analysis
    has no region model for get a permissive context (entry registers
    unconstrained, no escape classification)."""
    if policy.name == "packet-filter":
        return packet_filter_context()
    if policy.name == "checksum-buffer":
        return checksum_context()
    if policy.name == "kv-packet":
        return kv_context()
    return AnalysisContext(name=policy.name,
                           entry={index: TOP for index in range(NUM_REGS)})


# -- access classification --------------------------------------------


@dataclass(frozen=True)
class MemoryAccess:
    """One classified LDQ/STQ site.

    ``verdict``: ``safe`` / ``unknown`` / ``escape`` (see module
    docstring); ``alignment``: ``always`` / ``maybe`` / ``never``.
    ``definite_fault`` is True when *every* concrete execution reaching
    this pc faults — the only condition the pre-screen may reject on.
    """

    pc: int
    kind: str                     # "rd" or "wr"
    interval: Interval
    verdict: str
    alignment: str

    @property
    def definite_fault(self) -> bool:
        return self.verdict == "escape" or self.alignment == "never"


def _classify_regions(interval: Interval,
                      regions: tuple[tuple[int, int], ...] | None) -> str:
    if regions is None:
        return "unknown"
    for base, size in regions:
        if size >= 8 and base <= interval.lo and interval.hi + 8 <= base + size:
            return "safe"
    for base, size in regions:
        if size >= 8 and interval.lo <= base + size - 8 \
                and base <= interval.hi:
            return "unknown"
    return "escape"


def _classify_alignment(interval: Interval) -> str:
    if interval.is_constant:
        return "always" if interval.lo & 7 == 0 else "never"
    first_aligned = (interval.lo + 7) & ~7
    if first_aligned > interval.hi:
        return "never"
    # A non-constant interval containing an aligned value may contain
    # unaligned ones too; proving all-aligned would need a stride
    # (congruence) domain, which intervals cannot express.
    return "maybe"


def classify_access(state: State, instruction: Ldq | Stq,
                    context: AnalysisContext, pc: int) -> MemoryAccess:
    interval = address_interval(state, instruction)
    if isinstance(instruction, Ldq):
        kind, regions = "rd", context.readable
    else:
        kind, regions = "wr", context.writable
    return MemoryAccess(pc=pc, kind=kind, interval=interval,
                        verdict=_classify_regions(interval, regions),
                        alignment=_classify_alignment(interval))


# -- the fixpoint engine ----------------------------------------------


def _join_states(a: State | None, b: State | None) -> State | None:
    if a is None:
        return b
    if b is None:
        return a
    return tuple(join(x, y) for x, y in zip(a, b))


def _widen_states(old: State, new: State) -> State:
    return tuple(widen(x, y) for x, y in zip(old, new))


def flow_block(cfg: ControlFlowGraph, block: BasicBlock, state: State
               ) -> list[tuple[int, State | None]]:
    """Push ``state`` through ``block``; returns per-successor edge
    states with branch refinement applied (``None`` = edge infeasible)."""
    for pc in range(block.start, block.end - 1):
        state = transfer(state, cfg.program[pc])
    terminator = cfg.program[block.end - 1]
    if isinstance(terminator, Branch):
        reg = terminator.rs.index
        taken_target = block_exits(cfg.program, block.end)[0]
        edges = []
        for succ in block.successors:
            succ_start = cfg.blocks[succ].start
            taken = succ_start == taken_target
            fallthrough = succ_start == block.end
            if taken and fallthrough:
                # offset 0: both arcs land on the same block — no
                # refinement is sound for the merged edge.
                edges.append((succ, state))
            else:
                edges.append((succ, refine_branch(
                    state, terminator.name, reg, taken)))
        return edges
    state = transfer(state, terminator)
    return [(succ, state) for succ in block.successors]


class IntervalAnalysis:
    """The fixpoint result: per-block entry states, per-edge refined
    states, and every memory access classified."""

    def __init__(self, cfg: ControlFlowGraph, context: AnalysisContext,
                 widen_after: int = 3) -> None:
        self.cfg = cfg
        self.context = context
        self.block_entry: dict[int, State] = {}
        self.edge_states: dict[tuple[int, int], State] = {}
        self._widen_after = widen_after
        self._run()
        self.accesses: tuple[MemoryAccess, ...] = self._classify_all()

    # -- engine ----------------------------------------------------------

    def _flow(self, block: BasicBlock, state: State
              ) -> list[tuple[int, State | None]]:
        return flow_block(self.cfg, block, state)

    def _run(self) -> None:
        if not self.cfg.blocks:
            return
        entry = self.context.entry_state()
        joins: dict[int, int] = {}
        self.block_entry[0] = entry
        worklist = [0]
        while worklist:
            index = worklist.pop()
            block = self.cfg.blocks[index]
            state = self.block_entry.get(index)
            if state is None:
                continue
            for succ, edge_state in self._flow(block, state):
                self.edge_states[(index, succ)] = edge_state
                if edge_state is None:
                    continue
                old = self.block_entry.get(succ)
                new = _join_states(old, edge_state)
                if old is not None and new == old:
                    continue
                if old is not None:
                    joins[succ] = joins.get(succ, 0) + 1
                    if joins[succ] > self._widen_after:
                        new = _widen_states(old, new)
                        if new == old:
                            continue
                self.block_entry[succ] = new
                if succ not in worklist:
                    worklist.append(succ)

    # -- per-pc queries --------------------------------------------------

    def state_at(self, pc: int) -> State | None:
        """The abstract register file *before* executing ``pc``;
        ``None`` when the analysis proves the pc unreachable."""
        if not 0 <= pc < len(self.cfg.program):
            raise IndexError(f"pc {pc} outside program")
        block = self.cfg.block_at(pc)
        state = self.block_entry.get(block.index)
        if state is None:
            return None
        for earlier in range(block.start, pc):
            state = transfer(state, self.cfg.program[earlier])
        return state

    def exit_interval(self, reg: int = 0) -> Interval | None:
        """Join of ``reg``'s interval over every reachable RET."""
        result: Interval | None = None
        for pc, instruction in enumerate(self.cfg.program):
            if isinstance(instruction, Ret):
                state = self.state_at(pc)
                if state is not None:
                    result = join(result, state[reg])
        return result

    def entry_state_from_outside(self, loop_blocks: frozenset[int],
                                 header: int) -> State | None:
        """Join of the states entering ``header`` along non-loop edges
        (plus the program entry state when the header is the entry
        block) — the abstraction of "first arrival" at the loop."""
        state: State | None = None
        if header == 0:
            state = self.context.entry_state()
        for pred in self.cfg.predecessors[header]:
            if pred in loop_blocks:
                continue
            state = _join_states(state,
                                 self.edge_states.get((pred, header)))
        return state

    # -- classification --------------------------------------------------

    def _classify_all(self) -> tuple[MemoryAccess, ...]:
        accesses = []
        for pc, instruction in enumerate(self.cfg.program):
            if not isinstance(instruction, (Ldq, Stq)):
                continue
            state = self.state_at(pc)
            if state is None:
                continue    # unreachable: nothing to classify
            accesses.append(classify_access(state, instruction,
                                            self.context, pc))
        return tuple(accesses)

    @property
    def flagged(self) -> tuple[MemoryAccess, ...]:
        """Accesses whose address interval can leave the policy regions
        (``escape`` or ``unknown``) or misalign."""
        return tuple(access for access in self.accesses
                     if access.verdict != "safe"
                     or access.alignment != "always")

    @property
    def definite_faults(self) -> tuple[MemoryAccess, ...]:
        return tuple(access for access in self.accesses
                     if access.definite_fault)


def analyze_intervals(program: Program | ControlFlowGraph,
                      context: AnalysisContext | None = None,
                      widen_after: int = 3) -> IntervalAnalysis:
    """Run the interval analysis; accepts a program or a prebuilt CFG."""
    cfg = program if isinstance(program, ControlFlowGraph) \
        else build_cfg(program)
    return IntervalAnalysis(cfg, context or AnalysisContext(),
                            widen_after)
