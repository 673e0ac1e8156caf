"""Whole-trace batch compilation for the dispatch hot path.

:class:`~repro.alpha.engine.ExecutionEngine` already removes the
per-instruction interpretation cost (exec-compiled basic-block
superinstructions), but the dispatch runtime still pays a
fixed per-*invocation* Python toll: rebind the packet region, build the
register dict, enter ``run()``, thread every block transition through
the run loop, allocate a :class:`MachineResult`.  At ~6 µs per
invocation that toll dwarfs the filters themselves.

This module compiles an entire *program* — not just its blocks — into a
single exec-generated **batch driver**: one Python function that loops
over a list of frames and evaluates the whole program inline per frame.
It is a partial evaluator specialized to one of the two invocation
contracts a :class:`FramePlan` describes (the packet filters' and the
KV family's):

* the program's blocks (:func:`~repro.analysis.cfg.build_cfg`) are
  inlined into a decision *tree* (diamonds are duplicated), so each
  root-to-leaf path is straight-line code guarded by the original
  branch conditions;
* a natural loop becomes ``while True:``: its loop-carried registers
  (written in the loop and live at its header) become locals whose
  ranges are the interval analysis's at the header
  (:mod:`repro.analysis.intervals`), the back edge becomes ``continue``
  after one parallel assignment of those locals, and the body and every
  exit stay inlined path trees;
* registers are evaluated symbolically: r1/r3 are the plan's constant
  bases, r2 is the frame length, everything else starts at 0, and all
  arithmetic over compile-time constants is folded with the ISA's one
  operator semantics (:func:`repro.alpha.isa.operate`), so constant
  addresses, shifts and comparisons disappear into literals; what does
  not fold is emitted from the engine's code-generation table
  (``OPERATE_PY`` and ``BRANCH_PY`` in :mod:`repro.alpha.isa`) unless
  the ranges below license a rewrite;
* every symbolic value carries a range in the analyzer's one value
  domain and a known-trailing-zero-bits count.  The ranges prove most
  ``& 2**64-1`` wrap masks redundant (the operands cannot overflow),
  fold branches and compares whose outcome is range-determined, let
  comparisons emit native Python ``bool`` results (``bool`` is an
  ``int`` subclass with the exact 0/1 values the reference computes, so
  downstream arithmetic is unchanged), and elide memory-guard terms
  (alignment, bounds) that the address range already guarantees.  A
  branch on a compare also narrows the compared value on each arm,
  which is what bounds a loop's scan offset inside its body; a loop
  local's trailing-zero count is iterated to a fixpoint over its back
  edges;
* materialized subexpressions are remembered per path, so a value the
  program recomputes (common after tree duplication) is evaluated once —
  loads included, until the next store that can reach them: a packet
  load survives a store into r3's region and a region load one into the
  packet, and a store the helper may serve (either buffer) drops both;
* r3's region is whole 64-bit words, held as a Python list (``sw``) for
  the whole call: read from the shard's
  :class:`~repro.alpha.machine.Memory` with one ``unpack_from`` at
  entry, indexed by every load and store in it (``sw[off >> 3]``, a
  constant offset folded to the index), and written back with one
  ``pack_into`` on every exit of the call, faults and foreign exceptions
  included.  Packet loads and stores stay direct
  ``unpack_from``/``pack_into`` calls on the frame (or, for a writable
  packet, a per-invocation copy of it).  A store-free program under the
  filter contract reads its (always-zero) scratch as the constant 0.
  Everything else — padded-tail words, unaligned or unmapped addresses,
  writes to a read-only packet — funnels through one out-of-line helper
  that raises the *exact* :class:`~repro.alpha.machine.Memory`
  messages;
* a loop-free path's dynamic step and cycle counts are decode-time
  constants, so its cycle telemetry is a per-leaf counter increment;
  past a loop head the clock is one local advanced by a constant per
  path segment, and every invocation lands in an exact histogram;
* cycle-budget checks compile to comparisons at block entry, in the
  engine's order, and are elided entirely when the budget is at least
  the program's WCET bound (the longest path, plus each loop's trip
  bound times its body), because then no check can ever fire (the
  caller picks the budgeted or plain driver per batch).

The compiled driver is **bit-identical** to running the engine frame by
frame over a rebound :func:`~repro.filters.policy.reusable_packet_memory`
or :func:`~repro.filters.kv.reusable_kv_memory`: same verdicts, same
cycle counts, same error types, messages and fault ordering, and — for
a driver that uses memory — the same region bytes afterwards.  ``tests/runtime/test_backend_differential.py``
asserts this on random programs and random (including degenerate)
frames.

Applicability: :func:`compile_batch` returns ``None`` — and callers fall
back to :meth:`ExecutionEngine.run_batch` — for programs with no WCET
bound under the driver's own entry ranges (irreducible flow, nested
loops, loops the interval analysis cannot bound, such as the checksum
loop, whose trip count is the frame length), a bound that could reach
the engine's step limit, or inlined trees past the size caps;
:func:`batch_capability` names which.  Frames longer than the
packet-to-region gap (64 KiB) are outside this equivalence: there
``rebind`` itself faults on region overlap before the engine runs, which
the driver does not model.  The runtime never hands it one: every
dispatch path enforces the frame contract
(``RuntimeConfig.max_frame_bytes``, 1518 bytes) before a frame reaches
a shard.
"""

from __future__ import annotations

import re
from collections import defaultdict
from struct import Struct
from typing import NamedTuple

from repro.alpha.isa import (
    BRANCH_PY,
    OPERATE_PY,
    WORD_MASK,
    Br,
    Branch,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Program,
    Ret,
    Stq,
    block_exits,
    operate,
    read_registers,
    written_register,
)
from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.intervals import (
    TOP,
    AnalysisContext,
    Interval,
    _wrap,
    analyze_intervals,
    const,
    meet,
    operate_interval,
    refine_branch,
)
from repro.analysis.wcet import block_cycles, bound_loop
from repro.errors import BudgetExceeded, MachineError
from repro.filters.policy import PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE

__all__ = ["BatchRunner", "FramePlan", "batch_capability", "compile_batch"]

_M = str(WORD_MASK)
_S63 = 1 << 63

#: Tree-inlining caps: a diamond-heavy DAG duplicates blocks per path,
#: so bound both the emitted instruction count and the nesting depth
#: (Python's compiler limits indentation) before falling back.  Loops
#: entered one after another nest their ``while`` statements, and
#: CPython allows 20 statically nested blocks (a memory-using driver's
#: ``try``, its write-back ``try``/``finally`` and its ``for`` take
#: three).
_MAX_NODES = 3000
_MAX_DEPTH = 48
_MAX_LOOPS = 16

#: Every operator result is assigned to a (memoized) temporary — the
#: maximal-sharing form — and a post-pass re-inlines the temporaries
#: with exactly one consumer, so values the program uses once cost no
#: store/load and values it reuses are computed once.

_ZERO = ("k", 0)

#: The buffers a memory access can reach, as bits: a store forgets the
#: memoized loads whose bits it shares.
_PACKET, _REGION = 1, 2
_EITHER = _PACKET | _REGION

#: A top-level AND-with-literal, as this module's own emitters spell it.
#: Every operand is a bare name or fully parenthesized, so any *nested*
#: ``& literal`` is followed by its own ``)`` before the end — the
#: fullmatch can only succeed when the AND is the principal operator.
_AND_CONST = re.compile(r"\((.+) & (\d+|0x[0-9A-Fa-f]+)\)")

_EXT_MASKS = {"EXTBL": "0xFF", "EXTWL": "0xFFFF", "EXTLL": "0xFFFFFFFF"}


class FramePlan(NamedTuple):
    """The invocation contract a driver is specialized against.

    Both contracts enter with r1 = packet base, r2 = frame length and
    r3 = the base of a second fixed region of ``region_size`` bytes, and
    map the packet zero-padded to 8 bytes:

    * the packet-filter contract (:func:`repro.filters.policy
      .reusable_packet_memory`, :func:`~repro.filters.policy
      .filter_registers`): a read-only packet, and r3's region is the
      ``"scratch"`` area, re-zeroed before every invocation;
    * the KV contract (``persistent``; :func:`repro.filters.kv
      .reusable_kv_memory`, :func:`~repro.filters.kv.kv_registers`): a
      writable packet, and r3's region is the ``"state"`` area, which
      persists across invocations.
    """

    packet_base: int
    region_base: int
    region_size: int
    persistent: bool = False

    @property
    def region(self) -> str:
        """The name of r3's region in the shard's memory."""
        return "state" if self.persistent else "scratch"


class _Fallback(Exception):
    """Internal: this program is not batch-compilable; use the engine."""


class BatchRunner:
    """A compiled batch driver plus its budget-elision threshold.

    ``run`` executes frames ``[start:]`` and returns ``(next_index,
    accepted, hist_pairs, error)``: the index one past the last frame
    executed (== ``len(frames)`` when no fault), how many completed
    frames returned a truthy verdict, ``(cycles, count)`` pairs for the
    completed frames (counts may be 0), and the :class:`MachineError`
    that stopped frame ``next_index`` (or ``None``).  Identical to
    :meth:`~repro.alpha.engine.ExecutionEngine.run_batch` over the
    plan's reusable memory, bit for bit.

    A driver that touches memory (``uses_memory``: every store-bearing
    program, and every program under the KV contract) works on the
    region buffers of the ``memory`` it is handed, which it looks up on
    every call: one runner serves every shard, and forked children
    inherit it.  It reads r3's region into a word list at entry and
    writes the list back at every exit of the call (the normal return,
    a :class:`MachineError`, or any other exception), so between calls
    the region holds exactly what the stores wrote.
    """

    __slots__ = ("_plain", "_budgeted", "max_path_cycles", "uses_memory")

    def __init__(self, plain, budgeted, max_path_cycles: int,
                 uses_memory: bool = False) -> None:
        self._plain = plain
        self._budgeted = budgeted
        self.max_path_cycles = max_path_cycles
        self.uses_memory = uses_memory

    def run(self, frames: list, start: int = 0,
            cycle_budget: int | None = None, *, memory=None):
        # Below the WCET bound no prefix of any path can exceed the
        # budget: the budgeted driver could never raise, so run without
        # the compares.
        plain = cycle_budget is None or cycle_budget >= self.max_path_cycles
        if not self.uses_memory:
            if plain:
                return self._plain(frames, start)
            return self._budgeted(frames, start, cycle_budget)
        if plain:
            return self._plain(frames, start, memory)
        return self._budgeted(frames, start, cycle_budget, memory)


#: The packet-filter contract, :func:`batch_capability`'s default.
_FILTER_PLAN = FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE)


def _path_bound(cfg: ControlFlowGraph, trips, weights) -> int:
    """The WCET formula over per-block ``weights``: the longest acyclic
    path plus each loop's trip bound times its body's weight."""
    return cfg.longest_path(weights) + sum(
        count * sum(weights[index] for index in loop.blocks)
        for count, loop in zip(trips, cfg.loops))


def _preconditions(program: Program, max_steps: int, plan: FramePlan):
    """Check the fast path's preconditions; returns ``(cfg, analysis,
    trips)`` — the interval analysis and per-loop trip bounds are only
    computed for a program with loops.  Raises :class:`_Fallback`
    naming the first precondition that fails."""
    if plan.region_base % 8 or plan.region_size % 8:
        # The drivers hold r3's region as a list of words.
        raise _Fallback(f"r3's region ({plan.region_size} bytes at "
                        f"{plan.region_base:#x}) is not whole words")
    cfg = build_cfg(program)
    lengths = [block.end - block.start for block in cfg.blocks]
    analysis, trips = None, ()
    if cfg.retreating_edges:
        if cfg.irreducible_edges:
            target = cfg.blocks[cfg.irreducible_edges[0][1]]
            raise _Fallback(f"irreducible flow into pc={target.start}: no "
                            f"WCET bound")
        # The drivers are also run directly on frames shorter than the
        # contract minimum, so r2 is not narrowed to the frame contract.
        analysis = analyze_intervals(cfg, AnalysisContext(
            name="batch-driver",
            entry={1: const(plan.packet_base), 2: TOP,
                   3: const(plan.region_base)}))
        bounds = [bound_loop(analysis, loop, lengths) for loop in cfg.loops]
        for bound in bounds:
            if not bound.bounded:
                header = cfg.blocks[bound.header]
                raise _Fallback(f"loop through pc={header.start} has no "
                                f"WCET bound ({bound.reason})")
        trips = tuple(bound.trips for bound in bounds)
    # The bound caps every run's steps, which the step-limit refusal and
    # the elided step checks rest on.
    steps = _path_bound(cfg, trips, lengths)
    if cfg.blocks and steps >= max_steps:
        # The reference could trip its step limit mid-run; the driver
        # elides that check, so it may not serve here.
        raise _Fallback(f"worst-case path of {steps} steps reaches the "
                        f"{max_steps}-step limit")
    return cfg, analysis, trips


def _compile(program: Program, cost_model, plan: FramePlan,
             max_steps: int) -> BatchRunner:
    cfg, analysis, trips = _preconditions(program, max_steps, plan)
    # Without a cost model every instruction costs one cycle.
    costs = block_cycles(cfg, cost_model) if cost_model else [
        block.end - block.start for block in cfg.blocks]
    # A store-free program under the filter contract never needs
    # memory: its scratch reads fold to 0 and its packet is the frame.
    uses_memory = plan.persistent or any(
        isinstance(instruction, Stq) for instruction in program)
    plain = _emit_driver(cfg, costs, plan, False, analysis, uses_memory)
    budgeted = _emit_driver(cfg, costs, plan, True, analysis, uses_memory)
    return BatchRunner(plain, budgeted, _path_bound(cfg, trips, costs),
                       uses_memory)


def batch_capability(program: Program, max_steps: int = 1_000_000,
                     plan: FramePlan | None = None) -> str | None:
    """Why ``program`` cannot take the compiled batch path under
    ``plan`` (the packet-filter contract by default), or ``None``.

    The explicit admission-time capability probe: programs with no WCET
    bound, nested or irreducible loops, or trees past the caps are
    *expected* here and must route to the generic engine cleanly — this
    function never raises, and it runs exactly the compilation
    :func:`compile_batch` runs, so the two always agree.
    """
    try:
        _compile(program, None, plan or _FILTER_PLAN, max_steps)
    except _Fallback as reason:
        return str(reason)
    return None


def compile_batch(program: Program, cost_model, plan: FramePlan,
                  max_steps: int = 1_000_000) -> BatchRunner | None:
    """Compile ``program`` into a :class:`BatchRunner`, or ``None`` when
    the program falls outside the fast path's preconditions (see the
    module docstring) and the caller should use the generic engine."""
    try:
        return _compile(program, cost_model, plan, max_steps)
    except _Fallback:
        return None


# ---------------------------------------------------------------------------
# The partial evaluator.
#
# Register state during emission is a dict index -> value, where a value
# is ("k", int) for a compile-time constant or ("e", text, range, kz,
# tag) for a Python expression over frame-dependent data: an
# :class:`~repro.analysis.intervals.Interval` (a one-point range folds
# to the constant), then what only code generation reads, a
# known-trailing-zero-bit count and a provenance tag (or None).
# Expression texts are either bare names (flen, t<N>, v<N>) or fully
# parenthesized, and reference only names that do not change while the
# text is in use — single-assignment temporaries, and loop locals,
# which change only at a back edge, right before ``continue`` — so
# inlining one into several consumers or into both arms of a branch can
# never change its meaning, and equal texts denote equal values (which
# is what makes the per-path materialization memo a sound CSE).

def _info(val) -> tuple[Interval, int]:
    """``(range, trailing-zero bits)`` for a symbolic value."""
    if val[0] == "k":
        return const(val[1]), _tz(val[1])
    return val[2], val[3]


def _value(text: str, span: Interval, kz: int, tag=None):
    """A symbolic value, or the constant its one-point range pins."""
    if span.is_constant:
        return ("k", span.lo)
    return ("e", text, span, kz, tag)


def _tz(value: int) -> int:
    return (value & -value).bit_length() - 1 if value else 64


def _add_const(val, c: int):
    """``(val + c) & 2**64-1`` as a symbolic value."""
    if val[0] == "k":
        return ("k", (val[1] + c) & WORD_MASK)
    if c == 0:
        return val
    span, kz = _info(val)
    x = val[1]
    if c > 0 and span.hi + c <= WORD_MASK:
        text = f"({x} + {c})"
    elif c < 0 and span.lo >= -c:
        text = f"({x} - {-c})"
    else:
        text = f"(({x} + {c}) & {_M})"
    return _value(text, _wrap(span.lo + c, span.hi + c),
                  min(kz, _tz(abs(c))))


def _identity(name: str, a, b):
    """Algebraic folds over symbolic operands, or None for the generic
    expression.  Sound because expression texts are pure and reference
    only names stable while in use (equal text => equal value), and
    every register image is invariantly a canonical word (< 2**64), so
    e.g. ``ADDQ x, 0`` needs no re-masking.  Compiler idioms lean on
    these: assemblers spell "load 0" as ``SUBQ r, r, r`` and materialize
    constants into registers cleared that way.  ``AND``, ``MULQ`` and
    ``SRL`` with a zero operand need no rule: their ranges pin the 0.
    """
    if a[1] == b[1] and a[0] == b[0]:
        if name in ("SUBQ", "XOR"):
            return ("k", 0)
        if name in ("CMPEQ", "CMPULE"):
            return ("k", 1)
        if name == "CMPULT":
            return ("k", 0)
        if name in ("AND", "BIS"):
            return a
    if b[0] == "k" and b[1] == 0 \
            and name in ("ADDQ", "SUBQ", "BIS", "XOR", "SLL", "SRL"):
        return a
    if a[0] == "k" and a[1] == 0:
        if name in ("ADDQ", "BIS", "XOR"):
            return b
        if name == "SLL":
            return ("k", 0)   # a variable shift's range is TOP
    return None


def _symbolic(name: str, a, b):
    """One operate instruction as a symbolic value: its range from
    :func:`~repro.analysis.intervals.operate_interval`, and an
    expression that is the :data:`~repro.alpha.isa.OPERATE_PY` form
    unless the operand ranges license a rewrite: a wrap mask no overflow
    can need is dropped, constant shift counts and byte offsets fold,
    and compares emit Python ``bool`` (an ``int`` subclass with the
    reference's exact 0/1 values)."""
    (sa, akz), (sb, bkz) = _info(a), _info(b)
    span = operate_interval(name, sa, sb)
    if span.is_constant:
        return ("k", span.lo)
    x, y = str(a[1]), str(b[1])
    text = f"({OPERATE_PY[name].format(a=x, b=y)})"
    if name == "ADDQ":
        if sa.hi + sb.hi <= WORD_MASK:
            text = f"({x} + {y})"
        # Tag a sum with a constant term: a region access at that
        # constant base indexes the buffer by the other term.
        tag = (("add", b, a[1]) if a[0] == "k" else
               ("add", a, b[1]) if b[0] == "k" else None)
        return _value(text, span, min(akz, bkz), tag)
    if name == "SUBQ":
        if sa.lo >= sb.hi:
            text = f"({x} - {y})"
        return _value(text, span, min(akz, bkz))
    if name == "MULQ":
        if sa.hi * sb.hi <= WORD_MASK:
            text = f"({x} * {y})"
        return _value(text, span, min(akz + bkz, 64))
    if name == "AND":
        if b[0] == "k":
            return _and_const(a, b[1])
        if a[0] == "k":
            return _and_const(b, a[1])
        return _value(text, span, max(akz, bkz))
    if name in ("BIS", "XOR"):
        return _value(text, span, min(akz, bkz))
    if name == "SLL":
        if b[0] != "k":
            return _value(text, span, akz)
        k = b[1] & 63
        if k == 0:
            return a
        # Tag the result with its provenance: a later SRL by the same k
        # cancels the shift pair even if this value has been
        # materialized into a bare temporary by then.
        masked = sa.hi << k > WORD_MASK
        shifted = f"({x} << {k})"
        return _value(f"({shifted} & {_M})" if masked else shifted, span,
                      min(akz + k, 64), ("sll", a, k, masked))
    if name == "SRL":
        if b[0] != "k":
            return _value(text, span, 0)
        k = b[1] & 63
        if k == 0:
            return a
        # The truncate idiom SLL k; SRL k:
        # ``((v << k) & M) >> k  ->  v & (M >> k)`` and — when the SLL
        # was proven overflow-free — ``(v << k) >> k  ->  v``.  ``v``'s
        # text stays valid here: it names only single-assignment
        # temporaries from dominating points.
        tag = a[4]
        if tag is not None and tag[0] == "sll" and tag[2] == k:
            inner, was_masked = tag[1], tag[3]
            if not was_masked:
                return inner   # (v << k) >> k with no overflow: v
            return _and_const(inner, WORD_MASK >> k)
        return _value(f"({x} >> {k})", span, max(akz - k, 0))
    if name == "CMPEQ":
        if sa.hi <= 1 and b[0] == "k":
            # A boolean compared to a literal: the compare is a no-op
            # (== 1) or a negation (== 0).
            return a if b[1] == 1 else _value(f"(not {x})", span, 0)
        return _value(f"({x} == {y})", span, 0, ("cmp", name, a, b))
    if name == "CMPULT":
        return _value(f"({x} < {y})", span, 0, ("cmp", name, a, b))
    if name == "CMPULE":
        return _value(f"({x} <= {y})", span, 0, ("cmp", name, a, b))
    mask = _EXT_MASKS[name]
    if b[0] != "k":
        return _value(text, span, 0)
    shift = 8 * (b[1] & 7)
    if shift == 0:
        return _and_const(a, int(mask, 16), mask)
    inner = f"({x} >> {shift})"
    return _value(f"({inner} & {mask})", span, 0,
                  ("and", inner, int(mask, 16)))


def _and_const(a, c: int, text: str | None = None):
    """``a & c`` for a symbolic ``a`` and literal ``c``: drop the AND
    when the range proves it a no-op, merge it into an AND the operand
    is known (by provenance tag or by its own text) to already be, else
    emit it."""
    span, akz = _info(a)
    cover = (1 << span.hi.bit_length()) - 1
    if c & cover == cover:
        return a  # the mask keeps every bit the value can have set
    x = str(a[1])
    tag = a[4]
    if tag is not None and tag[0] == "and":
        x, c, text = tag[1], c & tag[2], None
    else:
        merged = _AND_CONST.fullmatch(x)
        if merged is not None:
            x, c, text = merged.group(1), c & int(merged.group(2), 0), None
    return _value(f"({x} & {text if text is not None else c})",
                  operate_interval("AND", span, const(c)),
                  max(akz, _tz(c)), ("and", x, c))


def _compared(value, truth: bool):
    """What a compare's outcome says about its symbolic operand: ``(text,
    lo, hi)`` bounding the operand compared against a literal, or None.
    ``value`` is the compare's result, ``truth`` its 0/1 outcome."""
    tag = value[4] if value[0] == "e" else None
    if tag is None or tag[0] != "cmp":
        return None
    name, a, b = tag[1:]
    strict = name == "CMPULT"
    if b[0] == "k" and a[0] == "e":       # x < k, x <= k, x == k
        text, k = a[1], b[1]
        held = (k, k) if name == "CMPEQ" else (0, k - strict)
    elif a[0] == "k" and b[0] == "e":     # k < x, k <= x, k == x
        text, k = b[1], a[1]
        held = (k, k) if name == "CMPEQ" else (k + strict, WORD_MASK)
    else:
        return None
    if truth:
        return (text, *held)
    if name == "CMPEQ":
        return None   # x != k is no interval
    # The unsigned compares' ranges touch 0 or the top: the complement
    # is the rest.
    return ((text, held[1] + 1, WORD_MASK) if held[0] == 0
            else (text, 0, held[0] - 1))


def _narrow(regs: dict, fact) -> bool:
    """Narrow every register holding the text ``fact[0]`` to ``[fact[1],
    fact[2]]``; False when the narrowing is empty (the arm is dead)."""
    text, lo, hi = fact
    for index, val in list(regs.items()):
        if val[0] == "e" and val[1] == text:
            span = meet(val[2], lo, hi)
            if span is None:
                return False
            regs[index] = _value(text, span, *val[3:])
    return True


def _branch_cond(name: str, s: str, mx: int) -> str:
    """The Python test for "branch taken": the
    :data:`~repro.alpha.isa.BRANCH_PY` form, where a value below 2**63
    reduces the signed BGT and BLE to the nonzero and zero tests."""
    if mx < _S63:
        name = {"BGT": "BNE", "BLE": "BEQ"}.get(name, name)
    return BRANCH_PY[name].format(s=s)


_ASSIGN = re.compile(r"(t\d+) = (.*)$")
_NAME = re.compile(r"\bt\d+\b")


def _impure(text: str) -> bool:
    """Whether an emitted right-hand side reads memory (a load): loads
    can fault and must keep their program point, and a store between
    two of them invalidates the memo.  ``sw[`` is a load from r3's
    region's word list."""
    return "q(" in text or "edge(" in text or "sw[" in text


def _tidy(lines: list[str]) -> list[str]:
    """Two cleanup passes over the emitted body.

    1. Dead-code sweep (reverse): the shift-pair and mask-merge rewrites
       can orphan a materialized temporary; dropping a *pure* assignment
       (no load — loads can fault and must keep their program point)
       whose name is never read is invisible, and the reverse scan
       cascades.
    2. Single-use inlining (forward): a pure temporary consumed exactly
       once, within the same loop as its definition, is substituted into
       its consumer.  Sound because the texts are pure expressions over
       names stable while in use, so evaluation can sink from definition
       to sole use without changing any observable — faults included:
       skipping a pure computation when an intervening load raises is
       invisible.  A value computed before a loop is not sunk into it,
       where it would be recomputed on every pass.
    """
    kept: list[str] = []
    used: set[str] = set()
    for line in reversed(lines):
        body = line.lstrip()
        match = _ASSIGN.match(body)
        if match is not None and match.group(1) not in used \
                and not _impure(match.group(2)):
            continue
        kept.append(line)
        used.update(_NAME.findall(match.group(2) if match else body))
    kept.reverse()

    # Each line's innermost enclosing ``while`` (0 outside every loop).
    loop_of: list[int] = []
    open_loops: list[tuple[int, int]] = []
    for line in kept:
        body = line.lstrip()
        depth = len(line) - len(body)
        while open_loops and depth <= open_loops[-1][0]:
            open_loops.pop()
        loop_of.append(open_loops[-1][1] if open_loops else 0)
        if body == "while True:":
            open_loops.append((depth, len(loop_of)))

    counts: dict[str, int] = {}
    use_loop: dict[str, int] = {}
    for line, loop in zip(kept, loop_of):
        body = line.lstrip()
        match = _ASSIGN.match(body)
        for name in _NAME.findall(match.group(2) if match else body):
            counts[name] = counts.get(name, 0) + 1
            use_loop[name] = loop
    inlined: dict[str, str] = {}

    def subst(text: str) -> str:
        return _NAME.sub(lambda m: inlined.get(m.group(0), m.group(0)),
                         text)

    out: list[str] = []
    for line, loop in zip(kept, loop_of):
        body = line.lstrip()
        indent = line[:len(line) - len(body)]
        match = _ASSIGN.match(body)
        if match is None:
            out.append(indent + subst(body))
            continue
        name, rhs = match.group(1), subst(match.group(2))
        if counts.get(name, 0) == 1 and use_loop[name] == loop \
                and not _impure(rhs):
            inlined[name] = rhs
            continue
        out.append(f"{indent}{name} = {rhs}")
    return out


def _loop_facts(cfg: ControlFlowGraph, analysis) -> dict[int, tuple]:
    """Per loop header block: ``(registers the loop writes, its
    loop-carried registers with their ranges at the header, whether
    its body stores)``.  A register is loop-carried when the loop
    writes it and it is live at the header; the loop's other writes
    are dead there, so the header need not know them."""
    program = cfg.program
    uses, defs = [], []
    for block in cfg.blocks:
        used: set[int] = set()
        written: set[int] = set()
        for pc in range(block.start, block.end):
            instruction = program[pc]
            # RET reads the verdict register.
            reads = {0} if isinstance(instruction, Ret) \
                else read_registers(instruction)
            used |= reads - written
            target = written_register(instruction)
            if target is not None:
                written.add(target)
        uses.append(used)
        defs.append(written)
    live: list[set[int]] = [set() for __ in cfg.blocks]
    changed = True
    while changed:
        changed = False
        for index in cfg.post_order:
            out = set().union(*(live[succ] for succ
                                in cfg.blocks[index].successors))
            new = uses[index] | (out - defs[index])
            if new != live[index]:
                live[index] = new
                changed = True
    facts = {}
    for loop in cfg.loops:
        written = set().union(*(defs[index] for index in loop.blocks))
        entry = analysis.block_entry.get(loop.header)
        carried = tuple((reg, entry[reg] if entry is not None else TOP)
                        for reg in sorted(live[loop.header] & written))
        stores = any(isinstance(program[pc], Stq)
                     for index in loop.blocks
                     for pc in range(cfg.blocks[index].start,
                                     cfg.blocks[index].end))
        facts[loop.header] = (written, carried, stores)
    return facts


def _emit_driver(cfg: ControlFlowGraph, costs, plan: FramePlan,
                 budgeted: bool, analysis=None, uses_memory: bool = False):
    program = cfg.program
    size = len(program)
    lines: list[str] = []
    counters: dict[int, str] = {}   # leaf cycles -> counter variable
    state = {"nodes": 0, "temps": 0, "locals": 0, "hist": False,
             "copy": False}
    loop_facts = _loop_facts(cfg, analysis) if cfg.loops else {}
    pb = plan.packet_base
    rb, rs = plan.region_base, plan.region_size
    # The packet's buffer: the frame itself, or — when the packet is
    # writable and some store may land in it — a per-invocation copy.
    packet = "pkt" if plan.persistent else "frame"
    # The out-of-line helper's buffers (after the address); ``sw`` is
    # r3's region as a list of words.
    edge_args = f"{packet}, sw" if uses_memory else "frame, flen"
    # The buffers each load text can read (_PACKET, _REGION or both).
    reach: dict[str, int] = {}

    def emit(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    def temp() -> str:
        state["temps"] += 1
        return f"t{state['temps']}"

    def assign(rhs: str, indent: int, memo: dict) -> str:
        """Bind ``rhs`` to a (memoized) temporary on this path."""
        name = memo.get(rhs)
        if name is None:
            name = temp()
            memo[rhs] = name
            emit(indent, f"{name} = {rhs}")
        return name

    def fresh(val, indent: int, memo: dict):
        """Materialize an expression into a temporary (keeping the
        range facts and any provenance tag); the single-use post-pass
        undoes this wherever sharing does not pay."""
        if val[0] == "e" and not val[1].isidentifier():
            return ("e", assign(val[1], indent, memo)) + tuple(val[2:])
        return val

    def name_of(aval, indent: int, memo: dict) -> str:
        return aval[1] if aval[1].isidentifier() \
            else assign(aval[1], indent, memo)

    def region_access(aval, addr: str, kind: str):
        """The fast path for a non-constant address: ``(buffer, offset
        text, guard terms)`` for the region the address range can reach
        (r3's region first, when the driver reads memory: ``sw`` and a
        word index), or None when a store can only reach a read-only
        packet (the helper raises there).  The range facts discharge
        guard terms (a lower bound at or above the base, kz >= 3 the
        alignment).  The packet is picked only when the range misses
        r3's region, so its helper fallback never reaches the region."""
        span, kz = _info(aval)
        align = [f"not {addr} & 7"] if kz < 3 else []
        last = rb + rs - 8
        if kind == "STQ" and span.hi >= pb \
                and not rb <= span.lo <= span.hi <= last:
            # Some store may land in the packet: give each invocation
            # its own copy (the KV contract; a read-only packet's
            # stores fault in the helper).
            state["copy"] = True
        if uses_memory and span.lo <= last and span.hi >= rb:
            tag = aval[4]
            offset = (str(tag[1][1]) if tag is not None and tag[0] == "add"
                      and tag[2] == rb else f"({addr} - {rb})")
            if span.lo >= rb and span.hi <= last:
                bounds = []
            elif span.lo >= rb:
                bounds = [f"{addr} <= {last}"]
            elif span.hi <= last:
                bounds = [f"{rb} <= {addr}"]
            else:
                bounds = [f"{rb} <= {addr} <= {last}"]
            return "sw", f"{offset} >> 3", bounds + align
        if kind == "STQ" and not plan.persistent:
            return None
        bounds = [f"{pb} <= {addr}"] if span.lo < pb else []
        return (packet, f"{addr} - {pb}",
                bounds + [f"{addr} <= flen + {pb - 8}"] + align)

    def drop_loads(memo: dict, stored: int) -> None:
        """Forget the memoized loads that can read a buffer in
        ``stored``."""
        for key in [key for key in memo if reach.get(key, 0) & stored]:
            del memo[key]

    def emit_ldq(instruction: Ldq, regs: dict, memo: dict,
                 indent: int) -> bool:
        """Emit one load; True when the path terminates here (a raise
        that does not depend on the frame)."""
        aval = _add_const(regs.get(instruction.rs.index, _ZERO),
                          instruction.disp)
        if aval[0] == "k":
            address = aval[1]
            if address & 7:
                emit(indent, f'raise MachineError('
                             f'"unaligned LDQ address {address:#x}")')
                return True
            if rb <= address and address + 8 <= rb + rs:
                if not uses_memory:
                    # Store-free program + scratch re-zeroed per
                    # invocation.
                    regs[instruction.rd.index] = _ZERO
                    return False
                text, where = f"sw[{(address - rb) >> 3}]", _REGION
            elif address < pb:
                # Below the packet region and not r3's: unmapped for
                # every frame, exactly as Memory._find would report.
                emit(indent, f'raise MachineError('
                             f'"unmapped address {address:#x} (size 8)")')
                return True
            else:
                offset = address - pb
                text = (f"q({packet}, {offset})[0] if flen >= {offset + 8} "
                        f"else edge({address}, {edge_args})")
                where = _PACKET
        else:
            addr = name_of(aval, indent, memo)
            buffer, offset, checks = region_access(aval, addr, "LDQ")
            if buffer == "sw":
                # Guarded, the helper may read either buffer.
                text, where = f"sw[{offset}]", _EITHER if checks else _REGION
            else:
                text, where = f"q({buffer}, {offset})[0]", _PACKET
            if checks:
                text = (f"{text} if {' and '.join(checks)} "
                        f"else edge({addr}, {edge_args})")
        reach[text] = where
        regs[instruction.rd.index] = ("e", assign(text, indent, memo), TOP,
                                      0, None)
        return False

    def emit_stq(instruction: Stq, regs: dict, memo: dict,
                 indent: int) -> bool:
        """Emit one store (memory-using drivers only); True when the
        path terminates here."""
        aval = _add_const(regs.get(instruction.rd.index, _ZERO),
                          instruction.disp)
        value = str(regs.get(instruction.rs.index, _ZERO)[1])
        if aval[0] == "k":
            address = aval[1]
            if address & 7:
                emit(indent, f'raise MachineError('
                             f'"unaligned STQ address {address:#x}")')
                return True
            if rb <= address and address + 8 <= rb + rs:
                emit(indent, f"sw[{(address - rb) >> 3}] = {value}")
                stored = _REGION
            elif address < pb:
                emit(indent, f'raise MachineError('
                             f'"unmapped address {address:#x} (size 8)")')
                return True
            elif plan.persistent:
                state["copy"] = True
                offset = address - pb
                emit(indent, f"pk(pkt, {offset}, {value}) "
                             f"if flen >= {offset + 8} "
                             f"else edge({address}, pkt, sw, {value})")
                stored = _PACKET
            else:
                # A read-only packet: the helper raises for every frame.
                emit(indent, f"edge({address}, frame, sw, {value})")
                return True
        else:
            addr = name_of(aval, indent, memo)
            access = region_access(aval, addr, "STQ")
            slow = f"edge({addr}, {edge_args}, {value})"
            # The helper may store into either buffer.
            stored = _EITHER
            if access is None:
                emit(indent, slow)
            elif access[0] == "sw":
                __, index, checks = access
                if checks:
                    # An assignment is no expression: guard it with an
                    # if statement.
                    emit(indent, f"if {' and '.join(checks)}:")
                    emit(indent + 1, f"sw[{index}] = {value}")
                    emit(indent, "else:")
                    emit(indent + 1, slow)
                else:
                    emit(indent, f"sw[{index}] = {value}")
                    stored = _REGION
            else:
                buffer, offset, checks = access
                emit(indent, f"pk({buffer}, {offset}, {value}) if "
                             f"{' and '.join(checks)} else {slow}")
                stored = _PACKET
        drop_loads(memo, stored)
        return False

    def emit_straightline(instruction, regs: dict, memo: dict,
                          indent: int) -> bool:
        state["nodes"] += 1
        if state["nodes"] > _MAX_NODES:
            raise _Fallback("tree too large")
        if isinstance(instruction, Operate):
            a = regs.get(instruction.ra.index, _ZERO)
            if isinstance(instruction.rb, Lit):
                b = ("k", instruction.rb.value)
            else:
                b = regs.get(instruction.rb.index, _ZERO)
            if a[0] == "k" and b[0] == "k":
                value = ("k", operate(instruction.name, a[1], b[1]))
            else:
                value = _identity(instruction.name, a, b)
                if value is None:
                    value = fresh(_symbolic(instruction.name, a, b),
                                  indent, memo)
            regs[instruction.rc.index] = value
            return False
        if isinstance(instruction, Ldq):
            return emit_ldq(instruction, regs, memo, indent)
        if isinstance(instruction, Stq):
            return emit_stq(instruction, regs, memo, indent)
        # Lda / Ldah
        disp = instruction.disp
        if isinstance(instruction, Ldah):
            disp <<= 16
        regs[instruction.rd.index] = fresh(
            _add_const(regs.get(instruction.rs.index, _ZERO), disp),
            indent, memo)
        return False

    def clock(cycles: int, steps: int, loops) -> tuple[str, str]:
        """The clock and step count as text: constants on a loop-free
        prefix, the ``c``/``s`` locals plus a constant past a loop
        head."""
        if not loops:
            return str(cycles), str(steps)
        return (f"c + {cycles}" if cycles else "c",
                f"s + {steps}" if steps else "s")

    def advance(cycles: int, steps: int, indent: int, loops) -> None:
        """Fold a path segment's constants into the clock locals."""
        if not loops:
            emit(indent, f"c = {cycles}")
            if budgeted:
                emit(indent, f"s = {steps}")
            return
        if cycles:
            emit(indent, f"c += {cycles}")
        if budgeted and steps:
            emit(indent, f"s += {steps}")

    def emit_leaf(regs: dict, cycles: int, indent: int, loops) -> None:
        verdict = regs.get(0, _ZERO)
        if verdict[0] == "k":
            if verdict[1]:
                emit(indent, "accepted += 1")
        else:
            span = verdict[2]
            if span.lo >= 1:
                emit(indent, "accepted += 1")
            elif span.hi <= 1:
                emit(indent, f"accepted += {verdict[1]}")
            else:
                emit(indent, f"accepted += 1 if {verdict[1]} else 0")
        if loops:
            state["hist"] = True
            emit(indent, f"hist[{clock(cycles, 0, loops)[0]}] += 1")
            emit(indent, "break")
            return
        counter = counters.setdefault(cycles, f"h{len(counters)}")
        emit(indent, f"{counter} += 1")

    def local() -> str:
        state["locals"] += 1
        return f"v{state['locals']}"

    def emit_loop(block, regs: dict, memo: dict, cum_cycles: int,
                  cum_steps: int, indent: int, loops) -> None:
        """Enter the loop headed by ``block``: its loop-carried
        registers become locals, and its body a ``while True:`` whose
        back edges ``continue``.  The locals' trailing-zero counts start
        at their entry values' and shrink to a fixpoint over the back
        edges, re-emitting the body until they hold; a third pass
        assumes nothing (0), so that one always holds.  The node cap
        counts every pass, which bounds the work of loops re-emitted
        inside re-emitted loops."""
        if len(loops) >= _MAX_LOOPS:
            raise _Fallback(f"more than {_MAX_LOOPS} loops on one path")
        written, carried, stores = loop_facts[block.index]
        names = [local() for __ in carried]
        entry = [regs.get(reg, _ZERO) for reg, __ in carried]
        if carried:
            emit(indent, f"{', '.join(names)} = "
                         f"{', '.join(str(val[1]) for val in entry)}")
        advance(cum_cycles, cum_steps, indent, loops)
        emit(indent, "while True:")
        zeros = [_info(val)[1] for val in entry]
        mark = (len(lines), state["copy"])
        for attempt in range(3):
            inner = {reg: val for reg, val in regs.items()
                     if reg not in written}
            for (reg, span), name, kz in zip(carried, names, zeros):
                inner[reg] = _value(name, span, kz)
            body_memo = {key: name for key, name in memo.items()
                         if not (stores and _impure(key))}
            back: list[list[int]] = []
            frame = (block.index, carried, names, back)
            walk(block.start, inner, body_memo, 0, 0, indent + 1,
                 loops + (frame,), at_header=True)
            settled = [min([kz] + [edge[slot] for edge in back])
                       for slot, kz in enumerate(zeros)]
            if settled == zeros:
                break
            zeros = settled if attempt == 0 else [0] * len(zeros)
            del lines[mark[0]:]
            state["copy"] = mark[1]
        if loops:
            # Every path out of this loop ended in a leaf's ``break``:
            # leave the enclosing loop too.
            emit(indent, "break")

    def emit_back_edge(regs: dict, cum_cycles: int, cum_steps: int,
                       indent: int, loops) -> None:
        __, carried, names, back = loops[-1]
        values = [regs.get(reg, _ZERO) for reg, __ in carried]
        back.append([_info(val)[1] for val in values])
        changed = [(name, str(val[1])) for name, val in zip(names, values)
                   if str(val[1]) != name]
        if changed:
            # One parallel assignment: every right-hand side reads the
            # locals of this pass.
            emit(indent, f"{', '.join(name for name, __ in changed)} = "
                         f"{', '.join(text for __, text in changed)}")
        advance(cum_cycles, cum_steps, indent, loops)
        emit(indent, "continue")

    def walk(pc: int, regs: dict, memo: dict, cum_cycles: int,
             cum_steps: int, indent: int, loops=(),
             at_header: bool = False) -> None:
        if indent > _MAX_DEPTH:
            raise _Fallback("tree too deep")
        while True:
            if not 0 <= pc < size:
                # The engine's trap slot: a zero-length block that
                # raises after the (elided-as-unreachable) step check.
                emit(indent,
                     f'raise MachineError("pc {pc} outside program")')
                return
            block = cfg.blocks[cfg.block_of[pc]]
            if block.index in loop_facts and not at_header:
                if loops and loops[-1][0] == block.index:
                    emit_back_edge(regs, cum_cycles, cum_steps, indent,
                                   loops)
                elif any(frame[0] == block.index for frame in loops):
                    raise _Fallback(f"loop through pc={pc} re-entered "
                                    f"from outside its body")
                else:
                    emit_loop(block, regs, memo, cum_cycles, cum_steps,
                              indent, loops)
                return
            at_header = False
            # Block entry: charge the block, then (budgeted) compare the
            # clock, reproducing the engine's payloads.
            cum_cycles += costs[block.index]
            if budgeted:
                cycles, steps = clock(cum_cycles, cum_steps, loops)
                emit(indent, f"if {cycles} > b:")
                emit(indent + 1,
                     f'raise BudgetExceeded(f"exceeded cycle budget '
                     f'{{b}} ({{{cycles}}} cycles after {{{steps}}} '
                     f'steps)", budget=b, cycles={cycles}, '
                     f'steps={steps})' if loops else
                     f'raise BudgetExceeded(f"exceeded cycle budget '
                     f'{{b}} ({cycles} cycles after {steps} '
                     f'steps)", budget=b, cycles={cycles}, '
                     f'steps={steps})')
            end = block.end
            cum_steps += end - pc
            last = program[end - 1]
            transfers = isinstance(last, (Branch, Br, Ret))
            for p in range(pc, end - 1 if transfers else end):
                if emit_straightline(program[p], regs, memo, indent):
                    return
            # Out-of-program exits are caught by the range check above.
            taken, fall_through = block_exits(program, end)
            if taken is None:
                if fall_through is None:        # RET
                    emit_leaf(regs, cum_cycles, indent, loops)
                    return
                pc = fall_through
                continue
            if fall_through is None:            # BR
                pc = taken
                continue
            reg = last.rs.index
            value = regs.get(reg, _ZERO)
            span, _ = _info(value)
            # Each arm sees the register refined by its branch outcome,
            # and a compare's operand narrowed by the compare's outcome;
            # an infeasible arm decides the branch (a constant always
            # does), and a one-point arm (BEQ taken, BNE not) pins the
            # register so downstream reads of it const-fold.
            arms = []
            for outcome in (True, False):
                refined = refine_branch((span,), last.name, 0, outcome)
                arm = None
                if refined is not None:
                    arm = dict(regs)
                    if value[0] == "e":
                        arm[reg] = _value(value[1], refined[0], *value[3:])
                    fact = (_compared(value, bool(refined[0].lo))
                            if refined[0].is_constant else None)
                    if fact is not None and not _narrow(arm, fact):
                        arm = None
                arms.append(arm)
            if None in arms:
                pc, regs = ((fall_through, arms[1]) if arms[0] is None
                            else (taken, arms[0]))
                if regs is None:
                    raise _Fallback(f"both arms of the branch at "
                                    f"pc={end - 1} are infeasible")
                continue
            emit(indent, f"if {_branch_cond(last.name, value[1], span.hi)}:")
            walk(taken, arms[0], dict(memo), cum_cycles, cum_steps,
                 indent + 1, loops)
            emit(indent, "else:")
            walk(fall_through, arms[1], dict(memo), cum_cycles,
                 cum_steps, indent + 1, loops)
            return

    # Entry ranges are wider than the frame contract's: the drivers are
    # also run directly on frames shorter than the contract minimum.
    entry = {1: ("k", pb), 2: ("e", "flen", TOP, 0, None),
             3: ("k", rb)}
    signature = ("frames, start, b" if budgeted else "frames, start")
    # The frame loop's body indent: a memory-using driver nests the loop
    # in a try/finally that writes the word list back on every exit.
    body = 4 if uses_memory else 3
    emit(1, "try:")
    if uses_memory:
        emit(2, "try:")
    emit(body - 1, "for frame in (frames[start:] if start else frames):")
    emit(body, "flen = len(frame)")
    if uses_memory:
        prologue = len(lines)
        emit(body, "pkt = bytearray(frame)" if plan.persistent
             else "sw[:] = zero")
    walk(0, entry, {}, 0, 0, body)
    if uses_memory:
        emit(2, "finally:")
        emit(3, "pack_words(st, 0, *sw)")
        if plan.persistent and not state["copy"]:
            # No store can reach the packet: read the frame in place.
            lines[prologue] = "    " * body + "pkt = frame"
    pairs = ", ".join(f"({cycles}, {name})"
                      for cycles, name in sorted(counters.items()))
    # Frames complete strictly in order and bump exactly one leaf
    # counter (or histogram bin) each, so the index of the faulting
    # frame is start plus the completed count — no enumerate
    # bookkeeping in the hot loop.
    completed = ["start", *counters.values()]
    result = f"[{pairs}]"
    if state["hist"]:
        completed.append("sum(hist.values())")
        # Evaluated after the index, which reads the bins unmerged.
        result = f"merged(hist, {result})"
    fault_index = " + ".join(completed)
    settle = [f"settle(memory, {packet})"] if uses_memory else []
    emit(1, "except MachineError as error:")
    for line in settle:
        emit(2, line)
    emit(2, f"return {fault_index}, accepted, {result}, error")
    for line in settle:
        emit(1, line)
    emit(1, f"return len(frames), accepted, {result}, None")
    lines = _tidy(lines)
    # Counter zeroing must precede the try block emitted into ``lines``;
    # q/edge ride as defaults so the hot loop reads locals, not globals.
    if uses_memory:
        header = [f"def _drive({signature}, memory, q=q, pk=pk, edge=edge):",
                  f"    st = memory.region({plan.region!r})",
                  "    sw = list(unpack_words(st))",
                  f"    {packet} = None",
                  "    accepted = 0"]
    else:
        header = [f"def _drive({signature}, q=q, edge=edge):",
                  "    accepted = 0"]
    if state["hist"]:
        header.append("    hist = defaultdict(int)")
    counter_init = [f"    {name} = 0" for name in counters.values()]
    source = "\n".join(header + counter_init + lines)
    words = Struct(f"<{rs // 8}Q")
    namespace = {
        "q": Struct("<Q").unpack_from,
        "pk": Struct("<Q").pack_into,
        "unpack_words": words.unpack_from,
        "pack_words": words.pack_into,
        "edge": _make_edge(plan, uses_memory),
        "settle": _settle,
        "merged": _merged,
        "zero": (0,) * (rs // 8),
        "defaultdict": defaultdict,
        "MachineError": MachineError,
        "BudgetExceeded": BudgetExceeded,
    }
    exec(compile(source, "<alpha-batch>", "exec"), namespace)
    return namespace["_drive"]


def _merged(hist, pairs) -> list:
    """A driver's histogram: the looping paths' bins plus the loop-free
    leaves' counters."""
    for cycles, count in pairs:
        if count:
            hist[cycles] += count
    return list(hist.items())


def _settle(memory, packet) -> None:
    """Leave the shard's packet region as the engine would: the last
    invoked frame, zero-padded, as its stores left it."""
    if packet is not None:
        memory.rebind_region("packet", packet + bytes(-len(packet) % 8))


def _make_edge(plan: FramePlan, uses_memory: bool = False):
    """The out-of-line memory path: padded-tail words, and the
    reference's unaligned/unmapped/read-only faults — bit-exact with
    :meth:`repro.alpha.machine.Memory.load_quad` and ``store_quad`` over
    the plan's reusable memory.  A memory-using driver passes its packet
    buffer and r3's region as its list of words (and, for a store, the
    value); a store-free filter-contract driver passes the frame, whose
    scratch reads are 0."""
    pb, rb, rs = plan.packet_base, plan.region_base, plan.region_size
    if not uses_memory:
        unpack = Struct("<Q").unpack_from

        def edge(address: int, frame, flen: int) -> int:
            if address & 7:
                raise MachineError(f"unaligned LDQ address {address:#x}")
            offset = address - pb
            if 0 <= offset and offset + 8 <= flen + (-flen % 8):
                if offset + 8 <= flen:
                    return unpack(frame, offset)[0]
                # The zero-padded tail word of the packet region.
                return int.from_bytes(frame[offset:], "little")
            if rb <= address and address + 8 <= rb + rs:
                return 0  # scratch: zeroed per invocation, never written
            raise MachineError(f"unmapped address {address:#x} (size 8)")

        return edge

    pack = Struct("<Q").pack_into
    writable = plan.persistent

    def edge(address: int, packet, words: list, value=None):
        if address & 7:
            kind = "LDQ" if value is None else "STQ"
            raise MachineError(f"unaligned {kind} address {address:#x}")
        offset = address - pb
        # An aligned word lies in the zero-padded packet iff it starts
        # before the frame's end.
        if 0 <= offset < len(packet):
            if value is None:
                return int.from_bytes(packet[offset:offset + 8], "little")
            if not writable:
                raise MachineError(f"write to read-only region 'packet' "
                                   f"at {address:#x}")
            if offset + 8 > len(packet):
                packet.extend(bytes(offset + 8 - len(packet)))
            pack(packet, offset, value)
            return None
        offset = address - rb
        if 0 <= offset and offset + 8 <= rs:
            if value is None:
                return words[offset >> 3]
            words[offset >> 3] = value
            return None
        raise MachineError(f"unmapped address {address:#x} (size 8)")

    return edge
