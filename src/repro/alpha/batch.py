"""Whole-trace batch compilation for the packet-filter hot path.

:class:`~repro.alpha.engine.ExecutionEngine` already removes the
per-instruction interpretation cost (exec-compiled basic-block
superinstructions), but the dispatch runtime still pays a
fixed per-*invocation* Python toll: rebind the packet region, build the
register dict, enter ``run()``, thread every block transition through
the run loop, allocate a :class:`MachineResult`.  At ~6 µs per
invocation that toll dwarfs the filters themselves.

This module compiles an entire *program* — not just its blocks — into a
single exec-generated **batch driver**: one Python function that loops
over a list of frames and evaluates the whole filter inline per frame.
It is a partial evaluator specialized to the packet-filter invocation
contract (:class:`FramePlan`):

* the program's DAG of basic blocks (:func:`~repro.analysis.cfg
  .build_cfg`; loops are rejected) is inlined into a decision *tree*
  (diamonds are duplicated), so each root-to-leaf path is straight-line
  code guarded by the original branch conditions;
* registers are evaluated symbolically: r1/r3 are the plan's constant
  bases, r2 is the frame length, everything else starts at 0, and all
  arithmetic over compile-time constants is folded with the ISA's one
  operator semantics (:func:`repro.alpha.isa.operate`), so constant
  addresses, shifts and comparisons disappear into literals; what does
  not fold is emitted from the engine's code-generation table
  (``OPERATE_PY`` and ``BRANCH_PY`` in :mod:`repro.alpha.isa`) unless
  the ranges below license a rewrite;
* every symbolic value carries a range in the analyzer's one value
  domain (:mod:`repro.analysis.intervals`) and a
  known-trailing-zero-bits count.  The ranges prove most ``& 2**64-1``
  wrap masks redundant (the operands cannot overflow), fold branches
  and compares whose outcome is range-determined, let comparisons emit
  native Python ``bool`` results (``bool`` is an ``int`` subclass with
  the exact 0/1 values the reference computes, so downstream arithmetic
  is unchanged), and elide load-guard terms (alignment, lower bound)
  that the address range already guarantees;
* materialized subexpressions are remembered per path, so a value the
  filter recomputes (common after tree duplication) is evaluated once —
  loads included: a reload of the same address is pure given the frame;
* loads at constant in-packet offsets become ``unpack_from(frame, off)``
  guarded by one length compare; loads that fall inside the (store-free,
  hence always-zero) scratch region fold to the constant 0; everything
  else — padded-tail words, unaligned or unmapped addresses — funnels
  through one out-of-line helper that raises the *exact* reference
  :class:`MachineError` messages;
* a path's dynamic step and cycle counts are decode-time constants, so
  per-packet cycle telemetry is a per-leaf counter increment and the
  returned latency data is an exact histogram, not a sample;
* cycle-budget checks compile to constant comparisons at block entry —
  and are elided entirely when the budget is at least the DAG's maximum
  path cost, because then no check can ever fire (the caller picks the
  budgeted or plain driver per batch).

The compiled driver is **bit-identical** to running the engine frame by
frame over a freshly rebound :func:`~repro.filters.policy
.reusable_packet_memory`: same verdicts, same cycle counts, same error
types, messages and fault ordering.  ``tests/runtime/
test_backend_differential.py`` asserts this on random programs and
random (including degenerate) frames.

Applicability: :func:`compile_batch` returns ``None`` — and callers fall
back to :meth:`ExecutionEngine.run_batch` — for programs with stores
(the scratch-is-zero folding would be wrong), loops (the tree would be
infinite), step counts that could reach the engine's step limit, or
inlined trees past a size cap.  Frames longer than the packet-to-
scratch gap (64 KiB) are outside this equivalence: there ``rebind``
itself faults on region overlap before the engine runs, which the
driver (which touches no :class:`Memory`) does not model.  The runtime
never hands it one: every dispatch path enforces the frame contract
(``RuntimeConfig.max_frame_bytes``, 1518 bytes) before a frame reaches
a shard.
"""

from __future__ import annotations

import re
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
)
from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.intervals import (
    TOP,
    Interval,
    _wrap,
    const,
    operate_interval,
    refine_branch,
)
from repro.analysis.wcet import block_cycles
from repro.errors import BudgetExceeded, MachineError

__all__ = ["BatchRunner", "FramePlan", "batch_capability", "compile_batch"]

_M = str(WORD_MASK)
_S63 = 1 << 63

#: Tree-inlining caps: a diamond-heavy DAG duplicates blocks per path,
#: so bound both the emitted instruction count and the nesting depth
#: (Python's compiler limits indentation) before falling back.
_MAX_NODES = 3000
_MAX_DEPTH = 48

#: Every operator result is assigned to a (memoized) temporary — the
#: maximal-sharing form — and a post-pass re-inlines the temporaries
#: with exactly one consumer, so values the filter uses once cost no
#: store/load and values it reuses are computed once.

_ZERO = ("k", 0)

#: A top-level AND-with-literal, as this module's own emitters spell it.
#: Every operand is a bare name or fully parenthesized, so any *nested*
#: ``& literal`` is followed by its own ``)`` before the end — the
#: fullmatch can only succeed when the AND is the principal operator.
_AND_CONST = re.compile(r"\((.+) & (\d+|0x[0-9A-Fa-f]+)\)")

_EXT_MASKS = {"EXTBL": "0xFF", "EXTWL": "0xFFFF", "EXTLL": "0xFFFFFFFF"}


class FramePlan(NamedTuple):
    """The invocation contract the driver is specialized against.

    Mirrors :func:`repro.filters.policy.reusable_packet_memory` and
    :func:`~repro.filters.policy.filter_registers`: a read-only packet
    region at ``packet_base`` (zero-padded to 8 bytes), a zeroed
    writable scratch region, and entry registers r1 = packet base,
    r2 = frame length, r3 = scratch base.
    """

    packet_base: int
    scratch_base: int
    scratch_size: int


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
    :meth:`~repro.alpha.engine.ExecutionEngine.run_batch` over a rebound
    reusable packet memory, bit for bit.
    """

    __slots__ = ("_plain", "_budgeted", "max_path_cycles")

    def __init__(self, plain, budgeted, max_path_cycles: int) -> None:
        self._plain = plain
        self._budgeted = budgeted
        self.max_path_cycles = max_path_cycles

    def run(self, frames: list, start: int = 0,
            cycle_budget: int | None = None):
        if cycle_budget is None or cycle_budget >= self.max_path_cycles:
            # No prefix of any path can exceed the budget: the budgeted
            # driver could never raise, so run without the compares.
            return self._plain(frames, start)
        return self._budgeted(frames, start, cycle_budget)


def _preconditions(program: Program, max_steps: int) -> ControlFlowGraph:
    """Check the fast path's preconditions and return the program's CFG;
    raises :class:`_Fallback` naming the first one that fails."""
    for pc, instruction in enumerate(program):
        if isinstance(instruction, Stq):
            raise _Fallback(f"store at pc={pc}: the driver folds scratch "
                            f"reads to zero, so stores take the generic "
                            f"engine")
    cfg = build_cfg(program)
    if cfg.retreating_edges:
        header = cfg.blocks[cfg.retreating_edges[0][1]]
        raise _Fallback(f"loop through pc={header.start}: the inlined "
                        f"tree would be infinite")
    # The longest path bounds every path, which the step-limit refusal
    # and the budget elision rest on.
    steps = cfg.longest_path([block.end - block.start
                              for block in cfg.blocks])
    if cfg.blocks and steps >= max_steps:
        # The reference could trip its step limit mid-run; the driver
        # elides that check, so it may not serve here.
        raise _Fallback(f"worst-case path of {steps} steps reaches the "
                        f"{max_steps}-step limit")
    return cfg


def batch_capability(program: Program,
                     max_steps: int = 1_000_000) -> str | None:
    """Why ``program`` cannot take the compiled batch path, or ``None``.

    The explicit admission-time capability probe: store-bearing and
    looping programs (the write-capable KV family) are *expected* here,
    and must route to the generic engine cleanly — this function never
    raises, and :func:`compile_batch` runs the same check first so a
    non-batchable program can never blow up mid-admission.
    """
    try:
        _preconditions(program, max_steps)
    except _Fallback as reason:
        return str(reason)
    return None


def compile_batch(program: Program, cost_model, plan: FramePlan,
                  max_steps: int = 1_000_000) -> BatchRunner | None:
    """Compile ``program`` into a :class:`BatchRunner`, or ``None`` when
    the program falls outside the fast path's preconditions (see the
    module docstring) and the caller should use the generic engine."""
    try:
        cfg = _preconditions(program, max_steps)
        # Without a cost model every instruction costs one cycle.
        costs = block_cycles(cfg, cost_model) if cost_model else [
            block.end - block.start for block in cfg.blocks]
        plain = _emit_driver(cfg, costs, plan, budgeted=False)
        budgeted = _emit_driver(cfg, costs, plan, budgeted=True)
    except _Fallback:
        return None
    return BatchRunner(plain, budgeted, cfg.longest_path(costs))


# ---------------------------------------------------------------------------
# The partial evaluator.
#
# Register state during emission is a dict index -> value, where a value
# is ("k", int) for a compile-time constant or ("e", text, range, kz,
# tag) for a Python expression over frame-dependent data: an
# :class:`~repro.analysis.intervals.Interval` (a one-point range folds
# to the constant), then what only code generation reads, a
# known-trailing-zero-bit count and a provenance tag (or None).
# Expression texts are either bare names (flen, t<N>) or fully
# parenthesized, and reference only single-assignment temporaries — so
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
    only single-assignment temporaries (equal text => equal value), and
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
        return _value(text, span, min(akz, bkz))
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
        return _value(f"({x} == {y})", span, 0)
    if name == "CMPULT":
        return _value(f"({x} < {y})", span, 0)
    if name == "CMPULE":
        return _value(f"({x} <= {y})", span, 0)
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


def _branch_cond(name: str, s: str, mx: int) -> str:
    """The Python test for "branch taken": the
    :data:`~repro.alpha.isa.BRANCH_PY` form, where a value below 2**63
    reduces the signed BGT and BLE to the nonzero and zero tests."""
    if mx < _S63:
        name = {"BGT": "BNE", "BLE": "BEQ"}.get(name, name)
    return BRANCH_PY[name].format(s=s)


_ASSIGN = re.compile(r"(t\d+) = (.*)$")
_NAME = re.compile(r"\bt\d+\b")


def _tidy(lines: list[str]) -> list[str]:
    """Two cleanup passes over the emitted body.

    1. Dead-code sweep (reverse): the shift-pair and mask-merge rewrites
       can orphan a materialized temporary; dropping a *pure* assignment
       (no load — loads can fault and must keep their program point)
       whose name is never read is invisible, and the reverse scan
       cascades.
    2. Single-use inlining (forward): a pure temporary consumed exactly
       once is substituted into its consumer.  Sound because the texts
       are pure single-assignment expressions over dominating names, so
       evaluation can sink from definition to sole use without changing
       any observable — faults included: skipping a pure computation
       when an intervening load raises is invisible.
    """
    kept: list[str] = []
    used: set[str] = set()
    for line in reversed(lines):
        body = line.lstrip()
        match = _ASSIGN.match(body)
        if match is not None and match.group(1) not in used \
                and "q(" not in match.group(2) \
                and "edge(" not in match.group(2):
            continue
        kept.append(line)
        used.update(_NAME.findall(match.group(2) if match else body))
    kept.reverse()

    counts: dict[str, int] = {}
    for line in kept:
        body = line.lstrip()
        match = _ASSIGN.match(body)
        for name in _NAME.findall(match.group(2) if match else body):
            counts[name] = counts.get(name, 0) + 1
    inlined: dict[str, str] = {}

    def subst(text: str) -> str:
        return _NAME.sub(lambda m: inlined.get(m.group(0), m.group(0)),
                         text)

    out: list[str] = []
    for line in kept:
        body = line.lstrip()
        indent = line[:len(line) - len(body)]
        match = _ASSIGN.match(body)
        if match is None:
            out.append(indent + subst(body))
            continue
        name, rhs = match.group(1), subst(match.group(2))
        if counts.get(name, 0) == 1 and "q(" not in rhs \
                and "edge(" not in rhs:
            inlined[name] = rhs
            continue
        out.append(f"{indent}{name} = {rhs}")
    return out


def _emit_driver(cfg: ControlFlowGraph, costs, plan: FramePlan,
                 budgeted: bool):
    program = cfg.program
    size = len(program)
    lines: list[str] = []
    counters: dict[int, str] = {}   # leaf cycles -> counter variable
    state = {"nodes": 0, "temps": 0}

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

    def emit_ldq(instruction: Ldq, regs: dict, memo: dict,
                 indent: int) -> bool:
        """Emit one load; True when the path terminates here (a raise
        that does not depend on the frame)."""
        aval = _add_const(regs.get(instruction.rs.index, _ZERO),
                          instruction.disp)
        pb = plan.packet_base
        sb, ss = plan.scratch_base, plan.scratch_size
        if aval[0] == "k":
            address = aval[1]
            if address & 7:
                emit(indent, f'raise MachineError('
                             f'"unaligned LDQ address {address:#x}")')
                return True
            if sb <= address and address + 8 <= sb + ss:
                # Store-free program + scratch re-zeroed per invocation.
                regs[instruction.rd.index] = _ZERO
                return False
            offset = address - pb
            if offset < 0:
                # Below the packet region and not scratch: unmapped for
                # every frame, exactly as Memory._find would report.
                emit(indent, f'raise MachineError('
                             f'"unmapped address {address:#x} (size 8)")')
                return True
            name = assign(f"q(frame, {offset})[0] "
                          f"if flen >= {offset + 8} "
                          f"else edge({address}, frame, flen)",
                          indent, memo)
            regs[instruction.rd.index] = ("e", name, TOP, 0, None)
            return False
        span, kz = _info(aval)
        if aval[1].isidentifier():
            addr = aval[1]
        else:
            addr = assign(aval[1], indent, memo)
        # In-packet fast path; the range facts discharge guard terms
        # (span.lo >= base proves the lower bound, kz >= 3 the alignment).
        checks = []
        if span.lo < pb:
            checks.append(f"{pb} <= {addr}")
        checks.append(f"{addr} <= flen + {pb - 8}")
        if kz < 3:
            checks.append(f"not {addr} & 7")
        name = assign(f"q(frame, {addr} - {pb})[0] "
                      f"if {' and '.join(checks)} "
                      f"else edge({addr}, frame, flen)", indent, memo)
        regs[instruction.rd.index] = ("e", name, TOP, 0, None)
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
        # Lda / Ldah
        disp = instruction.disp
        if isinstance(instruction, Ldah):
            disp <<= 16
        regs[instruction.rd.index] = fresh(
            _add_const(regs.get(instruction.rs.index, _ZERO), disp),
            indent, memo)
        return False

    def emit_leaf(regs: dict, cycles: int, indent: int) -> None:
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
        counter = counters.setdefault(cycles, f"h{len(counters)}")
        emit(indent, f"{counter} += 1")

    def walk(pc: int, regs: dict, memo: dict, cum_cycles: int,
             cum_steps: int, indent: int) -> None:
        if indent > _MAX_DEPTH:
            raise _Fallback("tree too deep")
        while True:
            if not 0 <= pc < size:
                # The engine's trap slot: a zero-length block that
                # raises after the (elided-as-unreachable) step check.
                emit(indent,
                     f'raise MachineError("pc {pc} outside program")')
                return
            # Block entry: charge the block, then (budgeted) compare the
            # now-constant clock, reproducing the engine's payloads.
            block = cfg.blocks[cfg.block_of[pc]]
            cum_cycles += costs[block.index]
            if budgeted:
                emit(indent, f"if {cum_cycles} > b:")
                emit(indent + 1,
                     f'raise BudgetExceeded(f"exceeded cycle budget '
                     f'{{b}} ({cum_cycles} cycles after {cum_steps} '
                     f'steps)", budget=b, cycles={cum_cycles}, '
                     f'steps={cum_steps})')
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
                    emit_leaf(regs, cum_cycles, indent)
                    return
                pc = fall_through
                continue
            if fall_through is None:            # BR
                pc = taken
                continue
            reg = last.rs.index
            value = regs.get(reg, _ZERO)
            span, _ = _info(value)
            # Each arm sees the register refined by its branch outcome;
            # an infeasible arm decides the branch (a constant always
            # does), and a one-point arm (BEQ taken, BNE not) pins the
            # register so downstream reads of it const-fold.
            arms = [refine_branch((span,), last.name, 0, outcome)
                    for outcome in (True, False)]
            if None in arms:
                pc = fall_through if arms[0] is None else taken
                continue
            taken_regs, fall_regs = dict(regs), dict(regs)
            taken_regs[reg] = _value(value[1], arms[0][0], *value[3:])
            fall_regs[reg] = _value(value[1], arms[1][0], *value[3:])
            emit(indent, f"if {_branch_cond(last.name, value[1], span.hi)}:")
            walk(taken, taken_regs, dict(memo), cum_cycles, cum_steps,
                 indent + 1)
            emit(indent, "else:")
            walk(fall_through, fall_regs, dict(memo), cum_cycles,
                 cum_steps, indent + 1)
            return

    # Entry ranges are wider than the frame contract's: the drivers are
    # also run directly on frames shorter than the contract minimum.
    entry = {1: ("k", plan.packet_base), 2: ("e", "flen", TOP, 0, None),
             3: ("k", plan.scratch_base)}
    signature = ("frames, start, b" if budgeted else "frames, start")
    emit(1, "try:")
    emit(2, "for frame in (frames[start:] if start else frames):")
    emit(3, "flen = len(frame)")
    walk(0, entry, {}, 0, 0, 3)
    pairs = ", ".join(f"({cycles}, {name})"
                      for cycles, name in sorted(counters.items()))
    # Frames complete strictly in order and bump exactly one leaf
    # counter each, so the index of the faulting frame is start plus
    # the completed count — no enumerate bookkeeping in the hot loop.
    fault_index = " + ".join(["start", *counters.values()])
    emit(1, "except MachineError as error:")
    emit(2, f"return {fault_index}, accepted, [{pairs}], error")
    emit(1, f"return len(frames), accepted, [{pairs}], None")
    lines = _tidy(lines)
    # Counter zeroing must precede the try block emitted into ``lines``;
    # q/edge ride as defaults so the hot loop reads locals, not globals.
    header = [f"def _drive({signature}, q=q, edge=edge):",
              "    accepted = 0"]
    counter_init = [f"    {name} = 0" for name in counters.values()]
    source = "\n".join(header + counter_init + lines)
    namespace = {
        "q": Struct("<Q").unpack_from,
        "edge": _make_edge(plan),
        "MachineError": MachineError,
        "BudgetExceeded": BudgetExceeded,
    }
    exec(compile(source, "<alpha-batch>", "exec"), namespace)
    return namespace["_drive"]


def _make_edge(plan: FramePlan):
    """The out-of-line load path: padded-tail words, scratch reads, and
    the reference's unaligned/unmapped faults — bit-exact with
    :meth:`repro.alpha.machine.Memory.load_quad` over a rebound
    reusable packet memory running a store-free program."""
    pb, sb, ss = plan
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
        if sb <= address and address + 8 <= sb + ss:
            return 0  # scratch: zeroed per invocation, never written
        raise MachineError(f"unmapped address {address:#x} (size 8)")

    return edge
