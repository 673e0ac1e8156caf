"""Block-compiled execution engine for the Alpha subset.

:class:`repro.alpha.machine.Machine` is the *reference* interpreter: it
re-decodes every instruction on every step (``isinstance`` chains,
string-keyed operator dispatch, a ``cost_model.cycles()`` call per
instruction).  That is faithful to Figure 3 but dominates the wall-clock
cost of the paper's evaluation, where four filters run over a
200,000-packet trace under six approaches.

This module removes the interpretation overhead without changing a single
modeled cycle.  A :class:`Program` is cut into basic blocks once, by
:func:`repro.alpha.isa.block_partition`, and every block is compiled with
``exec`` into one specialized Python function — a *superinstruction*:

* register indices, displacements, operate literals and branch targets
  are constants in the generated source, and each operator and branch
  test is its expression in :data:`repro.alpha.isa.OPERATE_PY` or
  :data:`~repro.alpha.isa.BRANCH_PY`; registers live in locals and are
  flushed to the register file at the block exit;
* a block's dynamic step and cycle counts are decode-time constants, so
  the run loop charges them with two additions per *block*;
* a branch target that leaves the program resolves to a trap slot past
  the program: a one-line function raising the same
  :class:`~repro.errors.MachineError` the reference machine raises, at
  the same point in execution, so the run loop needs no bounds check;
* the abstract machine's rd()/wr() checks are a *decode-time* parameter:
  passing ``check_read``/``check_write`` emits the paper's Figure 3
  checks before every LDQ/STQ (see
  :func:`repro.alpha.abstract.abstract_engine`).

Mid-block exceptions are safe: the run loop never exposes its register
list, so deferred write-back is unobservable, and instructions execute
in program order inside a block, so error sites, messages and ordering
match the reference.

One block loop serves both :meth:`ExecutionEngine.run` and
:meth:`ExecutionEngine.run_batch`.  At every block entry it checks the
step limit and charges the whole block against the optional cycle
budget.  The one block that would cross the step limit is not run
compiled: the loop hands its entry state to the reference machine
(:meth:`Machine.resume`, same hooks), so behaviour at the limit is the
reference's by construction.

Unchecked compilations are cached per ``(program, cost_model)`` in a
module-level code cache: the perf harness compiles each filter once and
reuses the blocks across all 200,000 packets.  Checked compilations
capture per-run hooks and are rebuilt per engine.

The engine is *bit-identical* to the reference machine — same
``MachineResult`` fields, same error types and messages, same
abstract-machine blocking — which the differential property suite
(``tests/alpha/test_engine_differential.py``) asserts on random programs.

Cost models are resolved at decode time, so they must be pure functions
of the static instruction (true of :class:`repro.perf.cost.AlphaCostModel`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.alpha.isa import (
    BRANCH_PY,
    NUM_REGS,
    OPERATE_PY,
    Br,
    Branch,
    Instruction,
    Lda,
    Ldq,
    Lit,
    Operate,
    Program,
    Ret,
    Stq,
    block_exits,
    block_partition,
)
from repro.alpha.machine import (
    WORD_MASK,
    CheckHook,
    Machine,
    MachineResult,
    Memory,
)
from repro.errors import BudgetExceeded, MachineError

_RET = -1


class CompiledCode(NamedTuple):
    """One program's block functions and their decode-time charges.

    Indexed by pc and populated only at block leaders and at the trap
    slots appended past the program for targets that leave it — the only
    pcs control flow can reach from outside a block.
    """

    blocks: list
    block_len: list
    block_cost: list


# ---------------------------------------------------------------------------
# The program code cache (unchecked compilations only).

_CODE_CACHE: dict = {}
_CODE_CACHE_LIMIT = 512


def code_cache_size() -> int:
    """Number of cached compilations (introspection for tests)."""
    return len(_CODE_CACHE)


def clear_code_cache() -> None:
    """Drop every cached compilation."""
    _CODE_CACHE.clear()


def compile_program(program: Program, cost_model=None,
                    check_read: CheckHook | None = None,
                    check_write: CheckHook | None = None,
                    ) -> CompiledCode:
    """Compile ``program`` into block functions (:class:`CompiledCode`).

    Unchecked compilations are cached; checked ones capture the hook
    closures and are always rebuilt (the hooks embed per-run state).
    """
    if check_read is None and check_write is None:
        key = (program, cost_model)
        try:
            cached = _CODE_CACHE.get(key)
        except TypeError:           # unhashable custom cost model
            return _compile_blocks(program, cost_model, None, None)
        if cached is not None:
            return cached
        compiled = _compile_blocks(program, cost_model, None, None)
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = compiled
        return compiled
    return _compile_blocks(program, cost_model, check_read, check_write)


class ExecutionEngine:
    """Runs one compiled program; reusable across memories and runs.

    The constructor pays the (cached) compilation cost; :meth:`run` and
    :meth:`run_batch` are the per-packet hot paths.  ``check_read`` and
    ``check_write`` follow the :class:`Machine` hook contract and turn
    this into the abstract machine of Figure 3.
    """

    def __init__(self, program: Program, cost_model=None,
                 max_steps: int = 1_000_000,
                 check_read: CheckHook | None = None,
                 check_write: CheckHook | None = None) -> None:
        self.program = program
        self.cost_model = cost_model
        self.max_steps = max_steps
        self._check_read = check_read
        self._check_write = check_write
        self._code = compile_program(
            program, cost_model, check_read, check_write)

    def run(self, memory: Memory, registers: dict[int, int] | None = None,
            cycle_budget: int | None = None) -> MachineResult:
        """Execute once against ``memory``; registers start zeroed.

        With ``cycle_budget`` set, raise :class:`BudgetExceeded` as soon
        as the modeled clock passes it.  The check runs at block entry,
        after charging the whole block and before running it, so a
        runaway loop is cut off within one block of the budget line and
        an invocation that completes within budget returns exactly what
        an unbudgeted run returns.  The step limit still applies, for
        cost models that charge zero cycles.
        """
        regs = [0] * NUM_REGS
        if registers:
            for index, value in registers.items():
                regs[index] = value & WORD_MASK
        return self._execute(regs, memory, cycle_budget)

    def run_batch(self, memory: Memory, rebind, frames: list,
                  registers_fn, start: int = 0,
                  cycle_budget: int | None = None):
        """Run one invocation per frame of ``frames[start:]`` without
        re-entering Python dispatch between packets.

        ``rebind`` and ``registers_fn`` follow the
        :func:`repro.filters.policy.reusable_packet_memory` /
        :func:`~repro.filters.policy.filter_registers` contracts: before
        each invocation the packet region is rebound to the frame bytes
        and a fresh entry-register dict is built from the frame length.
        Each invocation is :meth:`run` with ``cycle_budget`` on a freshly
        rebound memory — the same block loop, entered once per frame.

        Returns ``(next_index, accepted, hist_pairs, error)``:
        ``next_index`` is one past the last frame *executed* (equal to
        ``len(frames)`` when every frame completed), ``accepted`` counts
        completed frames with truthy verdicts, ``hist_pairs`` is the
        exact cycle histogram of completed frames as ``(cycles, count)``
        pairs, and ``error`` is the :class:`MachineError` raised by
        frame ``next_index`` (or ``None``).  The caller resumes at
        ``next_index + 1`` after accounting the fault, which reproduces
        the serial per-frame dispatch protocol exactly.
        """
        execute = self._execute
        accepted = 0
        hist: dict[int, int] = {}
        index = start
        try:
            for index in range(start, len(frames)):
                frame = frames[index]
                rebind(frame)
                regs = [0] * NUM_REGS
                for reg_index, value in registers_fn(len(frame)).items():
                    regs[reg_index] = value & WORD_MASK
                result = execute(regs, memory, cycle_budget)
                accepted += 1 if result.value else 0
                hist[result.cycles] = hist.get(result.cycles, 0) + 1
        except MachineError as error:
            return index, accepted, list(hist.items()), error
        return len(frames), accepted, list(hist.items()), None

    def _execute(self, regs: list, memory: Memory,
                 cycle_budget: int | None) -> MachineResult:
        """The block loop: run from pc 0 on ``regs`` until RET."""
        blocks, block_len, block_cost = self._code
        max_steps = self.max_steps
        pc = steps = cycles = 0
        while True:
            if steps >= max_steps:
                raise MachineError(
                    f"exceeded {max_steps} steps (runaway program?)")
            cycles += block_cost[pc]
            if cycle_budget is not None and cycles > cycle_budget:
                raise BudgetExceeded(
                    f"exceeded cycle budget {cycle_budget} "
                    f"({cycles} cycles after {steps} steps)",
                    budget=cycle_budget, cycles=cycles, steps=steps)
            length = block_len[pc]
            if steps + length > max_steps:
                break
            steps += length
            pc = blocks[pc](regs, memory)
            if pc < 0:
                return MachineResult(regs[0], steps, cycles)
        # This block would cross the step limit: having charged it whole
        # against the budget like every other, step it on the reference
        # machine from its entry state (trap slots have length 0, so pc
        # is a real leader here).
        machine = Machine(self.program, memory, dict(enumerate(regs)),
                          self.cost_model, max_steps,
                          check_read=self._check_read,
                          check_write=self._check_write)
        return machine.resume(pc, steps, cycles - block_cost[pc])


# ---------------------------------------------------------------------------
# Block compilation.
#
# Each block compiles to one exec-generated function in which registers
# live in locals; the register file is written back only at the block
# exit, which is sound because the run loop never exposes its register
# list — a mid-block exception discards it.  Instructions execute in
# program order inside the block, so error sites, messages and ordering
# match the reference.

_M = str(WORD_MASK)


class _BlockAssembler:
    """Builds one block's source; registers are cached in locals."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._cached: set[int] = set()
        self._dirty: set[int] = set()

    def line(self, text: str) -> None:
        self._lines.append("    " + text)

    def use(self, index: int) -> str:
        """An rvalue for register ``index``, loading it on first use."""
        if index not in self._cached:
            self.line(f"r{index} = regs[{index}]")
            self._cached.add(index)
        return f"r{index}"

    def assign(self, index: int, expr: str) -> None:
        self.line(f"r{index} = {expr}")
        self._cached.add(index)
        self._dirty.add(index)

    def flush(self) -> None:
        """Write every dirty local back to the register file."""
        for index in sorted(self._dirty):
            self.line(f"regs[{index}] = r{index}")
        self._dirty.clear()

    def render(self) -> str:
        return "\n".join(self._lines)


def _address_expr(asm: _BlockAssembler, base_index: int, disp: int) -> str:
    base = asm.use(base_index)
    if disp == 0:
        # Register values are invariantly < 2^64, so (r + 0) & MASK == r.
        return base
    return f"({base} + {disp}) & {_M}"


def _operate_expr(asm: _BlockAssembler, instruction: Operate) -> str:
    a = asm.use(instruction.ra.index)
    rb = instruction.rb
    b = rb.value if isinstance(rb, Lit) else asm.use(rb.index)
    return OPERATE_PY[instruction.name].format(a=a, b=b)


def _emit_straightline(asm: _BlockAssembler, instruction: Instruction,
                       pc: int, checked_read: bool,
                       checked_write: bool) -> None:
    if isinstance(instruction, Operate):
        asm.assign(instruction.rc.index, _operate_expr(asm, instruction))
    elif isinstance(instruction, Ldq):
        address = _address_expr(asm, instruction.rs.index, instruction.disp)
        if checked_read:
            asm.line(f"_a = {address}")
            asm.line(f"check_read(_a, {pc})")
            address = "_a"
        asm.assign(instruction.rd.index, f"memory.load_quad({address})")
    elif isinstance(instruction, Stq):
        address = _address_expr(asm, instruction.rd.index, instruction.disp)
        value = asm.use(instruction.rs.index)
        if checked_write:
            asm.line(f"_a = {address}")
            asm.line(f"check_write(_a, {pc})")
            address = "_a"
        asm.line(f"memory.store_quad({address}, {value})")
    elif isinstance(instruction, Lda):
        asm.assign(instruction.rd.index,
                   _address_expr(asm, instruction.rs.index, instruction.disp))
    else:  # Ldah — the only remaining straight-line kind
        asm.assign(instruction.rd.index,
                   _address_expr(asm, instruction.rs.index,
                                 instruction.disp << 16))


def _block_source(program: Program, start: int, end: int,
                  resolve: Callable[[int], int], checked_read: bool,
                  checked_write: bool) -> str:
    """The body of the function for the block at pcs ``start..end-1``."""
    asm = _BlockAssembler()
    last = program[end - 1]
    transfers = isinstance(last, (Branch, Br, Ret))
    for pc in range(start, end - 1 if transfers else end):
        _emit_straightline(asm, program[pc], pc, checked_read, checked_write)
    # A fall-through may run off the end of the program onto a trap
    # slot, which the run loop enters after its step check as the
    # reference machine does.
    taken, fall_through = block_exits(program, end)
    if taken is None:
        successor = _RET if fall_through is None else resolve(fall_through)
    elif fall_through is None:
        successor = resolve(taken)
    else:
        condition = BRANCH_PY[last.name].format(s=asm.use(last.rs.index))
        successor = (f"{resolve(taken)} if {condition} "
                     f"else {resolve(fall_through)}")
    asm.flush()
    asm.line(f"return {successor}")
    return asm.render()


def _compile_blocks(program: Program, cost_model,
                    check_read: CheckHook | None,
                    check_write: CheckHook | None) -> CompiledCode:
    size = len(program)
    costs = [cost_model.cycles(instruction) if cost_model is not None else 1
             for instruction in program]
    traps: dict[int, int] = {}     # target outside the program -> slot

    def resolve(target: int) -> int:
        """A successor pc, or the trap slot raising the reference error."""
        if 0 <= target < size:
            return target
        return traps.setdefault(target, size + len(traps))

    resolve(0)                     # the empty program faults at entry
    partition = block_partition(program)
    sources = [f"def _b{start}(regs, memory):\n"
               + _block_source(program, start, end, resolve,
                               check_read is not None,
                               check_write is not None)
               for start, end in partition]
    # Trap slots are zero-length blocks: the run loop's step check runs
    # first, then the trap raises — the reference's ordering.
    sources += [f"def _b{slot}(regs, memory): "
                f"raise MachineError('pc {target} outside program')"
                for target, slot in traps.items()]
    namespace = {"check_read": check_read, "check_write": check_write,
                 "MachineError": MachineError}
    exec(compile("\n".join(sources), "<alpha-blocks>", "exec"), namespace)

    total = size + len(traps)
    blocks: list = [None] * total
    block_len = [0] * total
    block_cost = [0] * total
    for start, end in partition:
        block_len[start] = end - start
        block_cost[start] = sum(costs[start:end])
    for pc in [start for start, _ in partition] + list(traps.values()):
        blocks[pc] = namespace[f"_b{pc}"]
    return CompiledCode(blocks, block_len, block_cost)
