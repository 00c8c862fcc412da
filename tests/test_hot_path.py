"""Hot-path coverage: compiled-block dispatch, chaining, invalidation,
and engine job batching.

The interpreter's ``run()`` fast path compiles basic blocks into host
closures and chains them; these tests pin the cache-coherence contract
(SMC writes and chaos decode flushes drop exactly the right blocks) and
prove the compiled path is observationally identical to the per-step
loop.  The engine tests pin that batched submission is indistinguishable
from one-future-per-job.
"""

import os

import pytest

from repro.errors import AssemblerError
from repro.isa import Assembler, Cond, Imm, Instruction, Label, Mem, Op, \
    Reg, X86LIKE
from repro.machine import CPUState, Interpreter, Memory, OperatingSystem
from repro.runtime.engine import (
    ENV_BATCH,
    ExperimentEngine,
    Job,
    resolve_batch,
)


def _countdown_machine(iterations=200, base=0x1000):
    """The canonical two-block loop: an entry block and a loop body."""
    asm = Assembler(X86LIKE)
    asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0))))
    asm.emit(Instruction(Op.MOV, (Reg(1), Imm(iterations))))
    asm.label("loop")
    asm.emit(Instruction(Op.ADD, (Reg(0), Reg(1))))
    asm.emit(Instruction(Op.SUB, (Reg(1), Imm(1))))
    asm.emit(Instruction(Op.CMP, (Reg(1), Imm(0))))
    asm.emit(Instruction(Op.JCC, (Label("loop"),), cond=Cond.GT))
    asm.emit(Instruction(Op.HLT))
    unit = asm.assemble(base)
    memory = Memory()
    memory.map("code", base, max(len(unit.data), 64), writable=True,
               executable=True, data=unit.data)
    memory.map("stack", 0x8000, 0x1000)
    cpu = CPUState(X86LIKE, pc=base)
    cpu.sp = 0x8800
    loop_address = base \
        + len(X86LIKE.encode(Instruction(Op.MOV, (Reg(0), Imm(0))), base)) \
        + len(X86LIKE.encode(Instruction(Op.MOV, (Reg(1), Imm(iterations))),
                             base))
    return Interpreter(cpu, memory, OperatingSystem()), loop_address


class TestCompiledBlockDispatch:
    def test_fast_path_compiles_and_chains(self):
        interp, loop = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        assert interp.cpu.get(0) == 20100          # sum 1..200
        assert interp.compiled_block_count >= 2    # entry + loop body
        stats = interp.block_stats
        assert stats.compiles >= 2
        assert stats.chain_links >= 1              # loop chained to itself
        entry = interp.compiled_block_at("x86like", 0x1000)
        body = interp.compiled_block_at("x86like", loop)
        assert entry is not None and body is not None
        # the loop block's back edge is memoized straight to itself
        assert body.chain.get(loop) is body

    def test_fast_path_matches_per_step_loop(self):
        fast, _ = _countdown_machine()
        slow, _ = _countdown_machine()
        slow.observers.append(lambda cpu, ins: None)   # forces slow path
        for budget in (1, 7, 256, 10_000):
            a = fast.run(budget)
            b = slow.run(budget)
            assert (a.steps, a.reason) == (b.steps, b.reason)
            assert fast.cpu.snapshot() == slow.cpu.snapshot()
        assert slow.compiled_block_count == 0      # observer: never compiled

    def test_budget_tail_is_exact(self):
        # A budget that lands mid-block must still stop at exactly that
        # count — the slow loop finishes the tail the block won't fit in.
        interp, _ = _countdown_machine()
        result = interp.run(256)
        assert result.reason == "limit"
        assert result.steps == 256

    def test_observer_forces_slow_path(self):
        interp, _ = _countdown_machine()
        seen = []
        interp.observers.append(
            lambda cpu, info: seen.append(info.decoded.instruction.op))
        assert interp.run(10_000).reason == "halt"
        assert interp.compiled_block_count == 0
        assert len(seen) == interp.steps_executed

    def test_breakpoint_forces_slow_path(self):
        interp, loop = _countdown_machine()
        interp.breakpoints.add(loop)
        assert interp.run(10_000).reason == "breakpoint"
        assert interp.compiled_block_count == 0


class TestCompiledBlockInvalidation:
    def test_smc_write_drops_exactly_affected_blocks(self):
        interp, loop = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        entry = interp.compiled_block_at("x86like", 0x1000)
        body = interp.compiled_block_at("x86like", loop)
        assert entry is not None and body is not None
        # Basic blocks split at control flow, not labels: the entry
        # block runs straight through the loop body to the JCC, so it
        # *overlaps* the loop block and both cover the patched byte.
        assert entry.end > loop
        halt_block = interp.compiled_block_at("x86like", entry.end)
        assert halt_block is not None              # the HLT fallthrough
        severed_before = interp.block_stats.chain_severed

        # Patch one byte inside the loop body.
        interp.memory.write_bytes(loop, b"\x00")
        interp.invalidate_decode_cache(loop, loop + 1)

        # Exactly the blocks whose byte span covers the write die; the
        # HLT block (entirely past the write) survives untouched.
        assert not body.valid
        assert not entry.valid
        assert halt_block.valid
        assert interp.compiled_block_at("x86like", loop) is None
        assert interp.compiled_block_at("x86like", 0x1000) is None
        assert interp.compiled_block_at(
            "x86like", halt_block.start) is halt_block
        # every chain edge into a dead block is severed — including the
        # loop's own back edge — so it can never be dispatched again
        assert interp.block_stats.chain_severed > severed_before
        assert body.chain == {}
        assert entry.chain == {}

    def test_chained_successor_dropped_with_predecessor_links(self):
        interp, loop = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        entry = interp.compiled_block_at("x86like", 0x1000)
        body = interp.compiled_block_at("x86like", loop)
        # Invalidate the *entry* block: the loop block survives but must
        # not keep a dangling back-reference to the dead predecessor.
        interp.invalidate_decode_cache(0x1000, 0x1001)
        assert not entry.valid
        assert body.valid
        assert all(pred is not entry for pred, _ in body.in_links)

    def test_full_flush_drops_every_block(self):
        interp, _ = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        assert interp.compiled_block_count > 0
        flushes_before = interp.block_stats.flushes
        interp.invalidate_decode_cache()           # the chaos-flush call
        assert interp.compiled_block_count == 0
        assert interp.block_stats.flushes == flushes_before + 1

    def test_smc_replay_matches_interpreted_path(self):
        """After patch + invalidate, the compiled path and the per-step
        loop converge on the identical final state."""
        def patched_run(force_slow):
            interp, loop = _countdown_machine()
            if force_slow:
                interp.observers.append(lambda cpu, ins: None)
            assert interp.run(256).reason == "limit"
            patch = X86LIKE.encode(
                Instruction(Op.SUB, (Reg(0), Reg(1))), loop)
            interp.memory.write_bytes(loop, patch)
            interp.invalidate_decode_cache(loop, loop + len(patch))
            assert interp.run(10_000).reason == "halt"
            return interp.cpu.snapshot(), interp.steps_executed

        fast_state, fast_steps = patched_run(force_slow=False)
        slow_state, slow_steps = patched_run(force_slow=True)
        assert fast_state == slow_state
        assert fast_steps == slow_steps
        assert fast_state["regs"][0] != 20100      # the patch took effect

    def test_stale_block_never_reentered_through_chain(self):
        interp, loop = _countdown_machine()
        assert interp.run(256).reason == "limit"   # blocks + chains built
        body = interp.compiled_block_at("x86like", loop)
        assert body is not None
        # Replace ADD with SUB in place and invalidate: the continued run
        # must execute the *new* code even though the old block was the
        # chain target of both the entry block and itself.
        patch = X86LIKE.encode(Instruction(Op.SUB, (Reg(0), Reg(1))), loop)
        interp.memory.write_bytes(loop, patch)
        interp.invalidate_decode_cache(loop, loop + len(patch))
        assert interp.run(10_000).reason == "halt"
        fresh = interp.compiled_block_at("x86like", loop)
        assert fresh is not None and fresh is not body
        assert interp.cpu.get(0) != 20100


# ---------------------------------------------------------------------
# Timing model on the compiled path
# ---------------------------------------------------------------------
_TIMED_SOURCE = """
int table[16];
int bump(int x) { table[x & 15] = table[x & 15] + x; return x * 3; }
int main() { int i; int s; int zero; s = 0; i = 0; zero = 0;
    while (i < 300) {
        if (i % 3 == 0) { s = s + bump(i); } else { s = s - i; }
        i = i + 1;
    }
    s = s + 1;
    return s / zero + s; }
"""


@pytest.fixture(scope="module")
def timed_binary():
    from repro.compiler import compile_minic
    return compile_minic(_TIMED_SOURCE)


def _timed_process(binary, isa_name, reference):
    """A fresh process with a timing model attached — through the
    timing attach point, or (``reference``) as a generic step observer,
    which forces the per-step loop."""
    from repro.isa import ISAS
    from repro.machine import Process
    from repro.perf import TimingModel
    from repro.perf.cores import CORES
    process = Process(binary.to_process_image(), ISAS[isa_name])
    timing = TimingModel(CORES[isa_name])
    if reference:
        process.interpreter.observers.append(timing.observe)
    else:
        process.interpreter.attach_timing(timing)
    return process, timing


def _timing_state(timing):
    return (repr(timing.cycles), timing.instructions,
            timing.icache.stats, timing.dcache.stats,
            timing.branch_predictor.stats)


def _run_outcome(result):
    return (result.steps, result.reason,
            None if result.fault is None else str(result.fault))


def _memory_forms_machine(timing_attach, base=0x1000):
    """A hand-assembled x86like loop over every memory-operand form the
    compiler never emits: read-modify-write ALU, memory push/pop,
    memory-indirect call and jump."""
    from repro.isa import Mem
    from repro.perf import TimingModel
    from repro.perf.cores import CORES
    frame = 0x8400
    asm = Assembler(X86LIKE)
    asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0))))
    asm.emit(Instruction(Op.MOV, (Reg(1), Imm(150))))
    asm.label("loop")
    asm.emit(Instruction(Op.ADD, (Mem(5, -8), Reg(1))))
    asm.emit(Instruction(Op.ADD, (Reg(0), Mem(5, -8))))
    asm.emit(Instruction(Op.PUSH, (Mem(5, -8),)))
    asm.emit(Instruction(Op.POP, (Mem(5, -12 - 64 * 4),))) # far line
    asm.emit(Instruction(Op.ICALL, (Mem(5, -16),)))
    asm.emit(Instruction(Op.SUB, (Reg(1), Imm(1))))
    asm.emit(Instruction(Op.CMP, (Reg(1), Imm(0))))
    asm.emit(Instruction(Op.JCC, (Label("loop"),), cond=Cond.GT))
    asm.emit(Instruction(Op.IJMP, (Mem(5, -20),)))
    asm.label("callee")
    asm.emit(Instruction(Op.XOR, (Reg(2), Reg(0))))
    asm.emit(Instruction(Op.RET))
    asm.label("done")
    asm.emit(Instruction(Op.HLT))
    unit = asm.assemble(base)
    memory = Memory()
    memory.map("code", base, 0x1000, writable=False, executable=True,
               data=unit.data)
    memory.map("stack", 0x8000, 0x1000)
    memory.write_word(frame - 16, unit.symbols["callee"])
    memory.write_word(frame - 20, unit.symbols["done"])
    cpu = CPUState(X86LIKE, pc=base)
    cpu.sp = 0x8F00
    cpu.set(5, frame)
    interp = Interpreter(cpu, memory, OperatingSystem())
    timing = TimingModel(CORES["x86like"])
    timing_attach(interp, timing)
    return interp, timing


def test_timed_memory_operand_forms_match_reference():
    def reference(interp, timing):
        interp.observers.append(timing.observe)
    states = []
    for attach in (reference, Interpreter.attach_timing):
        interp, timing = _memory_forms_machine(attach)
        steps = [interp.run(budget).steps for budget in (5, 999, 100_000)]
        assert interp.cpu.halted
        states.append((steps, interp.cpu.snapshot(), repr(timing.cycles),
                       timing.instructions, timing.icache.stats,
                       timing.dcache.stats, timing.branch_predictor.stats))
    assert states[0] == states[1]
    assert interp.compiled_block_count > 0


@pytest.mark.parametrize("isa_name", ["x86like", "armlike"])
class TestTimedCompiledPath:
    """The timed compiled path charges exactly what the per-step
    reference (``TimingModel.observe`` as an observer) charges."""

    def test_budgets_ending_mid_block(self, timed_binary, isa_name):
        runs = {}
        for reference in (True, False):
            process, timing = _timed_process(timed_binary, isa_name,
                                             reference)
            outcomes = []
            for budget in (1, 7, 13, 333, 1001, 4096, 1_000_000):
                result = process.run(budget)
                outcomes.append(_run_outcome(result))
                if result.reason != "limit":
                    break
            runs[reference] = (outcomes, _timing_state(timing),
                               process.cpu.snapshot())
            if not reference:
                assert process.interpreter.compiled_block_count > 0
        assert runs[True] == runs[False]
        # the run ends in the program's own division by zero, which sits
        # mid-block: that instruction is charged on neither path
        assert runs[False][0][-1][1] == "fault"
        assert "division by zero" in runs[False][0][-1][2]

    def test_breakpoint_mid_run(self, timed_binary, isa_name):
        runs = {}
        for reference in (True, False):
            process, timing = _timed_process(timed_binary, isa_name,
                                             reference)
            process.run(2_000)
            interpreter = process.interpreter
            interpreter.breakpoints.add(interpreter.cpu.pc)
            interpreter.run(1)                   # step off the breakpoint
            stop = interpreter.run(100_000)
            interpreter.breakpoints.clear()
            rest = interpreter.run(1_000_000)
            runs[reference] = (_run_outcome(stop), _run_outcome(rest),
                               _timing_state(timing))
        assert runs[True] == runs[False]
        assert runs[False][0][1] == "breakpoint"

    def test_fault_injector_installed(self, timed_binary, isa_name):
        from repro.faults import injection
        from repro.faults.plan import FaultPlan
        runs = {}
        for reference in (True, False):
            process, timing = _timed_process(timed_binary, isa_name,
                                             reference)
            process.run(501)                     # compiled, timed blocks
            injection.install(
                FaultPlan(seed=3, rates={"decode.flush": 0.5}))
            try:
                middle = process.run(3_000)
            finally:
                injection.uninstall()
            rest = process.run(1_000_000)
            runs[reference] = (_run_outcome(middle), _run_outcome(rest),
                               _timing_state(timing))
        assert runs[True] == runs[False]

    def test_attach_flushes_untimed_blocks(self, timed_binary, isa_name):
        from repro.isa import ISAS
        from repro.machine import Process
        from repro.perf import TimingModel
        from repro.perf.cores import CORES
        process = Process(timed_binary.to_process_image(), ISAS[isa_name])
        process.run(2_000)                       # untimed blocks
        assert process.interpreter.compiled_block_count > 0
        timing = TimingModel(CORES[isa_name])
        process.interpreter.attach_timing(timing)
        assert process.interpreter.compiled_block_count == 0
        process.run(1_000)
        assert timing.instructions == 1_000


# ---------------------------------------------------------------------
# Differential oracle: every opcode x operand form, fast path vs step()
# ---------------------------------------------------------------------
_INT_MIN, _INT_MAX, _MASK = 0x80000000, 0x7FFFFFFF, 0xFFFFFFFF
#: operand values: 0, +-1, INT_MIN, INT_MAX, shift counts >= 32, and a
#: pattern with high and low bits set
_ORACLE_VALUES = (0, 1, _MASK, _INT_MIN, _INT_MAX, 32, 37, 0x8765FEDC)
_CODE, _DATA, _STACK = 0x1000, 0x6000, 0x8000
_BASE_REG, _BASE, _DISP = 5, 0x6800, 8
_STACK_TOP = 0x8800


def _signed(value):
    value &= _MASK
    return value - (1 << 32) if value & _INT_MIN else value


def _trunc_div(a, b):
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


#: the 32-bit semantics of every ALU opcode, written out independently
#: of the interpreter's own table
_ALU_REFERENCE = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: _signed(a) * _signed(b),
    Op.DIV: lambda a, b: _trunc_div(_signed(a), _signed(b)),
    Op.MOD: lambda a, b: (_signed(a)
                          - _trunc_div(_signed(a), _signed(b)) * _signed(b)),
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << (b % 32),
    Op.SHR: lambda a, b: a >> (b % 32),
    Op.SAR: lambda a, b: _signed(a) >> (b % 32),
}
_COND_REFERENCE = {
    Cond.EQ: lambda a, b: a == b, Cond.NE: lambda a, b: a != b,
    Cond.LT: lambda a, b: a < b, Cond.LE: lambda a, b: a <= b,
    Cond.GT: lambda a, b: a > b, Cond.GE: lambda a, b: a >= b,
}
_TWO_OPERAND = (Op.MOV, Op.LOAD, Op.STORE, Op.LOADB, Op.STOREB, Op.LEA,
                Op.MOVT, Op.CMP) + tuple(_ALU_REFERENCE)
_ONE_OPERAND = (Op.NEG, Op.NOT, Op.PUSH, Op.POP)


def _encodable(isa, ins):
    try:
        data = isa.encode(ins, _CODE)
    except AssemblerError:
        return False
    # the form must survive a round trip (armlike's imm16 sign-extends)
    return isa.decode(data, 0, _CODE).instruction.operands == ins.operands


def _oracle_cases(isa):
    """(instruction, dst value, src value) for every operand form the
    ISA encodes, over every pair of oracle values."""
    memory = Mem(_BASE_REG, _DISP)
    for op in _TWO_OPERAND:
        # one register destination: r0, or r2 where only that encodes
        # (x86like's MOD writes edx)
        dsts = [dst for dst in (Reg(0), Reg(2))
                if any(_encodable(isa, Instruction(op, (dst, src)))
                       for src in (Reg(1), Imm(1), memory))][:1]
        for dst in dsts + [memory]:
            for src in (Reg(1), Imm(1), memory):
                if not _encodable(isa, Instruction(op, (dst, src))):
                    continue
                for a in _ORACLE_VALUES:
                    for b in _ORACLE_VALUES:
                        operand = Imm(b) if isinstance(src, Imm) else src
                        ins = Instruction(op, (dst, operand))
                        if _encodable(isa, ins):
                            yield ins, a, b
    for op in _ONE_OPERAND:
        for operand in (Reg(0), Imm(0x8765FEDC), memory):
            ins = Instruction(op, (operand,))
            if _encodable(isa, ins):
                for a in _ORACLE_VALUES:
                    yield ins, a, 0


def _oracle_machine(isa, instructions, a, b, wide=False):
    """Assemble ``NOP; <instructions>; HLT; target: HLT`` with the dst
    value ``a`` in r0, r2 and the stack slot, the src value ``b`` in r1,
    and the memory operand's word holding whichever of the two it is.

    ``wide`` plants every register value off by a multiple of 2**32
    (the base register and the stack pointer too): both paths must
    truncate them to the same 32-bit results."""
    asm = Assembler(isa)
    asm.emit(Instruction(Op.NOP))
    for ins in instructions:
        asm.emit(ins)
    asm.emit(Instruction(Op.HLT))
    asm.label("target")
    asm.emit(Instruction(Op.HLT))
    unit = asm.assemble(_CODE)
    memory = Memory()
    memory.map("code", _CODE, 0x1000, writable=False, executable=True,
               data=unit.data)
    memory.map("data", _DATA, 0x1000)
    memory.map("stack", _STACK, 0x1000)
    cpu = CPUState(isa, pc=_CODE)
    excess = 1 << 32 if wide else 0
    for index in range(isa.num_registers):
        cpu.regs[index] = ((0x01010101 * (index + 3)) & _MASK) + excess
    cpu.regs[0] = cpu.regs[2] = a - excess
    cpu.regs[1] = b + excess
    cpu.regs[_BASE_REG] = _BASE + excess
    cpu.regs[isa.sp] = _STACK_TOP + excess
    first = instructions[0].operands[:1]
    memory.write_word(_BASE + _DISP,
                      a if first and isinstance(first[0], Mem) else b)
    memory.write_word(_STACK_TOP, a)
    return Interpreter(cpu, memory, OperatingSystem()), unit


def _oracle_state(interp, result, timing):
    memory = interp.memory
    state = {
        "result": (result.steps, result.reason),
        "fault": None if result.fault is None
        else (type(result.fault), result.fault.address, str(result.fault)),
        "steps": interp.steps_executed,
        "cpu": interp.cpu.snapshot(),
        "halted": interp.cpu.halted,
        "memory": [bytes(memory.segment(name).data)
                   for name in ("data", "stack")],
    }
    if timing is not None:
        # the resident D-cache lines tell a truncated effective address
        # from one that is only congruent to it
        state["timing"] = (_timing_state(timing), timing.dcache._sets)
    return state


def _oracle_paths(isa, instructions, a, b):
    """The final state on the compiled path and on step(), untimed and
    with a timing model attached; asserts they agree pairwise.  The
    timed pair starts from wide register values (see
    :func:`_oracle_machine`); the untimed state is returned."""
    from repro.perf import TimingModel
    from repro.perf.cores import CORES
    states = {}
    for timed in (False, True):
        for fast in (True, False):
            interp, unit = _oracle_machine(isa, instructions, a, b,
                                           wide=timed)
            timing = TimingModel(CORES[isa.name]) if timed else None
            if fast and timed:
                interp.attach_timing(timing)
            elif timed:
                interp.observers.append(timing.observe)
            elif not fast:
                interp.observers.append(lambda cpu, info: None)
            result = interp.run(100)
            assert (interp.compiled_block_count > 0) == fast
            states[timed, fast] = _oracle_state(interp, result, timing)
        assert states[timed, True] == states[timed, False], \
            (instructions, a, b, timed)
    return states[False, True], unit


@pytest.mark.parametrize("isa_name", ["x86like", "armlike"])
def test_oracle_every_opcode_and_operand_form(isa_name):
    from repro.errors import MachineFault
    from repro.isa import ISAS
    isa = ISAS[isa_name]
    fault_pc = _CODE + len(isa.encode(Instruction(Op.NOP)))
    forms = set()
    for ins, a, b in _oracle_cases(isa):
        state, _ = _oracle_paths(isa, [ins], a, b)
        forms.add((ins.op, tuple(type(o) for o in ins.operands)))
        op, dst = ins.op, ins.operands[0]
        if op in (Op.DIV, Op.MOD) and _signed(b) == 0:
            # the fault names the instruction; only the NOP completed
            assert state["result"] == (1, "fault")
            assert state["fault"][:2] == (MachineFault, fault_pc)
            assert "division by zero" in state["fault"][2]
            continue
        assert state["halted"], (ins, a, b)
        if op in _ALU_REFERENCE and isinstance(dst, Reg):
            expected = _ALU_REFERENCE[op](a, b) & _MASK
            assert state["cpu"]["regs"][dst.index] == expected, (ins, a, b)
        if op is Op.CMP and isinstance(dst, Reg):
            assert state["cpu"]["cmp"] == _signed(a) - _signed(b)
    # every form each ISA encodes is covered, the rare ones included
    if isa_name == "x86like":
        for form in ((Op.ADD, (Mem, Reg)), (Op.PUSH, (Mem,)),
                     (Op.POP, (Mem,)), (Op.STORE, (Mem, Imm)),
                     (Op.CMP, (Reg, Mem)), (Op.MUL, (Reg, Imm))):
            assert form in forms
        assert len(forms) == 50
    else:
        assert (Op.MOVT, (Reg, Imm)) in forms
        assert len(forms) == 33


@pytest.mark.parametrize("isa_name", ["x86like", "armlike"])
def test_oracle_compare_and_branch(isa_name):
    """CMP reg,reg and reg,imm, then every condition: the branch goes
    where the signed comparison says, on both paths."""
    from repro.isa import ISAS
    isa = ISAS[isa_name]
    outcomes = set()
    for cond in Cond:
        for a in _ORACLE_VALUES:
            for b in _ORACLE_VALUES:
                for src in (Reg(1), Imm(b)):
                    compare = Instruction(Op.CMP, (Reg(0), src))
                    if not _encodable(isa, compare):
                        continue
                    branch = Instruction(Op.JCC, (Label("target"),),
                                         cond=cond)
                    state, unit = _oracle_paths(isa, [compare, branch],
                                                a, b)
                    taken = _COND_REFERENCE[cond](_signed(a), _signed(b))
                    assert state["cpu"]["cmp"] == _signed(a) - _signed(b)
                    # the HLT before ``target`` stops at target, the one
                    # at it one past
                    target = unit.symbols["target"]
                    assert state["halted"]
                    assert (state["cpu"]["pc"] > target) == taken, \
                        (cond, a, b, src)
                    outcomes.add((cond, taken))
    assert len(outcomes) == 2 * len(Cond)


@pytest.mark.parametrize("isa_name", ["x86like", "armlike"])
def test_oracle_control_transfers(isa_name):
    """Every transfer form lands on ``target``: direct targets by label,
    indirect ones through r1 or the memory word, RET through the stack
    slot, all of which hold target's address."""
    from repro.isa import ISAS
    isa = ISAS[isa_name]
    memory = Mem(_BASE_REG, _DISP)
    forms = [Instruction(Op.JMP, (Label("target"),)),
             Instruction(Op.CALL, (Label("target"),)),
             Instruction(Op.RET)]
    forms += [Instruction(op, (operand,))
              for op in (Op.ICALL, Op.IJMP) for operand in (Reg(1), memory)
              if _encodable(isa, Instruction(op, (operand,)))]
    for ins in forms:
        target = _oracle_machine(isa, [ins], 0, 0)[1].symbols["target"]
        state, _ = _oracle_paths(isa, [ins], target, target)
        assert state["halted"]
        assert state["cpu"]["pc"] == target + \
            len(isa.encode(Instruction(Op.HLT))), ins
    assert len(forms) == (7 if isa_name == "x86like" else 5)


# ---------------------------------------------------------------------
# Engine job batching
# ---------------------------------------------------------------------
def _square(x):
    return x * x


def _boom_on_seven(x):
    if x == 7:
        raise ValueError("injected failure")
    return x * x


def _pid_tag(x):
    return (x, os.getpid())


class TestEngineBatching:
    def test_resolve_batch_policy(self, monkeypatch):
        monkeypatch.delenv(ENV_BATCH, raising=False)
        assert resolve_batch(None) == 1            # default: unbatched
        assert resolve_batch(4) == 4
        assert resolve_batch(0) == 0
        monkeypatch.setenv(ENV_BATCH, "auto")
        assert resolve_batch(None) == 0
        monkeypatch.setenv(ENV_BATCH, "3")
        assert resolve_batch(None) == 3
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            resolve_batch(-1)

    def test_batched_results_identical_to_unbatched(self):
        jobs = [Job(key=f"sq:{x}", fn=_boom_on_seven, args=(x,))
                for x in range(17)]

        def digest(results):
            return [(r.key, r.index, r.value, r.ok) for r in results]

        serial = digest(ExperimentEngine(workers=1).run(jobs))
        for batch in (0, 1, 3, 100):
            engine = ExperimentEngine(workers=2, batch=batch)
            assert digest(engine.run(jobs)) == serial

    def test_group_failure_isolated_per_job(self):
        # One raising job inside a batch fails only itself.
        jobs = [Job(key=f"j:{x}", fn=_boom_on_seven, args=(x,))
                for x in range(10)]
        results = ExperimentEngine(workers=2, batch=0).run(jobs)
        assert [r.ok for r in results] == [x != 7 for x in range(10)]
        assert results[7].error.startswith("ValueError")

    def test_auto_batch_groups_jobs_per_worker(self):
        # With batch=0 and 2 workers, 8 jobs ride in 2 submissions: at
        # most two distinct worker pids appear, and each pid hosts a
        # full contiguous group.
        jobs = [Job(key=f"p:{x}", fn=_pid_tag, args=(x,))
                for x in range(8)]
        results = ExperimentEngine(workers=2, batch=0).run(jobs)
        pids = [r.value[1] for r in results]
        assert len(set(pids)) <= 2
        assert pids[:4] == [pids[0]] * 4           # first group together
        assert pids[4:] == [pids[4]] * 4           # second group together

    def test_explicit_batch_chunking(self):
        jobs = [Job(key=f"p:{x}", fn=_pid_tag, args=(x,))
                for x in range(9)]
        results = ExperimentEngine(workers=2, batch=4).run(jobs)
        values = [r.value[0] for r in results]
        assert values == list(range(9))            # order preserved
        # chunks of 4 stay on one worker apiece
        for chunk_start in (0, 4):
            chunk_pids = {r.value[1]
                          for r in results[chunk_start:chunk_start + 4]}
            assert len(chunk_pids) == 1
