"""Fetch–decode–execute interpreter over encoded binaries.

The interpreter is ISA-agnostic: it fetches bytes from memory at the
program counter, decodes them through the CPU's ISA description, and
executes the shared instruction semantics.  Two extension points let the
rest of the system build on it without subclassing:

* :class:`ExecutionHooks` — the dynamic binary translator's interception
  surface.  ``resolve_target`` is consulted on *every* control transfer
  (this is where translate-on-miss, RAT lookups, SFI policing, and
  migration decisions live); ``on_call`` chooses the return address that
  gets saved (the PSR VM saves *source* addresses, per Section 5.1).
* the timing attach point (:meth:`Interpreter.attach_timing`) — one
  timing model per interpreter, charged for every executed instruction
  on either execution path: the per-step loop hands it each
  instruction's memory/branch behaviour, and compiled blocks carry its
  precomputed static costs and hand it only the dynamic events (data
  addresses, branch outcome) once per block.  It never forces the
  per-step loop.
* step observers — generic callables receiving each executed instruction
  plus its memory/branch behaviour (tracing, metrics, attack analyses).
  Any observer forces the per-step loop.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..dbt.code_cache import CompiledBlock, CompiledBlockCache
from ..errors import (
    AlignmentFault, DecodeError, IllegalInstruction, MachineFault)
from ..faults import injection as _faults
from ..obs import context as _obs
from ..isa.base import (
    COND_TESTS, Decoded, Imm, Mem, Op, Reg, WORD_SIZE, to_signed,
    to_unsigned)
from .cpu import CPUState
from .memory import Memory
from .syscalls import OperatingSystem

#: Maximum bytes one instruction can occupy (x86like tops out at 10).
MAX_INSTRUCTION_BYTES = 12

#: decode-cache page granularity; invalidation cost is O(pages touched)
DECODE_PAGE_SHIFT = 12
DECODE_PAGE_SIZE = 1 << DECODE_PAGE_SHIFT

#: longest straight-line run compiled into one block closure
MAX_BLOCK_INSTRUCTIONS = 64


class ExecutionHooks:
    """Default (native) hooks: no redirection, return addresses unchanged."""

    def resolve_target(self, kind: str, cpu: CPUState, target: int) -> int:
        """Map a control-transfer target before the PC moves there.

        ``kind`` is one of ``call``, ``jmp``, ``jcc``, ``icall``, ``ijmp``,
        ``ret``.  The DBT overrides this to translate-on-miss and to police
        indirect transfers.
        """
        return target

    def on_call(self, cpu: CPUState, return_address: int) -> int:
        """Choose the return address to save for a call instruction."""
        return return_address


@dataclass
class StepInfo:
    """What one executed instruction did — for step observers and timing."""

    decoded: Decoded
    #: (address, is_write) for every data-memory access, in order
    mem_accesses: List[Tuple[int, bool]] = field(default_factory=list)
    #: for control instructions: did the transfer happen, and to where
    branch_taken: bool = False
    branch_target: int = 0


@dataclass
class ExecutionResult:
    """Outcome of an interpreter run."""

    steps: int
    reason: str                      # "halt" | "limit" | "fault" | "breakpoint"
    fault: Optional[MachineFault] = None

    @property
    def crashed(self) -> bool:
        return self.reason == "fault"


StepObserver = Callable[[CPUState, StepInfo], None]


class Interpreter:
    """Executes one hardware context (CPU + memory + OS)."""

    def __init__(self, cpu: CPUState, memory: Memory, os: OperatingSystem,
                 hooks: Optional[ExecutionHooks] = None):
        self.cpu = cpu
        self.memory = memory
        self.os = os
        self.hooks = hooks or ExecutionHooks()
        self.observers: List[StepObserver] = []
        self.steps_executed = 0
        #: page-indexed decode cache: page number -> {(isa, pc): Decoded}.
        #: Self-modifying code (the DBT rewriting its code cache) touches
        #: a handful of pages at a time, so invalidation scans only the
        #: affected buckets instead of every cached decode.
        self._decode_pages: Dict[int, Dict[Tuple[str, int], Decoded]] = {}
        #: compiled-block cache for the threaded-code fast path; shares
        #: the decode cache's page granularity and invalidation contract
        self._blocks = CompiledBlockCache(DECODE_PAGE_SHIFT)
        self.breakpoints: set = set()
        #: the attached timing model, if any (see :meth:`attach_timing`)
        self.timing = None

    def attach_timing(self, model) -> None:
        """Charge every instruction executed from now on to ``model``.

        ``model`` (a :class:`~repro.perf.timing.TimingModel`, or None to
        detach) implements ``observe`` for the per-step loop and
        ``plan_block``/``charge_block`` for compiled blocks.  Attaching
        flushes the compiled-block cache, so blocks compiled with and
        without a timing model never mix.
        """
        self.timing = model
        self._blocks.invalidate()

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def invalidate_decode_cache(self, base: Optional[int] = None,
                                end: Optional[int] = None) -> None:
        """Drop cached decodes (call after writing to executable memory).

        With no arguments the whole cache is dropped.  With a ``[base,
        end)`` range, only the pages overlapping the range are visited —
        a fully-covered page is discarded wholesale, a partially-covered
        one is scanned for stale entries.  Compiled blocks overlapping
        the range are dropped too (with their chain links severed), so
        the block cache can never be staler than the decode cache.
        """
        self._blocks.invalidate(base, end)
        if base is None:
            self._decode_pages.clear()
            return
        if end is None:
            end = base + 1
        pages = self._decode_pages
        for page in range(base >> DECODE_PAGE_SHIFT,
                          ((end - 1) >> DECODE_PAGE_SHIFT) + 1):
            bucket = pages.get(page)
            if bucket is None:
                continue
            page_start = page << DECODE_PAGE_SHIFT
            if base <= page_start and page_start + DECODE_PAGE_SIZE <= end:
                del pages[page]
                continue
            stale = [key for key in bucket if base <= key[1] < end]
            for key in stale:
                del bucket[key]
            if not bucket:
                del pages[page]

    def cached_decode(self, isa_name: str, pc: int) -> Optional[Decoded]:
        """The cached decode at ``pc`` for ``isa_name``, if any."""
        bucket = self._decode_pages.get(pc >> DECODE_PAGE_SHIFT)
        if bucket is None:
            return None
        return bucket.get((isa_name, pc))

    @property
    def decode_cache_size(self) -> int:
        """Total cached decodes across every page."""
        return sum(len(bucket) for bucket in self._decode_pages.values())

    def _decode(self, cpu: CPUState, pc: int) -> Decoded:
        isa = cpu.isa
        bucket = self._decode_pages.get(pc >> DECODE_PAGE_SHIFT)
        key = (isa.name, pc)
        if bucket is not None:
            cached = bucket.get(key)
            if cached is not None:
                return cached
        if pc % isa.alignment:
            raise AlignmentFault(pc)
        window = self.memory.fetch_window(pc, MAX_INSTRUCTION_BYTES)
        try:
            decoded = isa.decode(window, 0, pc)
        except DecodeError:
            raise IllegalInstruction(pc) from None
        if bucket is None:
            bucket = self._decode_pages.setdefault(pc >> DECODE_PAGE_SHIFT,
                                                   {})
        bucket[key] = decoded
        return decoded

    # ------------------------------------------------------------------
    # Operand evaluation
    # ------------------------------------------------------------------
    def _mem_address(self, cpu: CPUState, operand: Mem) -> int:
        return to_unsigned(cpu.get(operand.base) + operand.disp)

    def _value(self, cpu: CPUState, operand, info: StepInfo) -> int:
        if isinstance(operand, Reg):
            return cpu.get(operand.index)
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Mem):
            address = self._mem_address(cpu, operand)
            info.mem_accesses.append((address, False))
            return self.memory.read_word(address)
        raise IllegalInstruction(cpu.pc)

    def _write(self, cpu: CPUState, operand, value: int, info: StepInfo) -> None:
        if isinstance(operand, Reg):
            cpu.set(operand.index, value)
            return
        if isinstance(operand, Mem):
            address = self._mem_address(cpu, operand)
            info.mem_accesses.append((address, True))
            self.memory.write_word(address, value)
            return
        raise IllegalInstruction(cpu.pc)

    # ------------------------------------------------------------------
    # Stack helpers
    # ------------------------------------------------------------------
    def _push(self, cpu: CPUState, value: int, info: StepInfo) -> None:
        cpu.sp = cpu.sp - WORD_SIZE
        info.mem_accesses.append((cpu.sp, True))
        self.memory.write_word(cpu.sp, value)

    def _pop(self, cpu: CPUState, info: StepInfo) -> int:
        address = cpu.sp
        info.mem_accesses.append((address, False))
        value = self.memory.read_word(address)
        cpu.sp = address + WORD_SIZE
        return value

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StepInfo:
        """Execute exactly one instruction; raises on modelled faults."""
        cpu = self.cpu
        decoded = self._decode(cpu, cpu.pc)
        ins = decoded.instruction
        info = StepInfo(decoded=decoded)
        next_pc = decoded.end
        op = ins.op
        ops = ins.operands

        if op is Op.NOP:
            pass
        elif op is Op.HLT:
            cpu.halted = True
        elif op is Op.MOV:
            self._write(cpu, ops[0], self._value(cpu, ops[1], info), info)
        elif op is Op.MOVT:
            low = cpu.get(ops[0].index) & 0xFFFF
            cpu.set(ops[0].index, low | ((ops[1].value & 0xFFFF) << 16))
        elif op is Op.LOAD:
            self._write(cpu, ops[0], self._value(cpu, ops[1], info), info)
        elif op is Op.STORE:
            self._write(cpu, ops[0], self._value(cpu, ops[1], info), info)
        elif op is Op.LOADB:
            address = self._mem_address(cpu, ops[1])
            info.mem_accesses.append((address, False))
            self._write(cpu, ops[0], self.memory.read_u8(address), info)
        elif op is Op.STOREB:
            address = self._mem_address(cpu, ops[0])
            info.mem_accesses.append((address, True))
            self.memory.write_u8(address, self._value(cpu, ops[1], info) & 0xFF)
        elif op is Op.LEA:
            cpu.set(ops[0].index, self._mem_address(cpu, ops[1]))
        elif op is Op.PUSH:
            self._push(cpu, self._value(cpu, ops[0], info), info)
        elif op is Op.POP:
            value = self._pop(cpu, info)
            self._write(cpu, ops[0], value, info)
        elif op is Op.CMP:
            self._execute_cmp(cpu, ops, info)
        elif op in _ALU_HANDLERS:
            dst_value = self._value(cpu, ops[0], info)
            src_value = self._value(cpu, ops[1], info)
            try:
                result = _ALU_HANDLERS[op](dst_value, src_value)
            except ZeroDivisionError:
                raise MachineFault(cpu.pc, _DIVISION_BY_ZERO) from None
            self._write(cpu, ops[0], result, info)
        elif op is Op.NEG:
            self._write(cpu, ops[0],
                        to_unsigned(-to_signed(self._value(cpu, ops[0], info))),
                        info)
        elif op is Op.NOT:
            self._write(cpu, ops[0],
                        to_unsigned(~self._value(cpu, ops[0], info)), info)
        elif op is Op.JMP:
            next_pc = self.hooks.resolve_target("jmp", cpu, ops[0].value)
            info.branch_taken, info.branch_target = True, next_pc
        elif op is Op.JCC:
            if COND_TESTS[ins.cond](cpu.cmp_value):
                next_pc = self.hooks.resolve_target("jcc", cpu, ops[0].value)
                info.branch_taken, info.branch_target = True, next_pc
        elif op is Op.CALL or op is Op.ICALL:
            if op is Op.CALL:
                target = ops[0].value
                kind = "call"
            else:
                target = self._value(cpu, ops[0], info)
                kind = "icall"
            # Query the saved return address *before* resolving: resolving
            # may translate (and even flush the code cache), and the
            # return-address mapping must reflect this call site as it is.
            saved = self.hooks.on_call(cpu, next_pc)
            target = self.hooks.resolve_target(kind, cpu, target)
            if cpu.isa.call_pushes_return:
                self._push(cpu, saved, info)
            else:
                cpu.lr = saved
            next_pc = target
            info.branch_taken, info.branch_target = True, next_pc
        elif op is Op.RET:
            source = self._pop(cpu, info)
            next_pc = self.hooks.resolve_target("ret", cpu, source)
            info.branch_taken, info.branch_target = True, next_pc
        elif op is Op.IJMP:
            target = self._value(cpu, ops[0], info)
            next_pc = self.hooks.resolve_target("ijmp", cpu, target)
            info.branch_taken, info.branch_target = True, next_pc
        elif op is Op.SYSCALL:
            self.os.dispatch(cpu, self.memory)
        else:  # pragma: no cover - every Op is handled above
            raise IllegalInstruction(cpu.pc)

        cpu.pc = to_unsigned(next_pc)
        self.steps_executed += 1
        if self.timing is not None:
            self.timing.observe(cpu, info)
        observers = self.observers
        if observers:
            # Snapshot before dispatch: an observer may attach/detach
            # observers mid-step (trace instrumentation does), and that
            # must not mutate the list being iterated.
            for observer in tuple(observers):
                observer(cpu, info)
        return info

    def _execute_cmp(self, cpu: CPUState, ops, info: StepInfo) -> None:
        dst_value = self._value(cpu, ops[0], info)
        src_value = self._value(cpu, ops[1], info)
        cpu.set_compare(dst_value, src_value)

    # ------------------------------------------------------------------
    # Compiled-block fast path (threaded code)
    # ------------------------------------------------------------------
    # Each decoded basic block is compiled once into a chain of small
    # closures plus a terminator closure that performs the control
    # transfer through the normal ExecutionHooks.  Dispatch then costs
    # one dict lookup and one call per *block*.
    #
    # Each instruction's closure is chosen for its operand form at
    # compile time and does the whole instruction inline: register
    # reads and writes index ``cpu.regs``, results are masked with
    # ``& 0xFFFFFFFF``, and a memory operand is one accessor call (two
    # with a timing model's address recorder in front).  An executed
    # ``mov`` is one closure call plus at most one memory call.  Only
    # rare forms (memory read-modify-write, push imm, push/pop/icall/ijmp
    # through memory) compose the generic read/write closures.  ALU and
    # branch-condition semantics come from ``_ALU_HANDLERS`` and
    # ``COND_TESTS``, the same tables step() uses.
    #
    # The fast path runs only when no observer, breakpoint, or fault
    # injector is active; an attached timing model keeps it (a block
    # compiled while one is attached carries the model's static
    # per-instruction plan, records its data addresses and branch
    # outcome as it runs, and is charged once per execution).
    # Everything it does is bit-identical to the step() loop:
    #
    # * ``cpu.pc`` is stored at the start of every instruction closure,
    #   so modelled faults surface with the exact same pc as step();
    # * ``steps_executed`` is settled in a ``finally`` with the count of
    #   *completed* instructions, so a mid-block fault reports the same
    #   step count as the per-step loop — and the timing model is charged
    #   for exactly those instructions, in step() order;
    # * terminators always call ``hooks.on_call`` / ``resolve_target`` —
    #   superblock chain links only memoize the resolved-pc -> block
    #   dispatch, never the hook's decision.

    @property
    def compiled_block_count(self) -> int:
        """Live compiled blocks (test/diagnostic surface)."""
        return len(self._blocks)

    @property
    def block_stats(self):
        return self._blocks.stats

    def compiled_block_at(self, isa_name: str,
                          pc: int) -> Optional[CompiledBlock]:
        """The live compiled block starting at ``pc``, if any."""
        return self._blocks.lookup(isa_name, pc)

    def _compile_read(self, operand, mem):
        """Closure returning the operand's value (the generic path)."""
        if isinstance(operand, Reg):
            index = operand.index
            return lambda cpu: cpu.regs[index]
        if isinstance(operand, Imm):
            value = operand.value
            return lambda cpu: value
        if isinstance(operand, Mem):
            base, disp = operand.base, operand.disp
            read_word = mem.read_word
            return lambda cpu: read_word(
                (cpu.regs[base] + disp) & 0xFFFFFFFF)
        return None

    def _compile_write(self, operand, mem):
        """Closure storing a value into the operand (the generic path)."""
        if isinstance(operand, Reg):
            index = operand.index

            def write_reg(cpu, value):
                cpu.regs[index] = value & 0xFFFFFFFF
            return write_reg
        if isinstance(operand, Mem):
            base, disp = operand.base, operand.disp
            write_word = mem.write_word

            def write_mem(cpu, value):
                write_word((cpu.regs[base] + disp) & 0xFFFFFFFF, value)
            return write_mem
        return None

    def _compile_body(self, decoded: Decoded, mem):
        """Compile one straight-line instruction into a closure, or None.

        Every common operand form gets a closure that does its whole job
        inline; the rest (memory read-modify-write, push imm, push/pop
        through memory) compose the generic ``_compile_read``/``_compile_write``
        closures.  Data accesses go through ``mem`` (the memory, or a
        recorder of its effective addresses when a timing model is
        attached).
        """
        ins = decoded.instruction
        op = ins.op
        ops = ins.operands
        address = decoded.address

        if op is Op.NOP:
            def do_nop(cpu):
                cpu.pc = address
            return do_nop

        if op is Op.MOV or op is Op.LOAD or op is Op.STORE:
            return self._compile_move(address, ops[0], ops[1], mem)

        handler = _ALU_HANDLERS.get(op)
        if handler is not None:
            fn = self._compile_alu(address, handler, ops[0], ops[1], mem)
            if fn is not None and (op is Op.DIV or op is Op.MOD):
                fn = _faulting_division(fn, address)
            return fn

        if op is Op.CMP:
            return self._compile_cmp(address, ops[0], ops[1], mem)

        if op is Op.MOVT:
            index = ops[0].index
            high = (ops[1].value & 0xFFFF) << 16

            def do_movt(cpu):
                cpu.pc = address
                regs = cpu.regs
                regs[index] = (regs[index] & 0xFFFF) | high
            return do_movt

        if op is Op.LEA:
            index = ops[0].index
            base, disp = ops[1].base, ops[1].disp

            def do_lea(cpu):
                cpu.pc = address
                regs = cpu.regs
                regs[index] = (regs[base] + disp) & 0xFFFFFFFF
            return do_lea

        if op is Op.LOADB:
            base, disp = ops[1].base, ops[1].disp
            write = self._compile_write(ops[0], mem)
            read_u8 = mem.read_u8
            if write is None:
                return None

            def do_loadb(cpu):
                cpu.pc = address
                write(cpu, read_u8((cpu.regs[base] + disp) & 0xFFFFFFFF))
            return do_loadb

        if op is Op.STOREB:
            base, disp = ops[0].base, ops[0].disp
            read = self._compile_read(ops[1], mem)
            write_u8 = mem.write_u8
            if read is None:
                return None

            def do_storeb(cpu):
                cpu.pc = address
                target = (cpu.regs[base] + disp) & 0xFFFFFFFF
                write_u8(target, read(cpu) & 0xFF)
            return do_storeb

        if op is Op.PUSH:
            return self._compile_push(address, ops[0], mem)

        if op is Op.POP:
            return self._compile_pop(address, ops[0], mem)

        if op is Op.NEG or op is Op.NOT:
            read = self._compile_read(ops[0], mem)
            write = self._compile_write(ops[0], mem)
            if read is None or write is None:
                return None
            if op is Op.NEG:
                def do_neg(cpu):
                    cpu.pc = address
                    write(cpu, -read(cpu))
                return do_neg

            def do_not(cpu):
                cpu.pc = address
                write(cpu, ~read(cpu))
            return do_not

        return None

    def _compile_move(self, address, dst, src, mem):
        """MOV/LOAD/STORE: reg<-reg, reg<-imm, reg<-[base+disp],
        [base+disp]<-reg and [base+disp]<-imm, each inline."""
        if isinstance(dst, Reg):
            index = dst.index
            if isinstance(src, Reg):
                source = src.index

                def mov_reg(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    regs[index] = regs[source] & 0xFFFFFFFF
                return mov_reg
            if isinstance(src, Imm):
                value = src.value

                def mov_imm(cpu):
                    cpu.pc = address
                    cpu.regs[index] = value
                return mov_imm
            if isinstance(src, Mem):
                base, disp = src.base, src.disp
                read_word = mem.read_word

                def load(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    regs[index] = read_word((regs[base] + disp) & 0xFFFFFFFF)
                return load
        elif isinstance(dst, Mem) and isinstance(src, (Reg, Imm)):
            base, disp = dst.base, dst.disp
            write_word = mem.write_word
            if isinstance(src, Reg):
                source = src.index

                def store(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    write_word((regs[base] + disp) & 0xFFFFFFFF,
                               regs[source])
                return store
            value = src.value

            def store_imm(cpu):
                cpu.pc = address
                write_word((cpu.regs[base] + disp) & 0xFFFFFFFF, value)
            return store_imm
        return None                     # no ISA encodes memory to memory

    def _compile_alu(self, address, handler, dst, src, mem):
        """Two-operand ALU: a register destination with a reg, imm or
        [base+disp] source inline; a memory destination is generic."""
        if isinstance(dst, Reg):
            index = dst.index
            if isinstance(src, Reg):
                source = src.index

                def alu_reg(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    regs[index] = handler(regs[index],
                                          regs[source]) & 0xFFFFFFFF
                return alu_reg
            if isinstance(src, Imm):
                value = src.value

                def alu_imm(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    regs[index] = handler(regs[index], value) & 0xFFFFFFFF
                return alu_imm
            if isinstance(src, Mem):
                base, disp = src.base, src.disp
                read_word = mem.read_word

                def alu_mem(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    regs[index] = handler(
                        regs[index],
                        read_word((regs[base] + disp) & 0xFFFFFFFF),
                    ) & 0xFFFFFFFF
                return alu_mem
        read_dst = self._compile_read(dst, mem)
        read_src = self._compile_read(src, mem)
        write_dst = self._compile_write(dst, mem)
        if read_dst is None or read_src is None or write_dst is None:
            return None

        def do_alu(cpu):
            cpu.pc = address
            write_dst(cpu, handler(read_dst(cpu), read_src(cpu)))
        return do_alu

    def _compile_cmp(self, address, dst, src, mem):
        """CMP reg,reg / reg,imm / reg,[base+disp] inline; others generic.

        ``cmp_value`` is the signed difference; biasing both sides by
        2**31 (``(v ^ 0x80000000) & 0xFFFFFFFF`` is ``to_signed(v) +
        2**31``) gives it without two ``to_signed`` calls.
        """
        if isinstance(dst, Reg):
            index = dst.index
            if isinstance(src, Reg):
                source = src.index

                def cmp_reg(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    cpu.cmp_value = (((regs[index] ^ 0x80000000) & 0xFFFFFFFF)
                                     - ((regs[source] ^ 0x80000000)
                                        & 0xFFFFFFFF))
                return cmp_reg
            if isinstance(src, Imm):
                biased = src.value ^ 0x80000000       # imm: 32-bit already

                def cmp_imm(cpu):
                    cpu.pc = address
                    cpu.cmp_value = (((cpu.regs[index] ^ 0x80000000)
                                      & 0xFFFFFFFF) - biased)
                return cmp_imm
            if isinstance(src, Mem):
                base, disp = src.base, src.disp
                read_word = mem.read_word

                def cmp_mem(cpu):
                    cpu.pc = address
                    regs = cpu.regs
                    value = read_word((regs[base] + disp) & 0xFFFFFFFF)
                    cpu.cmp_value = (((regs[index] ^ 0x80000000) & 0xFFFFFFFF)
                                     - (value ^ 0x80000000))
                return cmp_mem
        read_dst = self._compile_read(dst, mem)
        read_src = self._compile_read(src, mem)
        if read_dst is None or read_src is None:
            return None

        def do_cmp(cpu):
            cpu.pc = address
            cpu.set_compare(read_dst(cpu), read_src(cpu))
        return do_cmp

    def _compile_push(self, address, src, mem):
        """PUSH reg inline; PUSH imm or [base+disp] generic."""
        write_word = mem.write_word
        sp_index = self.cpu.isa.sp
        if isinstance(src, Reg):
            source = src.index

            def push_reg(cpu):
                cpu.pc = address
                regs = cpu.regs
                value = regs[source]
                sp = (regs[sp_index] - WORD_SIZE) & 0xFFFFFFFF
                regs[sp_index] = sp
                write_word(sp, value)
            return push_reg
        read = self._compile_read(src, mem)
        if read is None:
            return None

        def do_push(cpu):
            cpu.pc = address
            value = read(cpu)
            regs = cpu.regs
            sp = (regs[sp_index] - WORD_SIZE) & 0xFFFFFFFF
            regs[sp_index] = sp
            write_word(sp, value)
        return do_push

    def _compile_pop(self, address, dst, mem):
        """POP reg inline; POP [base+disp] generic."""
        read_word = mem.read_word
        sp_index = self.cpu.isa.sp
        if isinstance(dst, Reg):
            index = dst.index

            def pop_reg(cpu):
                cpu.pc = address
                regs = cpu.regs
                slot = regs[sp_index]
                value = read_word(slot)
                regs[sp_index] = (slot + WORD_SIZE) & 0xFFFFFFFF
                regs[index] = value
            return pop_reg
        write = self._compile_write(dst, mem)
        if write is None:
            return None

        def do_pop(cpu):
            cpu.pc = address
            regs = cpu.regs
            slot = regs[sp_index]
            value = read_word(slot)
            regs[sp_index] = (slot + WORD_SIZE) & 0xFFFFFFFF
            write(cpu, value)
        return do_pop

    def _compile_terminator(self, decoded: Decoded, mem, outcome):
        """Closure executing a block-ending instruction; returns next pc.

        With a timing model attached, ``outcome`` is a one-slot list the
        conditional branch stores its taken/not-taken result in.
        """
        ins = decoded.instruction
        op = ins.op
        ops = ins.operands
        address = decoded.address
        fall = decoded.end
        interp = self

        if op is Op.HLT:
            def do_hlt(cpu):
                cpu.pc = address
                cpu.halted = True
                return fall
            return do_hlt

        if op is Op.SYSCALL:
            def do_syscall(cpu):
                cpu.pc = address
                interp.os.dispatch(cpu, interp.memory)
                return fall
            return do_syscall

        if op is Op.JMP:
            target = ops[0].value

            def do_jmp(cpu):
                cpu.pc = address
                return interp.hooks.resolve_target("jmp", cpu, target)
            return do_jmp

        if op is Op.JCC:
            target = ops[0].value
            test = COND_TESTS[ins.cond]
            if outcome is not None:
                def do_jcc_timed(cpu):
                    cpu.pc = address
                    taken = outcome[0] = test(cpu.cmp_value)
                    if taken:
                        return interp.hooks.resolve_target("jcc", cpu,
                                                           target)
                    return fall
                return do_jcc_timed

            def do_jcc(cpu):
                cpu.pc = address
                if test(cpu.cmp_value):
                    return interp.hooks.resolve_target("jcc", cpu, target)
                return fall
            return do_jcc

        if op is Op.CALL or op is Op.ICALL:
            isa = self.cpu.isa
            pushes = isa.call_pushes_return
            sp_index = isa.sp
            lr_index = isa.lr
            write_word = mem.write_word
            if op is Op.CALL:
                fixed_target = ops[0].value
                read_target = None
                kind = "call"
            else:
                fixed_target = 0
                read_target = self._compile_read(ops[0], mem)
                if read_target is None:
                    return None
                kind = "icall"

            def do_call(cpu):
                cpu.pc = address
                hooks = interp.hooks
                if read_target is None:
                    target = fixed_target
                else:
                    target = read_target(cpu)
                # Same ordering contract as step(): the saved return
                # address is chosen *before* resolving, which may
                # translate and even flush the code cache.
                saved = hooks.on_call(cpu, fall)
                target = hooks.resolve_target(kind, cpu, target)
                if pushes:
                    regs = cpu.regs
                    sp = (regs[sp_index] - WORD_SIZE) & 0xFFFFFFFF
                    regs[sp_index] = sp
                    write_word(sp, saved)
                else:
                    cpu.regs[lr_index] = saved & 0xFFFFFFFF
                return target
            return do_call

        if op is Op.RET:
            sp_index = self.cpu.isa.sp
            read_word = mem.read_word

            def do_ret(cpu):
                cpu.pc = address
                regs = cpu.regs
                slot = regs[sp_index]
                source = read_word(slot)
                regs[sp_index] = (slot + WORD_SIZE) & 0xFFFFFFFF
                return interp.hooks.resolve_target("ret", cpu, source)
            return do_ret

        if op is Op.IJMP:
            read_target = self._compile_read(ops[0], mem)
            if read_target is None:
                return None

            def do_ijmp(cpu):
                cpu.pc = address
                return interp.hooks.resolve_target(
                    "ijmp", cpu, read_target(cpu))
            return do_ijmp

        return None

    def _make_executor(self, body, terminator, steps, timed=None):
        """Bind a block's closures into one executable unit.

        ``steps_executed`` is settled in the ``finally`` so a fault (or a
        migration request escaping a terminator hook) reports exactly the
        instructions that completed, like the per-step loop; ``steps``
        counts the terminator only when it is a real instruction.
        ``timed`` is ``(charge_block, plan, addresses, outcome)`` for a
        block compiled with a timing model attached: the same ``finally``
        charges the completed instructions and clears the recorded
        addresses.
        """
        interp = self
        if timed is None:
            def execute(cpu):
                completed = 0
                try:
                    for fn in body:
                        fn(cpu)
                        completed += 1
                    next_pc = terminator(cpu)
                    completed = steps
                finally:
                    interp.steps_executed += completed
                return next_pc
            return execute
        charge, plan, addresses, outcome = timed

        def execute_timed(cpu):
            completed = 0
            try:
                for fn in body:
                    fn(cpu)
                    completed += 1
                next_pc = terminator(cpu)
                completed = steps
            finally:
                interp.steps_executed += completed
                charge(plan, completed, addresses, outcome[0])
                addresses.clear()
            return next_pc
        return execute_timed

    def _compile_block(self, cpu: CPUState) -> Optional[CompiledBlock]:
        """Compile the basic block starting at ``cpu.pc``.

        Returns None when even the first instruction fails to decode —
        the per-step loop then raises the identical fault.  A decode
        failure (or an uncompilable instruction) *after* the first one
        ends the block with a plain fall-through, so the slow path takes
        over at exactly the right pc.
        """
        start_pc = cpu.pc
        body = []
        terminator = None
        term_counts = False
        offset = start_pc
        timing = self.timing
        if timing is None:
            mem = self.memory
            outcome = None
        else:
            addresses: List[int] = []
            mem = _AddressRecorder(self.memory, addresses.append)
            outcome = [False]
            #: (address, op, data accesses) of every compiled instruction
            compiled = []
            pushes = cpu.isa.call_pushes_return
        while True:
            try:
                decoded = self._decode(cpu, offset)
            except MachineFault:
                if not body:
                    return None
                break
            ins = decoded.instruction
            if ins.is_control() or ins.op is Op.HLT or ins.op is Op.SYSCALL:
                terminator = self._compile_terminator(decoded, mem, outcome)
                if terminator is None:
                    if not body:
                        return None
                    break
                term_counts = True
            else:
                fn = self._compile_body(decoded, mem)
                if fn is None:
                    if not body:
                        return None
                    break
                body.append(fn)
            if timing is not None:
                compiled.append((decoded.address, ins.op,
                                _data_accesses(ins, pushes)))
            offset = decoded.end
            if term_counts:
                break
            if len(body) >= MAX_BLOCK_INSTRUCTIONS:
                break
        end = offset
        if terminator is None:
            def terminator(cpu, _end=end):
                return _end
        timed = None
        if timing is not None:
            timed = (timing.charge_block, timing.plan_block(compiled),
                     addresses, outcome)
        steps = len(body) + (1 if term_counts else 0)
        executor = self._make_executor(tuple(body), terminator, steps, timed)
        block = CompiledBlock(cpu.isa.name, start_pc, end, steps, executor)
        self._blocks.stats.compiles += 1
        self._blocks.install(block)
        return block

    def _run_compiled(self, start: int, budget: int) -> None:
        """Dispatch compiled blocks until halt, budget, or slow-path need.

        Preconditions (checked by the caller): no observers, no
        breakpoints, no fault injector.  Returns with ``cpu.pc`` and
        ``steps_executed`` exactly where the per-step loop would have
        them; the caller's loop finishes any remainder.
        """
        cpu = self.cpu
        if cpu.halted:
            return
        remaining = budget - (self.steps_executed - start)
        if remaining <= 0:
            return
        blocks = self._blocks
        isa_name = cpu.isa.name
        block = blocks.lookup(isa_name, cpu.pc)
        if block is None:
            block = self._compile_block(cpu)
            if block is None:
                return
        while True:
            if block.steps > remaining:
                return
            next_pc = block.execute(cpu) & 0xFFFFFFFF
            remaining -= block.steps
            cpu.pc = next_pc
            if cpu.halted:
                return
            previous = block
            block = previous.chain.get(next_pc)
            if block is None or not block.valid:
                block = blocks.lookup(isa_name, next_pc)
                if block is None:
                    block = self._compile_block(cpu)
                    if block is None:
                        return
                if previous.valid:
                    blocks.link(previous, next_pc, block)

    def _run_compiled_profiled(self, start: int, budget: int) -> None:
        """Profiled twin of :meth:`_run_compiled`.

        Same dispatch, plus per-block entry/step/host-time accounting
        into the block's ``prof_*`` slots — plain attribute bumps, no
        registry lookups on the hot path.  Kept as a separate loop so
        the unprofiled fast path pays nothing for the timers.  A block
        invalidated during its own ``execute`` (decode-cache flush)
        routes its counts through the cache's retired pool instead of
        its now-orphaned slots.
        """
        cpu = self.cpu
        if cpu.halted:
            return
        remaining = budget - (self.steps_executed - start)
        if remaining <= 0:
            return
        blocks = self._blocks
        isa_name = cpu.isa.name
        perf = time.perf_counter
        block = blocks.lookup(isa_name, cpu.pc)
        if block is None:
            block = self._compile_block(cpu)
            if block is None:
                return
        while True:
            if block.steps > remaining:
                return
            before = self.steps_executed
            begin = perf()
            try:
                next_pc = block.execute(cpu) & 0xFFFFFFFF
            finally:
                elapsed = perf() - begin
                stepped = self.steps_executed - before
                if block.valid:
                    block.prof_entries += 1
                    block.prof_steps += stepped
                    block.prof_seconds += elapsed
                else:
                    blocks.retire_profile(block, 1, stepped, elapsed)
            remaining -= block.steps
            cpu.pc = next_pc
            if cpu.halted:
                return
            previous = block
            block = previous.chain.get(next_pc)
            if block is None or not block.valid:
                block = blocks.lookup(isa_name, next_pc)
                if block is None:
                    block = self._compile_block(cpu)
                    if block is None:
                        return
                if previous.valid:
                    blocks.link(previous, next_pc, block)

    def drain_block_profile(self):
        """Collect and zero the block profiler's accumulated counts."""
        return self._blocks.drain_profile()

    def run(self, max_instructions: int = 1_000_000,
            catch_faults: bool = True) -> ExecutionResult:
        """Run until halt, fault, breakpoint, or the instruction budget.

        With ``catch_faults`` (the default) modelled machine faults become
        part of the result — the behaviour a parent process observes when
        its child crashes, which is what the brute-force attack model needs.
        """
        start = self.steps_executed
        budget = max_instructions
        # Hot loop: hoist the attribute lookups that don't change while
        # running — with no breakpoints set, the membership test is
        # skipped outright (the no-observer warmup fast path).
        cpu = self.cpu
        step = self.step
        breakpoints = self.breakpoints
        injector = _faults.get()
        profiling = False
        try:
            if injector is None and not self.observers and not breakpoints:
                # Threaded-code fast path: dispatch whole compiled blocks.
                # Observers, breakpoints, and chaos injection all need
                # per-instruction visibility, so any of them forces the
                # per-step loop below (which also finishes budget tails
                # smaller than the next block).  An attached timing model
                # does not: timed blocks charge it themselves.  With
                # observability on, the profiled twin keeps per-block
                # attribution without leaving the fast path.
                profiling = _obs.enabled()
                if profiling:
                    self._run_compiled_profiled(start, budget)
                else:
                    self._run_compiled(start, budget)
            while not cpu.halted:
                if self.steps_executed - start >= budget:
                    return ExecutionResult(self.steps_executed - start, "limit")
                if breakpoints and cpu.pc in breakpoints:
                    return ExecutionResult(self.steps_executed - start,
                                           "breakpoint")
                step()
                if injector is not None \
                        and (self.steps_executed & 0xFF) == 0:
                    # Chaos: a spurious full decode-cache flush.  Decoding
                    # is pure, so recovery is a transparent re-decode —
                    # but the flush exercises the same invalidation paths
                    # self-modifying code does.
                    event = injector.fire("decode.flush")
                    if event is not None:
                        self.invalidate_decode_cache()
                        _faults.recovered("interpreter.decode", "redecode")
        except MachineFault as fault:
            if not catch_faults:
                raise
            return ExecutionResult(self.steps_executed - start, "fault", fault)
        finally:
            if profiling:
                # Flush even when a fault or a migration request unwinds
                # this frame — the counts are already settled above.
                from ..obs.profile_attr import flush_block_profile
                flush_block_profile(self)
        return ExecutionResult(self.steps_executed - start, "halt")


class _AddressRecorder:
    """The data accessors of a memory, recording each effective address.

    Compiled blocks built with a timing model attached bind these in
    place of the memory's own accessors; the address is recorded before
    the access, exactly where ``step()`` appends it to ``mem_accesses``.
    """

    __slots__ = ("read_word", "write_word", "read_u8", "write_u8")

    def __init__(self, memory: Memory, record: Callable[[int], None]):
        def recorded_read(read):
            def accessor(address):
                record(address)
                return read(address)
            return accessor

        def recorded_write(write):
            def accessor(address, value):
                record(address)
                write(address, value)
            return accessor
        self.read_word = recorded_read(memory.read_word)
        self.write_word = recorded_write(memory.write_word)
        self.read_u8 = recorded_read(memory.read_u8)
        self.write_u8 = recorded_write(memory.write_u8)


def _data_accesses(ins, call_pushes_return: bool) -> int:
    """How many data-memory accesses ``step()`` records for ``ins``."""
    op = ins.op
    if op is Op.LEA:
        return 0
    count = sum(1 for operand in ins.operands if isinstance(operand, Mem))
    if (op in _ALU_HANDLERS or op is Op.NEG or op is Op.NOT) \
            and isinstance(ins.operands[0], Mem):
        count += 1                      # read-modify-write destination
    if op is Op.PUSH or op is Op.POP or op is Op.RET \
            or (call_pushes_return and (op is Op.CALL or op is Op.ICALL)):
        count += 1                      # the implicit stack slot
    return count


_DIVISION_BY_ZERO = "integer division by zero"


def _faulting_division(fn, address: int):
    """Wrap a compiled DIV/MOD closure: its handler's ZeroDivisionError
    becomes the modelled fault at the instruction's pc, as in step()."""
    def divide(cpu):
        try:
            fn(cpu)
        except ZeroDivisionError:
            raise MachineFault(address, _DIVISION_BY_ZERO) from None
    return divide


def _alu_div(a, b):
    return int(to_signed(a) / to_signed(b))  # C-style truncation


def _alu_mod(a, b):
    sa, sb = to_signed(a), to_signed(b)
    return sa - int(sa / sb) * sb


def _alu_shl(a, b):
    return a << (b & 31)


def _alu_shr(a, b):
    return (a & 0xFFFFFFFF) >> (b & 31)


def _alu_sar(a, b):
    return to_signed(a) >> (b & 31)


#: the one ALU table, shared by step() and the compiled blocks.  Each
#: handler maps the two operand values to a result the caller truncates
#: to 32 bits; multiplication is ``operator.mul`` because the low 32 bits
#: of a product do not depend on the operands' signedness.  DIV and MOD
#: raise ZeroDivisionError, which both callers turn into a MachineFault
#: at the instruction's pc.
_ALU_HANDLERS = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: _alu_div,
    Op.MOD: _alu_mod,
    Op.AND: operator.and_,
    Op.OR: operator.or_,
    Op.XOR: operator.xor,
    Op.SHL: _alu_shl,
    Op.SHR: _alu_shr,
    Op.SAR: _alu_sar,
}
