"""Tests for the machine substrate: memory, CPU, syscalls, interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AlignmentFault,
    IllegalInstruction,
    SegmentationFault,
)
from repro.isa import (
    ARMLIKE,
    Assembler,
    Cond,
    Imm,
    Instruction,
    Label,
    Mem,
    Op,
    Reg,
    X86LIKE,
)
from repro.isa.x86like import EAX, EBX, ECX, EDX, ESP
from repro.machine import (
    CPUState,
    Interpreter,
    Memory,
    OperatingSystem,
)
from repro.machine.syscalls import Sys


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
class TestMemory:
    def make(self):
        mem = Memory()
        mem.map("ram", 0x1000, 0x1000)
        mem.map("rom", 0x4000, 0x100, writable=False, executable=True,
                data=b"\x90" * 0x100)
        return mem

    def test_word_roundtrip(self):
        mem = self.make()
        mem.write_word(0x1010, 0xDEADBEEF)
        assert mem.read_word(0x1010) == 0xDEADBEEF

    def test_little_endian(self):
        mem = self.make()
        mem.write_word(0x1000, 0x11223344)
        assert mem.read_u8(0x1000) == 0x44
        assert mem.read_u8(0x1003) == 0x11

    def test_unmapped_read_faults(self):
        with pytest.raises(SegmentationFault):
            self.make().read_word(0x9000)

    def test_write_to_readonly_faults(self):
        with pytest.raises(SegmentationFault):
            self.make().write_word(0x4000, 1)

    def test_execute_permission(self):
        mem = self.make()
        assert mem.fetch_window(0x4000, 4) == b"\x90" * 4
        with pytest.raises(SegmentationFault):
            mem.fetch_window(0x1000, 4)

    def test_cross_boundary_read_faults(self):
        with pytest.raises(SegmentationFault):
            self.make().read_word(0x1FFE)

    def test_overlap_rejected(self):
        mem = self.make()
        with pytest.raises(ValueError):
            mem.map("bad", 0x1800, 0x1000)

    def test_cstring(self):
        mem = self.make()
        mem.write_bytes(0x1100, b"/bin/sh\x00")
        assert mem.read_cstring(0x1100) == b"/bin/sh"

    def test_fetch_window_clamps_at_segment_end(self):
        mem = self.make()
        assert len(mem.fetch_window(0x40FC, 12)) == 4

    def test_find_forgets_unmapped_segment(self):
        mem = self.make()
        assert mem.find(0x1010).name == "ram"      # now the last hit
        mem.unmap("ram")
        assert mem.find(0x1010) is None
        with pytest.raises(SegmentationFault):
            mem.read_word(0x1010)

    def test_find_sees_remap_at_same_base(self):
        mem = self.make()
        mem.write_word(0x1010, 0xDEADBEEF)
        assert mem.find(0x1010).name == "ram"
        mem.unmap("ram")
        fresh = mem.map("ram2", 0x1000, 0x100, writable=False)
        assert mem.find(0x1010) is fresh
        assert mem.read_word(0x1010) == 0
        # the old segment's tail is unmapped now, not a stale last hit
        assert mem.find(0x1800) is None
        with pytest.raises(SegmentationFault):
            mem.write_word(0x1010, 1)

    def test_find_rejects_access_straddling_last_hit(self):
        mem = Memory()
        mem.map("low", 0x1000, 0x1000)
        mem.map("high", 0x2000, 0x1000)
        assert mem.find(0x1FF0, 4).name == "low"   # now the last hit
        assert mem.find(0x1FFE, 4) is None          # straddles low|high
        assert mem.find(0x2000, 4).name == "high"
        with pytest.raises(SegmentationFault):
            mem.read_word(0x1FFE)

    @pytest.mark.parametrize("access, call", [
        ("read", lambda mem: mem.read_word(0x9000)),
        ("read", lambda mem: mem.read_u8(0x9000)),
        ("write", lambda mem: mem.write_word(0x4000, 1)),
        ("write", lambda mem: mem.write_u8(0x4004, 1)),
        ("execute", lambda mem: mem.fetch_window(0x1000, 4)),
    ])
    def test_permission_faults_are_typed(self, access, call):
        mem = self.make()
        mem.read_word(0x1000)                       # warm the last hit
        with pytest.raises(SegmentationFault) as info:
            call(mem)
        assert info.value.access == access
        assert str(info.value) == \
            f"segmentation fault ({access}) at {info.value.address:#x}"
        assert info.value.address in (0x9000, 0x4000, 0x4004, 0x1000)

    # -- the last-readable / last-writable segment caches ---------------
    def test_cached_readonly_segment_still_refuses_writes(self):
        mem = self.make()
        assert mem.read_word(0x4000) == 0x90909090  # rom: last readable
        assert mem.read_u8(0x4001) == 0x90
        mem.write_word(0x1000, 7)                   # ram: last writable
        for write in (lambda: mem.write_word(0x4000, 1),
                      lambda: mem.write_u8(0x4004, 1)):
            with pytest.raises(SegmentationFault) as info:
                write()
            assert info.value.access == "write"
        assert mem.read_word(0x4000) == 0x90909090  # untouched

    def test_cached_segment_refuses_straddling_word(self):
        mem = Memory()
        mem.map("low", 0x1000, 0x1000)
        mem.map("high", 0x2000, 0x1000)
        mem.write_word(0x1FFC, 0x11223344)          # both caches: low
        assert mem.read_word(0x1FFC) == 0x11223344  # the last full word
        for offset in (1, 2, 3):
            for access, call in (("read", mem.read_word),
                                 ("write", lambda a: mem.write_word(a, 1))):
                with pytest.raises(SegmentationFault) as info:
                    call(0x1FFC + offset)
                assert (info.value.address, info.value.access) == \
                    (0x1FFC + offset, access)
        assert mem.read_u8(0x1FFF) == 0x11          # a byte still fits
        mem.write_u8(0x1FFF, 0x55)
        assert mem.read_word(0x1FFC) == 0x55223344
        assert mem.read_word(0x2000) == 0           # high, via the miss

    def test_cached_segment_below_its_base_misses(self):
        mem = self.make()
        mem.write_word(0x1000, 1)
        with pytest.raises(SegmentationFault):
            mem.read_word(0x0FFC)
        with pytest.raises(SegmentationFault):
            mem.write_word(0x0FFF, 1)
        assert mem.read_word(0x1000 - 2**32) == 1   # addresses wrap

    def test_unmap_resets_both_caches(self):
        mem = self.make()
        mem.write_word(0x1010, 5)
        assert mem.read_word(0x1010) == 5           # ram cached both ways
        mem.unmap("ram")
        for call in (lambda: mem.read_word(0x1010),
                     lambda: mem.read_u8(0x1010),
                     lambda: mem.write_word(0x1010, 1),
                     lambda: mem.write_u8(0x1010, 1)):
            with pytest.raises(SegmentationFault):
                call()

    def test_remap_at_same_base_resets_both_caches(self):
        mem = self.make()
        mem.write_word(0x1010, 5)
        assert mem.read_word(0x1010) == 5
        mem.unmap("ram")
        fresh = mem.map("ram2", 0x1000, 0x100, writable=False)
        assert mem.read_word(0x1010) == 0           # the new segment's data
        with pytest.raises(SegmentationFault):
            mem.write_word(0x1010, 1)               # and its permissions
        with pytest.raises(SegmentationFault):
            mem.read_word(0x1800)                   # and its size
        rewritable = Memory()
        rewritable.map("ram", 0x1000, 0x1000)
        rewritable.write_word(0x1010, 5)
        rewritable.unmap("ram")
        again = rewritable.map("ram", 0x1000, 0x1000)
        rewritable.write_word(0x1010, 9)
        assert again.data[0x10] == 9

    @given(st.integers(0, 0xFF8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_word_roundtrip_property(self, offset, value):
        mem = Memory()
        mem.map("ram", 0, 0x1000)
        mem.write_word(offset, value)
        assert mem.read_word(offset) == value


# ----------------------------------------------------------------------
# CPU state
# ----------------------------------------------------------------------
class TestCPUState:
    def test_registers_mask_to_32_bits(self):
        cpu = CPUState(X86LIKE)
        cpu.set(0, -1)
        assert cpu.get(0) == 0xFFFFFFFF

    def test_sp_accessor(self):
        cpu = CPUState(X86LIKE)
        cpu.sp = 0x8000
        assert cpu.regs[ESP] == 0x8000

    def test_lr_only_on_armlike(self):
        arm = CPUState(ARMLIKE)
        arm.lr = 0x1234
        assert arm.regs[14] == 0x1234
        x86 = CPUState(X86LIKE)
        assert x86.lr is None
        with pytest.raises(AttributeError):
            x86.lr = 1

    def test_compare_is_signed(self):
        cpu = CPUState(X86LIKE)
        cpu.set_compare(0, 0xFFFFFFFF)     # 0 - (-1) = 1
        assert cpu.cmp_value == 1

    def test_copy_is_independent(self):
        cpu = CPUState(ARMLIKE, pc=0x100)
        cpu.set(3, 7)
        clone = cpu.copy()
        clone.set(3, 9)
        assert cpu.get(3) == 7
        assert clone.pc == 0x100


# ----------------------------------------------------------------------
# Interpreter
# ----------------------------------------------------------------------
def load_const(asm, isa, reg, value):
    """Emit instruction(s) loading a 32-bit constant into a register."""
    value &= 0xFFFFFFFF
    low = value & 0xFFFF
    high = value >> 16
    if isa.name == "armlike" and not (-0x8000 <= (value - (1 << 32) if value & 0x80000000 else value) <= 0x7FFF):
        asm.emit(Instruction(Op.MOV, (Reg(reg), Imm(low - 0x10000 if low & 0x8000 else low))))
        asm.emit(Instruction(Op.MOVT, (Reg(reg), Imm(high))))
    else:
        asm.emit(Instruction(Op.MOV, (Reg(reg), Imm(value))))


def run_program(isa, build, *, stdin=b"", max_instructions=10_000,
                stack_data=None):
    """Assemble `build(asm)` at a code base, run to completion."""
    asm = Assembler(isa)
    build(asm)
    unit = asm.assemble(0x1000)
    mem = Memory()
    mem.map("text", 0x1000, max(len(unit.data), 16), writable=False,
            executable=True, data=unit.data)
    mem.map("stack", 0x8000, 0x1000)
    mem.map("data", 0xA000, 0x1000)
    cpu = CPUState(isa, pc=0x1000)
    cpu.sp = 0x8F00
    if stack_data:
        mem.write_bytes(cpu.sp, stack_data)
    os = OperatingSystem(stdin=stdin)
    interp = Interpreter(cpu, mem, os)
    result = interp.run(max_instructions)
    return cpu, mem, os, result


@pytest.mark.parametrize("isa", [X86LIKE, ARMLIKE], ids=lambda i: i.name)
class TestInterpreterBothISAs:
    def test_mov_and_halt(self, isa):
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(42))))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, result = run_program(isa, build)
        assert result.reason == "halt"
        assert cpu.get(0) == 42

    def test_arithmetic(self, isa):
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(10))))
            asm.emit(Instruction(Op.MOV, (Reg(1), Imm(3))))
            asm.emit(Instruction(Op.SUB, (Reg(0), Reg(1))))
            asm.emit(Instruction(Op.MUL, (Reg(0), Reg(1))))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(isa, build)
        assert cpu.get(0) == 21

    def test_push_pop(self, isa):
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(1), Imm(0x55))))
            asm.emit(Instruction(Op.PUSH, (Reg(1),)))
            asm.emit(Instruction(Op.POP, (Reg(2),)))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(isa, build)
        assert cpu.get(2) == 0x55

    def test_load_store(self, isa):
        def build(asm):
            load_const(asm, isa, 0, 0xA000)
            asm.emit(Instruction(Op.MOV, (Reg(1), Imm(77))))
            asm.emit(Instruction(Op.STORE, (Mem(0, 0x10), Reg(1))))
            asm.emit(Instruction(Op.LOAD, (Reg(2), Mem(0, 0x10))))
            asm.emit(Instruction(Op.HLT))
        cpu, mem, _, _ = run_program(isa, build)
        assert cpu.get(2) == 77
        assert mem.read_word(0xA010) == 77

    def test_conditional_branch_loop(self, isa):
        # r0 = sum 1..5 via a countdown loop in r1
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0))))
            asm.emit(Instruction(Op.MOV, (Reg(1), Imm(5))))
            asm.label("loop")
            asm.emit(Instruction(Op.ADD, (Reg(0), Reg(1))))
            asm.emit(Instruction(Op.SUB, (Reg(1), Imm(1))))
            asm.emit(Instruction(Op.CMP, (Reg(1), Imm(0))))
            asm.emit(Instruction(Op.JCC, (Label("loop"),), cond=Cond.GT))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(isa, build)
        assert cpu.get(0) == 15

    def test_call_ret(self, isa):
        # call a function that sets r0=9 then returns; armlike pushes lr.
        def build(asm):
            asm.emit(Instruction(Op.CALL, (Label("fn"),)))
            asm.emit(Instruction(Op.HLT))
            asm.label("fn")
            if not isa.call_pushes_return:
                asm.emit(Instruction(Op.PUSH, (Reg(isa.lr),)))
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(9))))
            asm.emit(Instruction(Op.RET))
        cpu, _, _, result = run_program(isa, build)
        assert result.reason == "halt"
        assert cpu.get(0) == 9

    def test_indirect_jump(self, isa):
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(2), Imm(0))))   # patched below
            asm.label("setup")
            asm.emit(Instruction(Op.IJMP, (Reg(2),)))
            asm.emit(Instruction(Op.HLT))                      # skipped
            asm.label("target")
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0xAB))))
            asm.emit(Instruction(Op.HLT))
        # Assemble once to learn the target address, then rebuild.
        asm = Assembler(isa)
        build(asm)
        unit = asm.assemble(0x1000)
        target = unit.address_of("target")

        def build2(asm):
            asm.emit(Instruction(Op.MOV, (Reg(2), Imm(target))))
            asm.emit(Instruction(Op.IJMP, (Reg(2),)))
            asm.emit(Instruction(Op.HLT))
            asm.label("target")
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0xAB))))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(isa, build2)
        assert cpu.get(0) == 0xAB

    def test_exit_syscall(self, isa):
        def build(asm):
            asm.emit(Instruction(Op.MOV,
                                 (Reg(isa.syscall_number_reg), Imm(Sys.EXIT))))
            asm.emit(Instruction(Op.MOV,
                                 (Reg(isa.syscall_arg_regs[0]), Imm(7))))
            asm.emit(Instruction(Op.SYSCALL))
        _, _, os, result = run_program(isa, build)
        assert result.reason == "halt"
        assert os.exit_code == 7

    def test_division(self, isa):
        def build(asm):
            if isa is X86LIKE:
                asm.emit(Instruction(Op.MOV, (Reg(EAX), Imm(17))))
                asm.emit(Instruction(Op.MOV, (Reg(EBX), Imm(5))))
                asm.emit(Instruction(Op.DIV, (Reg(EAX), Reg(EBX))))
            else:
                asm.emit(Instruction(Op.MOV, (Reg(0), Imm(17))))
                asm.emit(Instruction(Op.MOV, (Reg(1), Imm(5))))
                asm.emit(Instruction(Op.DIV, (Reg(0), Reg(1))))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(isa, build)
        assert cpu.get(0) == 3

    def test_instruction_budget(self, isa):
        def build(asm):
            asm.label("spin")
            asm.emit(Instruction(Op.JMP, (Label("spin"),)))
        _, _, _, result = run_program(isa, build, max_instructions=100)
        assert result.reason == "limit"
        assert result.steps == 100

    def test_fault_on_wild_jump(self, isa):
        def build(asm):
            load_const(asm, isa, 2, 0xDEAD0000)
            asm.emit(Instruction(Op.IJMP, (Reg(2),)))
        _, _, _, result = run_program(isa, build)
        assert result.crashed
        assert isinstance(result.fault, SegmentationFault)


class TestX86Specifics:
    def test_execve_shell(self):
        # Figure-1-style: write "/bin/sh" to data memory, execve it.
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(EBX), Imm(0xA000))))
            asm.emit(Instruction(Op.STORE, (Mem(EBX, 0), Imm(0x6E69622F))))  # "/bin"
            asm.emit(Instruction(Op.STORE, (Mem(EBX, 4), Imm(0x0068732F))))  # "/sh\0"
            asm.emit(Instruction(Op.MOV, (Reg(EAX), Imm(Sys.EXECVE))))
            asm.emit(Instruction(Op.SYSCALL))
            asm.emit(Instruction(Op.HLT))
        _, _, os, result = run_program(X86LIKE, build)
        assert result.reason == "halt"
        assert os.shell_spawned

    def test_rop_chain_executes_gadgets(self):
        """A hand-built ROP chain on an unprotected x86like machine."""
        isa = X86LIKE
        asm = Assembler(isa)
        # victim: function that returns immediately (we seize its return)
        asm.label("entry")
        asm.emit(Instruction(Op.RET))
        # gadget 1: pop eax; ret
        asm.label("g1")
        asm.emit(Instruction(Op.POP, (Reg(EAX),)))
        asm.emit(Instruction(Op.RET))
        # gadget 2: pop ebx; ret
        asm.label("g2")
        asm.emit(Instruction(Op.POP, (Reg(EBX),)))
        asm.emit(Instruction(Op.RET))
        asm.label("stop")
        asm.emit(Instruction(Op.HLT))
        unit = asm.assemble(0x1000)

        mem = Memory()
        mem.map("text", 0x1000, 0x1000, writable=False, executable=True,
                data=unit.data)
        mem.map("stack", 0x8000, 0x1000)
        cpu = CPUState(isa, pc=unit.address_of("entry"))
        cpu.sp = 0x8800
        # Overflowed stack: chain g1(111) -> g2(222) -> stop
        chain = [unit.address_of("g1"), 111,
                 unit.address_of("g2"), 222,
                 unit.address_of("stop")]
        for i, word in enumerate(chain):
            mem.write_word(0x8800 + 4 * i, word)
        interp = Interpreter(cpu, mem, OperatingSystem())
        result = interp.run(100)
        assert result.reason == "halt"
        assert cpu.get(EAX) == 111
        assert cpu.get(EBX) == 222

    def test_illegal_instruction_fault(self):
        mem = Memory()
        mem.map("text", 0x1000, 0x100, writable=False, executable=True,
                data=b"\x06\x07\x08")
        cpu = CPUState(X86LIKE, pc=0x1000)
        interp = Interpreter(cpu, mem, OperatingSystem())
        result = interp.run(10)
        assert result.crashed
        assert isinstance(result.fault, IllegalInstruction)

    def test_shift_by_cl(self):
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(EAX), Imm(1))))
            asm.emit(Instruction(Op.MOV, (Reg(ECX), Imm(4))))
            asm.emit(Instruction(Op.SHL, (Reg(EAX), Reg(ECX))))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(X86LIKE, build)
        assert cpu.get(EAX) == 16


class TestArmSpecifics:
    def test_alignment_fault(self):
        mem = Memory()
        mem.map("text", 0x1000, 0x100, writable=False, executable=True,
                data=ARMLIKE.encode(Instruction(Op.NOP), 0) * 8)
        cpu = CPUState(ARMLIKE, pc=0x1002)
        interp = Interpreter(cpu, mem, OperatingSystem())
        result = interp.run(10)
        assert result.crashed
        assert isinstance(result.fault, AlignmentFault)

    def test_movt_builds_wide_constant(self):
        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0x5678))))
            asm.emit(Instruction(Op.MOVT, (Reg(0), Imm(0x1234))))
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(ARMLIKE, build)
        assert cpu.get(0) == 0x12345678

    def test_bl_sets_lr_not_stack(self):
        def build(asm):
            asm.emit(Instruction(Op.CALL, (Label("fn"),)))
            asm.label("fn")
            asm.emit(Instruction(Op.HLT))
        cpu, _, _, _ = run_program(ARMLIKE, build)
        assert cpu.lr == 0x1004   # address after the BL


class TestObservers:
    def test_step_observer_sees_memory_accesses(self):
        events = []

        def build(asm):
            asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0xA000))))
            asm.emit(Instruction(Op.STORE, (Mem(0, 4), Reg(0))))
            asm.emit(Instruction(Op.HLT))
        asm = Assembler(X86LIKE)
        build(asm)
        unit = asm.assemble(0x1000)
        mem = Memory()
        mem.map("text", 0x1000, 0x1000, writable=False, executable=True,
                data=unit.data)
        mem.map("data", 0xA000, 0x1000)
        cpu = CPUState(X86LIKE, pc=0x1000)
        interp = Interpreter(cpu, mem, OperatingSystem())
        interp.observers.append(lambda c, info: events.append(info))
        interp.run(10)
        assert len(events) == 3
        writes = [a for info in events for a, w in info.mem_accesses if w]
        assert writes == [0xA004]
