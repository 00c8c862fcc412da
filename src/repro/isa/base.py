"""Common instruction-set abstractions shared by both modelled ISAs.

The reproduction models two ISAs (see :mod:`repro.isa.x86like` and
:mod:`repro.isa.armlike`) over a *shared semantic instruction set*: every
instruction carries a semantic opcode (:class:`Op`) plus operands, and the
interpreter executes semantics independent of encoding.  What differs
between the ISAs — and what the paper's security argument rests on — is the
**binary encoding**: x86like is variable-length and byte-granular (so
unaligned decode yields unintentional gadgets), armlike is fixed-width and
word-aligned (so it does not).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

WORD_SIZE = 4
WORD_MASK = 0xFFFFFFFF


def to_signed(value: int) -> int:
    """Interpret a 32-bit unsigned value as signed."""
    value &= WORD_MASK
    return value - 0x100000000 if value & 0x80000000 else value


def to_unsigned(value: int) -> int:
    """Truncate a Python int to a 32-bit unsigned value."""
    return value & WORD_MASK


class Op(enum.Enum):
    """Semantic opcodes, shared across both ISAs."""

    # Data movement
    MOV = "mov"          # MOV dst_reg, (reg|imm)
    MOVT = "movt"        # MOVT dst_reg, imm16 — set high half (armlike only)
    LOAD = "load"        # LOAD dst_reg, mem
    STORE = "store"      # STORE mem, src_reg
    LOADB = "loadb"      # LOADB dst_reg, mem — zero-extended byte load
    STOREB = "storeb"    # STOREB mem, src_reg — low-byte store
    PUSH = "push"        # PUSH (reg|imm)
    POP = "pop"          # POP dst_reg
    LEA = "lea"          # LEA dst_reg, mem  (address arithmetic)
    # Two-operand ALU: dst = dst OP src, src may be reg/imm/mem; dst reg/mem
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"          # dst = dst / src (signed); no separate remainder reg
    MOD = "mod"          # dst = dst % src (signed)
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"          # logical right shift
    SAR = "sar"          # arithmetic right shift
    NEG = "neg"          # dst = -dst
    NOT = "not"          # dst = ~dst
    CMP = "cmp"          # set compare flags from dst - src
    # Control transfer
    JMP = "jmp"          # direct jump, absolute target operand
    JCC = "jcc"          # conditional direct jump (cond field set)
    CALL = "call"        # direct call
    RET = "ret"          # pop return address from stack into PC (both ISAs)
    IJMP = "ijmp"        # indirect jump through reg/mem
    ICALL = "icall"      # indirect call through reg/mem
    # System
    SYSCALL = "syscall"
    NOP = "nop"
    HLT = "hlt"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Op.{self.name}"


ALU_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
     Op.SHL, Op.SHR, Op.SAR, Op.CMP}
)
UNARY_OPS = frozenset({Op.NEG, Op.NOT})
CONTROL_OPS = frozenset({Op.JMP, Op.JCC, Op.CALL, Op.RET, Op.IJMP, Op.ICALL})
INDIRECT_OPS = frozenset({Op.IJMP, Op.ICALL, Op.RET})


class Cond(enum.Enum):
    """Branch conditions, evaluated against the last CMP result."""

    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5

    def evaluate(self, diff: int) -> bool:
        """Evaluate against the signed difference ``dst - src`` of the CMP."""
        return COND_TESTS[self](diff)

    def negate(self) -> "Cond":
        return _COND_NEGATION[self]


#: each condition as one test of the CMP difference, shared by
#: :meth:`Cond.evaluate` and the interpreter's compiled branches.  The
#: tests are comparisons bound to 0, so they run at C speed:
#: ``(0).__gt__(diff)`` is ``0 > diff``, i.e. ``diff < 0``.
COND_TESTS = {
    Cond.EQ: (0).__eq__,
    Cond.NE: (0).__ne__,
    Cond.LT: (0).__gt__,
    Cond.LE: (0).__ge__,
    Cond.GT: (0).__lt__,
    Cond.GE: (0).__le__,
}

_COND_NEGATION = {
    Cond.EQ: Cond.NE,
    Cond.NE: Cond.EQ,
    Cond.LT: Cond.GE,
    Cond.LE: Cond.GT,
    Cond.GT: Cond.LE,
    Cond.GE: Cond.LT,
}


@dataclass(frozen=True)
class Reg:
    """A register operand, identified by its architectural index."""

    index: int

    def __repr__(self) -> str:
        return f"Reg({self.index})"


@dataclass(frozen=True)
class Imm:
    """An immediate operand (32-bit, stored unsigned)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", to_unsigned(self.value))

    @property
    def signed(self) -> int:
        return to_signed(self.value)

    def __repr__(self) -> str:
        return f"Imm({to_signed(self.value):#x})"


@dataclass(frozen=True)
class Mem:
    """A base+displacement memory operand."""

    base: int          # base register index
    disp: int = 0      # signed displacement in bytes

    def __repr__(self) -> str:
        return f"Mem(r{self.base}{self.disp:+#x})"


@dataclass(frozen=True)
class Label:
    """A symbolic operand resolved to an absolute address at link time.

    ``part`` selects a relocation flavour: ``abs`` is the full address,
    ``lo16``/``hi16`` extract halves (armlike builds 32-bit addresses with
    a MOV/MOVT pair).  ``lo16`` is sign-extended so the following MOVT
    overwrite yields the exact address.
    """

    name: str
    part: str = "abs"          # "abs" | "lo16" | "hi16"

    def resolve(self, address: int) -> int:
        if self.part == "lo16":
            low = address & 0xFFFF
            return low - 0x10000 if low & 0x8000 else low
        if self.part == "hi16":
            return (address >> 16) & 0xFFFF
        return address

    def __repr__(self) -> str:
        suffix = f":{self.part}" if self.part != "abs" else ""
        return f"Label({self.name!r}{suffix})"


Operand = Union[Reg, Imm, Mem, Label]


@dataclass(frozen=True)
class Instruction:
    """One semantic instruction.

    Operand conventions by opcode are documented on :class:`Op`.  ``cond``
    is only meaningful for :attr:`Op.JCC`.
    """

    op: Op
    operands: Tuple[Operand, ...] = ()
    cond: Optional[Cond] = None

    @property
    def dst(self) -> Operand:
        return self.operands[0]

    @property
    def src(self) -> Operand:
        return self.operands[1]

    def is_control(self) -> bool:
        return self.op in CONTROL_OPS

    def is_indirect(self) -> bool:
        return self.op in INDIRECT_OPS

    def reads_regs(self) -> frozenset:
        """Architectural registers this instruction reads."""
        reads = set()
        ops = self.operands
        if self.op in (Op.MOV, Op.LEA):
            reads.update(_operand_reads(ops[1]))
        elif self.op is Op.MOVT:
            reads.update(_operand_reads(ops[0], as_value=True))
        elif self.op in (Op.LOAD, Op.LOADB):
            reads.update(_operand_reads(ops[1]))
        elif self.op in (Op.STORE, Op.STOREB):
            reads.update(_operand_reads(ops[0]))
            reads.update(_operand_reads(ops[1], as_value=True))
        elif self.op in ALU_OPS:
            reads.update(_operand_reads(ops[0], as_value=True))
            reads.update(_operand_reads(ops[1]))
        elif self.op in UNARY_OPS:
            reads.update(_operand_reads(ops[0], as_value=True))
        elif self.op is Op.PUSH:
            reads.update(_operand_reads(ops[0]))
        elif self.op in (Op.IJMP, Op.ICALL):
            reads.update(_operand_reads(ops[0]))
        return frozenset(reads)

    def writes_regs(self) -> frozenset:
        """Architectural registers this instruction writes."""
        if self.op in (Op.MOV, Op.MOVT, Op.LOAD, Op.LOADB, Op.LEA, Op.POP):
            target = self.operands[0]
            if isinstance(target, Reg):
                return frozenset({target.index})
        elif self.op in ALU_OPS and self.op is not Op.CMP:
            target = self.operands[0]
            if isinstance(target, Reg):
                return frozenset({target.index})
        elif self.op in UNARY_OPS:
            target = self.operands[0]
            if isinstance(target, Reg):
                return frozenset({target.index})
        return frozenset()

    def render(self, isa: "ISADescription") -> str:
        """Human-readable disassembly in the given ISA's syntax."""
        return isa.render(self)

    def __repr__(self) -> str:
        parts = [self.op.name]
        if self.cond is not None:
            parts.append(self.cond.name)
        body = ", ".join(repr(operand) for operand in self.operands)
        return f"<{' '.join(parts)} {body}>" if body else f"<{' '.join(parts)}>"


def _operand_reads(operand: Operand, as_value: bool = False) -> Iterable[int]:
    """Registers read when evaluating an operand.

    ``as_value`` marks the read-modify-write destination of a two-operand
    ALU op; for a plain :class:`Reg` the register itself is read either way.
    """
    if isinstance(operand, Reg):
        return (operand.index,)
    if isinstance(operand, Mem):
        return (operand.base,)
    return ()


@dataclass(frozen=True)
class Decoded:
    """A decoded instruction along with its location and encoded size."""

    address: int
    size: int
    instruction: Instruction
    raw: bytes = b""

    @property
    def end(self) -> int:
        return self.address + self.size


class ISADescription:
    """Static description of one ISA: registers, encoding hooks, syntax.

    Concrete ISAs subclass this and provide an encoder/decoder pair plus
    register naming.  Everything the rest of the system needs to know about
    an ISA flows through this interface.
    """

    #: short identifier ("x86like" / "armlike")
    name: str = "abstract"
    #: minimum instruction alignment in bytes (1 = byte-granular decode)
    alignment: int = 1
    #: number of general-purpose registers (including sp et al.)
    num_registers: int = 0
    #: index of the stack pointer register
    sp: int = 0
    #: index of the link register, or None if calls push to the stack
    lr: Optional[int] = None
    #: register names, indexed by architectural index
    register_names: Sequence[str] = ()
    #: registers usable by the register allocator (excludes sp/lr/scratch)
    allocatable: Sequence[int] = ()
    #: scratch registers reserved for PSR/codegen temporaries
    scratch: Sequence[int] = ()
    #: syscall convention: (number_reg, arg_regs)
    syscall_number_reg: int = 0
    syscall_arg_regs: Sequence[int] = ()
    #: return-value register for the *native* (unrandomized) ABI
    return_reg: int = 0
    #: argument registers for the native ABI (may be empty: stack args)
    arg_regs: Sequence[int] = ()
    #: True if CALL pushes the return address (x86like); False if CALL
    #: writes the link register (armlike)
    call_pushes_return: bool = True
    #: True if ALU instructions may take one memory operand directly
    memory_operands: bool = True
    #: first-byte values of every encoding of a gadget-ending instruction
    #: (RET / IJMP / ICALL).  Gadget miners seed their anchor scan with a
    #: C-level byte search for these values instead of attempting a decode
    #: at every offset; ``None`` means "unknown — decode everywhere".
    gadget_seed_bytes: Optional[FrozenSet[int]] = None

    #: per-opcode symbolic transfer overrides consulted by the symbolic
    #: evaluator (:mod:`repro.staticcheck.symexec`) *before* its generic
    #: table.  Maps :class:`Op` -> callable ``(state, decoded) -> bool``;
    #: a handler returns True when it fully modelled the instruction.
    #: Lets an ISA attach encoding-specific semantics (e.g. a fused or
    #: ISA-private instruction) without the evaluator special-casing it.
    symbolic_transfer_overrides: dict = {}

    def symbolic_clobbers(self) -> FrozenSet[int]:
        """Registers whose contents are *not* part of the cross-ISA
        machine-state contract at an equivalence point.

        Scratch registers are strictly instruction-local by codegen
        discipline, the return register only carries a value at the
        instant a call returns, and the link register is caller-managed;
        the symbolic equivalence prover excludes these from comparison.
        """
        clobbers = set(self.scratch)
        clobbers.add(self.return_reg)
        if self.lr is not None:
            clobbers.add(self.lr)
        return frozenset(clobbers)

    def encode(self, instruction: Instruction, address: int = 0) -> bytes:
        """Encode one instruction at ``address`` (needed for rel branches)."""
        raise NotImplementedError

    def decode(self, data: bytes, offset: int, address: int) -> Decoded:
        """Decode one instruction from ``data[offset:]`` located at ``address``.

        Raises :class:`repro.errors.DecodeError` for invalid encodings.
        """
        raise NotImplementedError

    def encoded_size(self, instruction: Instruction) -> int:
        """Size in bytes of the instruction's encoding."""
        return len(self.encode(instruction, 0))

    def register_name(self, index: int) -> str:
        if 0 <= index < len(self.register_names):
            return self.register_names[index]
        return f"r?{index}"

    def render(self, instruction: Instruction) -> str:
        parts: List[str] = [instruction.op.value]
        if instruction.cond is not None:
            parts[0] = f"{instruction.op.value}.{instruction.cond.name.lower()}"

        def fmt(operand: Operand) -> str:
            if isinstance(operand, Reg):
                return self.register_name(operand.index)
            if isinstance(operand, Imm):
                return f"{operand.signed:#x}"
            if isinstance(operand, Mem):
                return f"[{self.register_name(operand.base)}{operand.disp:+#x}]"
            return operand.name

        body = ", ".join(fmt(operand) for operand in instruction.operands)
        return f"{parts[0]} {body}".strip()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ISA {self.name}>"
