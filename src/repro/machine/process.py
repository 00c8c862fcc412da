"""Process images: standard memory layout and context setup.

A process in this model owns one address space shared by both ISAs'
views (the fat binary maps one code section per ISA plus a common,
ISA-agnostic data section — Section 3.2 of the paper) and one *active*
CPU context at a time; migration swaps which ISA's context is live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..isa.base import ISADescription, WORD_SIZE
from .cpu import CPUState
from .interpreter import ExecutionHooks, Interpreter
from .memory import Memory
from .syscalls import OperatingSystem


class Layout:
    """Standard virtual-address layout for all processes in the model."""

    X86_CODE_BASE = 0x08048000
    ARM_CODE_BASE = 0x00400000
    DATA_BASE = 0x10000000
    HEAP_BASE = 0x20000000
    HEAP_SIZE = 0x100000
    STACK_TOP = 0xBFF00000
    STACK_SIZE = 0x100000
    #: per-ISA code-cache bases used by the PSR virtual machines
    CACHE_BASES = {"x86like": 0x70000000, "armlike": 0x00600000}

    CODE_BASES = {"x86like": X86_CODE_BASE, "armlike": ARM_CODE_BASE}


@dataclass
class ProcessImage:
    """Raw ingredients of a process: code per ISA plus an optional data blob."""

    code_sections: Dict[str, bytes]          # isa name -> encoded text
    data: bytes = b""
    entry_points: Optional[Dict[str, int]] = None   # isa name -> entry address


class Process:
    """A loaded process: memory, kernel interface, and one live CPU."""

    def __init__(self, image: ProcessImage, isa: ISADescription,
                 os: Optional[OperatingSystem] = None,
                 hooks: Optional[ExecutionHooks] = None):
        self.image = image
        self.memory = Memory()
        self.os = os or OperatingSystem()

        for isa_name, code in image.code_sections.items():
            base = Layout.CODE_BASES[isa_name]
            self.memory.map(f"text.{isa_name}", base, _round_page(len(code)),
                            writable=False, executable=True, data=code)
        data_size = max(_round_page(len(image.data)), 0x1000)
        self.memory.map("data", Layout.DATA_BASE, data_size, data=image.data)
        self.memory.map("heap", Layout.HEAP_BASE, Layout.HEAP_SIZE)
        self.memory.map("stack", Layout.STACK_TOP - Layout.STACK_SIZE,
                        Layout.STACK_SIZE)

        self.cpu = CPUState(isa)
        entry = self.entry_point(isa.name)
        self.cpu.pc = entry
        # Leave a red zone below the stack top; push a sentinel return
        # address so a return from the entry function halts cleanly.
        self.cpu.sp = Layout.STACK_TOP - 4 * WORD_SIZE
        self.interpreter = Interpreter(self.cpu, self.memory, self.os, hooks)

    def entry_point(self, isa_name: str) -> int:
        if self.image.entry_points and isa_name in self.image.entry_points:
            return self.image.entry_points[isa_name]
        return Layout.CODE_BASES[isa_name]

    def run(self, max_instructions: int = 1_000_000, **kwargs):
        return self.interpreter.run(max_instructions, **kwargs)


def _round_page(size: int, page: int = 0x1000) -> int:
    return max((size + page - 1) // page * page, page)
