"""Analytic/event timing model over executed instruction streams.

Attaches to the interpreter through its single timing attach point
(:meth:`~repro.machine.interpreter.Interpreter.attach_timing`): every
executed instruction charges its class cost scaled by the core's
sustainable ILP, plus I-cache, D-cache, and branch-predictor penalties
from the actual addresses and branch outcomes of the run.  The per-step
loop feeds :meth:`TimingModel.observe` one instruction at a time; the
compiled-block fast path feeds :meth:`TimingModel.charge_block` one
block at a time, with the static part of every instruction's cost
planned once at block-compile time (:meth:`TimingModel.plan_block`).
Both charge the same amounts in the same order, so ``cycles`` is
bit-identical whichever path ran.  DBT-specific costs (unit
translation, RAT lookups, dispatcher hits) are charged from the PSR VM's
statistics after the run.

This is deliberately *not* a cycle-accurate pipeline — absolute numbers
differ from the paper's gem5 results — but every effect the paper's
performance figures rely on is modelled from first principles: relocated
state costs extra memory traffic (Figure 9), sparse frames touch more
cache lines (Figure 10), small RATs add return penalties (Figure 11),
code-cache pressure adds retranslation work (Figure 13), and defeated
branch prediction hurts call-dense code (Figure 14's Isomeron model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa.base import Op
from ..machine.cpu import CPUState
from ..machine.interpreter import StepInfo
from .branch import BranchPredictor
from .caches import Cache
from .cores import CoreConfig

#: base execution cost per instruction class, in issue slots
CLASS_COSTS: Dict[Op, float] = {
    Op.MUL: 3.0,
    Op.DIV: 12.0,
    Op.MOD: 12.0,
    Op.SYSCALL: 80.0,
    Op.CALL: 2.0,
    Op.ICALL: 3.0,
    Op.RET: 2.0,
    Op.IJMP: 3.0,
}
_DEFAULT_COST = 1.0

#: instruction kinds that take a charge beyond class cost and caches
_KIND_PLAIN, _KIND_BRANCH, _KIND_CALL_RETURN = 0, 1, 2
_CALL_RETURN_OPS = (Op.CALL, Op.ICALL, Op.RET)

#: one instruction of a compiled block, as :meth:`TimingModel.plan_block`
#: plans it: (fetch pc, class cost / ILP, data accesses, kind, same
#: I-cache line as the previous instruction of the block)
PlannedInstruction = Tuple[int, float, int, int, bool]


@dataclass
class DBTCostModel:
    """Costs of the translation machinery itself."""

    translation_cycles_per_byte: float = 12.0
    chain_cycles_per_unit: float = 30.0
    rat_lookup_cycles: float = 1.0       # the paper's 1-cycle RAT penalty
    rat_miss_cycles: float = 60.0        # trap + re-translation dispatch
    indirect_dispatch_cycles: float = 8.0

    def snapshot(self, vm) -> Dict[str, float]:
        """Capture the VM counters the overhead computation depends on."""
        return {
            "bytes_installed": vm.cache.stats.bytes_installed,
            "installs": vm.cache.stats.installs,
            "rat_lookups": vm.rat.stats.lookups,
            "rat_misses": vm.rat.stats.misses,
            "security_events": vm.stats.security_events,
        }

    def overhead_cycles(self, vm,
                        since: Optional[Dict[str, float]] = None) -> float:
        """DBT overhead from the VM's statistics.

        ``since`` (an earlier :meth:`snapshot`) restricts the charge to
        work done during the measurement window — translation performed
        during warmup is amortized start-up cost, as in the paper's
        fast-forwarded steady-state methodology.
        """
        now = self.snapshot(vm)
        base = since or {key: 0.0 for key in now}
        delta = {key: now[key] - base.get(key, 0.0) for key in now}
        cycles = delta["bytes_installed"] * self.translation_cycles_per_byte
        cycles += delta["installs"] * self.chain_cycles_per_unit
        cycles += delta["rat_lookups"] * self.rat_lookup_cycles
        cycles += delta["rat_misses"] * self.rat_miss_cycles
        cycles += delta["security_events"] * self.indirect_dispatch_cycles
        return cycles


class TimingModel:
    """Cycle accumulator for one core, fed by the interpreter."""

    def __init__(self, core: CoreConfig,
                 disable_branch_prediction: bool = False):
        self.core = core
        self.ilp_factor = core.ilp_factor
        self.icache = Cache(core.icache)
        self.dcache = Cache(core.dcache)
        self.branch_predictor = BranchPredictor(
            disabled=disable_branch_prediction)
        self.cycles = 0.0
        self.instructions = 0
        #: fraction of a D-cache miss the out-of-order window hides
        self.miss_overlap = 0.4
        #: cycles per data-memory access even on a hit: address generation
        #: plus load-use latency the window cannot always hide.  This is
        #: what makes stack-relocated state cost real time — the effect
        #: the -O2 global register cache exists to claw back (Figure 9).
        self.mem_access_cost = 0.7
        #: extra charge on every call and return, returning its cycles:
        #: Isomeron's execution-path diversifier installs itself here
        self.diversifier: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    def observe(self, cpu: CPUState, info: StepInfo) -> None:
        """Charge one executed instruction (the per-step reference)."""
        decoded = info.decoded
        op = decoded.instruction.op
        self.instructions += 1
        self.cycles += CLASS_COSTS.get(op, _DEFAULT_COST) / self.ilp_factor

        if not self.icache.access(decoded.address):
            self.cycles += self.core.icache.miss_penalty

        for address, _is_write in info.mem_accesses:
            self.cycles += self.mem_access_cost / self.ilp_factor
            if not self.dcache.access(address):
                self.cycles += (self.core.dcache.miss_penalty
                                * (1.0 - self.miss_overlap))

        if op is Op.JCC:
            correct = self.branch_predictor.predict_and_update(
                decoded.address, info.branch_taken)
            if not correct:
                self.cycles += self.core.mispredict_penalty
        elif op in _CALL_RETURN_OPS and self.diversifier is not None:
            self.cycles += self.diversifier()

    def plan_block(self, instructions: Sequence[Tuple[int, Op, int]],
                   ) -> Tuple[PlannedInstruction, ...]:
        """Precompute the static cost of a block's instructions.

        ``instructions`` lists ``(address, op, data accesses)`` in block
        order.  A fetch from the same I-cache line as the previous
        instruction of the block is a guaranteed MRU hit — nothing else
        touches the I-cache in between — so it is flagged and later only
        counted, never looked up.
        """
        shift = self.icache.offset_bits
        planned: List[PlannedInstruction] = []
        previous_line = None
        for address, op, accesses in instructions:
            if op is Op.JCC:
                kind = _KIND_BRANCH
            elif op in _CALL_RETURN_OPS:
                kind = _KIND_CALL_RETURN
            else:
                kind = _KIND_PLAIN
            line = address >> shift
            planned.append((address,
                            CLASS_COSTS.get(op, _DEFAULT_COST)
                            / self.ilp_factor,
                            accesses, kind, line == previous_line))
            previous_line = line
        return tuple(planned)

    def charge_block(self, planned: Tuple[PlannedInstruction, ...],
                     completed: int, addresses: List[int],
                     taken: bool) -> None:
        """Charge the first ``completed`` instructions of a planned block.

        ``addresses`` are the block's data accesses in execution order
        (any beyond the completed instructions belong to the one that
        faulted, and are ignored); ``taken`` is the outcome of a
        terminating conditional branch.  Charges exactly what
        :meth:`observe` would, in the same order.
        """
        if completed < len(planned):
            planned = planned[:completed]
        core = self.core
        icache_access = self.icache.access
        icache_penalty = core.icache.miss_penalty
        dcache_access = self.dcache.access
        mem_cost = self.mem_access_cost / self.ilp_factor
        dcache_penalty = core.dcache.miss_penalty * (1.0 - self.miss_overlap)
        cycles = self.cycles
        same_line = 0
        cursor = 0
        for pc, cost, accesses, kind, same in planned:
            cycles += cost
            if same:
                same_line += 1
            elif not icache_access(pc):
                cycles += icache_penalty
            if accesses:
                for address in addresses[cursor:cursor + accesses]:
                    cycles += mem_cost
                    if not dcache_access(address):
                        cycles += dcache_penalty
                cursor += accesses
            if kind == _KIND_BRANCH:
                if not self.branch_predictor.predict_and_update(pc, taken):
                    cycles += core.mispredict_penalty
            elif kind == _KIND_CALL_RETURN and self.diversifier is not None:
                cycles += self.diversifier()
        self.cycles = cycles
        self.instructions += completed
        self.icache.stats.accesses += same_line

    # ------------------------------------------------------------------
    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def seconds(self) -> float:
        return self.core.cycles_to_seconds(self.cycles)

    def add_cycles(self, cycles: float) -> None:
        self.cycles += cycles


@dataclass
class PerfMeasurement:
    """One measured run: cycles, instructions, and derived metrics."""

    label: str
    cycles: float
    instructions: int
    core: CoreConfig

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def seconds(self) -> float:
        return self.core.cycles_to_seconds(self.cycles)

    def relative_to(self, baseline: "PerfMeasurement") -> float:
        """Performance relative to a baseline run (1.0 = as fast)."""
        if self.seconds == 0:
            return 0.0
        return baseline.seconds / self.seconds
