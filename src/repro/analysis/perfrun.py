"""Measured performance runs: native, PSR, Isomeron, HIPStR.

Each helper executes a workload with a :class:`TimingModel` attached at
the interpreter's timing attach point (so the run keeps the
compiled-block fast path) and returns a :class:`PerfMeasurement`.  All
runs use the same instruction budget so relative performance compares
equal work.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs import context as obs
from ..obs.instrument import step_metrics

from ..compiler.fatbinary import FatBinary
from ..core.hipstr import HIPStRResult, HIPStRSystem
from ..core.relocation import PSRConfig
from ..core.runner import create_psr_process
from ..defenses.isomeron import IsomeronExecutionModel
from ..isa import ISAS
from ..machine.process import Process
from ..perf.cores import CORES
from ..perf.migration_cost import migration_micros
from ..perf.timing import DBTCostModel, PerfMeasurement, TimingModel

#: default instruction cap — measurements run the workload to completion
#: (equal work), the cap is only a runaway guard
DEFAULT_BUDGET = 8_000_000
#: instructions executed before the timing model attaches, mirroring
#: the paper's fast-forward-to-steady-state methodology
DEFAULT_WARMUP = 50_000


def measure_native(binary: FatBinary, isa_name: str = "x86like",
                   stdin: bytes = b"",
                   budget: int = DEFAULT_BUDGET,
                   warmup: int = DEFAULT_WARMUP) -> PerfMeasurement:
    core = CORES[isa_name]
    process = Process(binary.to_process_image(), ISAS[isa_name])
    process.os.reset(stdin=stdin)
    process.run(warmup)
    timing = TimingModel(core)
    process.interpreter.attach_timing(timing)
    with obs.span("measure", system="native", isa=isa_name):
        with step_metrics(process.interpreter, system="native",
                          isa=isa_name):
            process.run(budget)
    return PerfMeasurement("native", timing.cycles, timing.instructions, core)


def measure_psr(binary: FatBinary, isa_name: str = "x86like",
                config: Optional[PSRConfig] = None, seed: int = 0,
                stdin: bytes = b"", budget: int = DEFAULT_BUDGET,
                cost_model: Optional[DBTCostModel] = None,
                warmup: int = DEFAULT_WARMUP,
                ) -> Tuple[PerfMeasurement, object]:
    config = config or PSRConfig()
    cost_model = cost_model or DBTCostModel()
    core = CORES[isa_name]
    process, vm = create_psr_process(binary, ISAS[isa_name], config, seed,
                                     stdin)
    process.run(warmup)
    snapshot = cost_model.snapshot(vm)
    timing = TimingModel(core)
    process.interpreter.attach_timing(timing)
    with obs.span("measure", system="psr", isa=isa_name,
                  opt_level=config.opt_level):
        with step_metrics(process.interpreter, system="psr", isa=isa_name):
            process.run(budget)
    timing.add_cycles(cost_model.overhead_cycles(vm, since=snapshot))
    label = f"psr-O{config.opt_level}"
    return PerfMeasurement(label, timing.cycles, timing.instructions,
                           core), vm


def measure_isomeron(binary: FatBinary, isa_name: str = "x86like",
                     diversification_probability: float = 0.5, seed: int = 0,
                     stdin: bytes = b"",
                     budget: int = DEFAULT_BUDGET,
                     warmup: int = DEFAULT_WARMUP) -> PerfMeasurement:
    """Isomeron runs natively but pays the diversifier at every call/ret
    and loses branch prediction to program shepherding."""
    core = CORES[isa_name]
    process = Process(binary.to_process_image(), ISAS[isa_name])
    process.os.reset(stdin=stdin)
    process.run(warmup)
    timing = TimingModel(core, disable_branch_prediction=True)
    IsomeronExecutionModel(timing, diversification_probability, seed)
    process.interpreter.attach_timing(timing)
    with obs.span("measure", system="isomeron", isa=isa_name):
        with step_metrics(process.interpreter, system="isomeron",
                          isa=isa_name):
            process.run(budget)
    return PerfMeasurement("isomeron", timing.cycles, timing.instructions,
                           core)


def measure_psr_isomeron(binary: FatBinary, isa_name: str = "x86like",
                         config: Optional[PSRConfig] = None,
                         diversification_probability: float = 0.5,
                         seed: int = 0, stdin: bytes = b"",
                         budget: int = DEFAULT_BUDGET,
                         warmup: int = DEFAULT_WARMUP) -> PerfMeasurement:
    """The PSR+Isomeron hybrid of Figures 7, 8 and 14."""
    config = config or PSRConfig()
    core = CORES[isa_name]
    cost_model = DBTCostModel()
    process, vm = create_psr_process(binary, ISAS[isa_name], config, seed,
                                     stdin)
    process.run(warmup)
    snapshot = cost_model.snapshot(vm)
    timing = TimingModel(core, disable_branch_prediction=True)
    IsomeronExecutionModel(timing, diversification_probability, seed)
    process.interpreter.attach_timing(timing)
    with obs.span("measure", system="psr+isomeron", isa=isa_name):
        with step_metrics(process.interpreter, system="psr+isomeron",
                          isa=isa_name):
            process.run(budget)
    timing.add_cycles(cost_model.overhead_cycles(vm, since=snapshot))
    return PerfMeasurement("psr+isomeron", timing.cycles,
                           timing.instructions, core)


@dataclass
class PSRRunSummary:
    """Plain-data reduction of a PSR run: what the figure drivers consume.

    Unlike :func:`measure_psr`'s ``(measurement, vm)`` pair this is fully
    picklable, so it can cross process boundaries (the fan-out engine)
    and live in the on-disk artifact cache.
    """

    measurement: PerfMeasurement
    capacity_misses: int
    security_events: int


def measure_psr_summary(binary: FatBinary, isa_name: str = "x86like",
                        config: Optional[PSRConfig] = None, seed: int = 0,
                        stdin: bytes = b"", budget: int = DEFAULT_BUDGET,
                        cost_model: Optional[DBTCostModel] = None,
                        warmup: int = DEFAULT_WARMUP) -> PSRRunSummary:
    measured, vm = measure_psr(binary, isa_name, config=config, seed=seed,
                               stdin=stdin, budget=budget,
                               cost_model=cost_model, warmup=warmup)
    return PSRRunSummary(
        measurement=measured,
        capacity_misses=vm.cache.stats.capacity_misses,
        security_events=vm.stats.security_events,
    )


@dataclass
class HIPStRMeasurement:
    """Timing of a HIPStR run across both cores plus migration costs."""

    measurement: PerfMeasurement
    result: HIPStRResult
    migration_micros_total: float


def measure_hipstr(binary: FatBinary,
                   config: Optional[PSRConfig] = None, seed: int = 0,
                   migration_probability: float = 1.0,
                   stdin: bytes = b"", budget: int = DEFAULT_BUDGET,
                   phase_interval: Optional[int] = None,
                   warmup: int = DEFAULT_WARMUP,
                   prewarm: bool = False,
                   ) -> HIPStRMeasurement:
    """Run under HIPStR with per-core timing models.

    Cycles accumulate on whichever core executes; migration costs are
    charged from the cost model in the faster core's cycle domain.
    """
    config = config or PSRConfig()
    cost_model = DBTCostModel()
    system = HIPStRSystem(binary, config, seed, migration_probability,
                          stdin=stdin, phase_interval=phase_interval)
    if prewarm:
        # steady-state methodology: full translation on both ISAs first
        for vm in system.vms.values():
            vm.prewarm()
    system.run(warmup)
    snapshots = {name: cost_model.snapshot(vm)
                 for name, vm in system.vms.items()}
    migrations_before = len(system.engine.history)
    timers = {name: TimingModel(CORES[name]) for name in system.interpreters}
    for name, interpreter in system.interpreters.items():
        interpreter.attach_timing(timers[name])
    with obs.span("measure", system="hipstr"):
        with contextlib.ExitStack() as stack:
            for name, interpreter in system.interpreters.items():
                stack.enter_context(step_metrics(interpreter,
                                                 system="hipstr", isa=name))
            result = system.run(budget)

    total_seconds = sum(t.seconds for t in timers.values())
    migration_cost = sum(migration_micros(r) for r in
                         result.migrations[migrations_before:])
    total_seconds += migration_cost * 1e-6
    for name, vm in system.vms.items():
        total_seconds += CORES[vm.isa.name].cycles_to_seconds(
            cost_model.overhead_cycles(vm, since=snapshots[name]))

    core = CORES["x86like"]
    cycles = total_seconds * core.frequency_hz
    instructions = sum(t.instructions for t in timers.values())
    return HIPStRMeasurement(
        measurement=PerfMeasurement("hipstr", cycles, instructions, core),
        result=result,
        migration_micros_total=migration_cost,
    )


@dataclass
class HIPStRRunSummary:
    """Picklable reduction of a HIPStR run (engine- and cache-friendly)."""

    measurement: PerfMeasurement
    migration_micros_total: float
    #: the measured window's migration records (feed perf.migration_cost)
    migrations: List["object"] = field(default_factory=list)

    @property
    def migration_count(self) -> int:
        return len(self.migrations)


def measure_hipstr_summary(binary: FatBinary,
                           config: Optional[PSRConfig] = None, seed: int = 0,
                           migration_probability: float = 1.0,
                           stdin: bytes = b"", budget: int = DEFAULT_BUDGET,
                           phase_interval: Optional[int] = None,
                           warmup: int = DEFAULT_WARMUP,
                           prewarm: bool = False) -> HIPStRRunSummary:
    measured = measure_hipstr(
        binary, config=config, seed=seed,
        migration_probability=migration_probability, stdin=stdin,
        budget=budget, phase_interval=phase_interval, warmup=warmup,
        prewarm=prewarm)
    return HIPStRRunSummary(
        measurement=measured.measurement,
        migration_micros_total=measured.migration_micros_total,
        migrations=list(measured.result.migrations),
    )
