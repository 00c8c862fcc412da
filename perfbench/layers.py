"""Layer probes installed from outside the program.

Two kinds of hook, both installed by rebinding public callables of the
``repro`` package (never per-instruction functions such as
``Interpreter.step`` or ``TimingModel.observe``):

* **capture hooks** (every batch run, and the traced serve daemon):
  constructor hooks that keep the ``TimingModel`` and PSR VM objects an
  op creates, so its modelled counts can be digested, and a counter on
  ``Interpreter.run`` that sums executed instructions per interpreter
  path.  They cost one Python call per object or per ``run()`` entry.
  The untraced serve daemon runs without any hook.
* **spans** (traced runs only): name, start, end, parent span and the
  op id, kept in memory and dumped as JSON at the end.  A span's self
  time is its duration minus its children's.

Per-layer metrics are computed from a run's dump by
:func:`layer_metrics`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: interpreter paths, classified at each ``Interpreter.run`` entry
PATHS = ("fast", "observed", "profiled")


class Recorder:
    """Process-wide store of spans, counters and captured objects."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.steps = {path: 0 for path in PATHS}
        self.counters: Dict[str, float] = {}
        self.timing_models: List[Any] = []
        self.vms: List[Any] = []
        #: layer totals folded in from released objects
        self.model_totals = _zero_model_totals()
        self.vm_totals = _zero_vm_totals()

    # -- op context -----------------------------------------------------
    def set_op(self, op_id: str) -> None:
        self._local.op = op_id

    def _op(self) -> str:
        return getattr(self._local, "op", "")

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans ----------------------------------------------------------
    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), parent, self._op(), name,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """A span around ``fn``; ``after(result, args)`` sees each
        successful result (counts, sizes)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- captured objects -----------------------------------------------
    def release_objects(self) -> Tuple[list, list]:
        """Hand over the objects captured since the last call and fold
        their counts into the layer totals."""
        models, vms = self.timing_models, self.vms
        self.timing_models, self.vms = [], []
        for model in models:
            for key, value in model_counts(model).items():
                self.model_totals[key] += value
        for vm in vms:
            for key, value in vm_counts(vm).items():
                self.vm_totals[key] += value
        return models, vms

    def dump(self) -> Dict[str, Any]:
        self.release_objects()
        return {"spans": self.spans, "steps": self.steps,
                "counters": self.counters,
                "model_totals": self.model_totals,
                "vm_totals": self.vm_totals}


def _zero_model_totals() -> Dict[str, int]:
    return {"models": 0, "icache_accesses": 0, "icache_misses": 0,
            "dcache_accesses": 0, "dcache_misses": 0,
            "predictions": 0, "mispredictions": 0}


def _zero_vm_totals() -> Dict[str, int]:
    return {"vms": 0, "units_installed": 0, "capacity_misses": 0,
            "rat_lookups": 0, "rat_misses": 0, "security_events": 0}


def model_counts(model) -> Dict[str, int]:
    return {"models": 1,
            "icache_accesses": model.icache.stats.accesses,
            "icache_misses": model.icache.stats.misses,
            "dcache_accesses": model.dcache.stats.accesses,
            "dcache_misses": model.dcache.stats.misses,
            "predictions": model.branch_predictor.stats.predictions,
            "mispredictions": model.branch_predictor.stats.mispredictions}


def vm_counts(vm) -> Dict[str, int]:
    return {"vms": 1,
            "units_installed": vm.stats.units_installed,
            "capacity_misses": vm.cache.stats.capacity_misses,
            "rat_lookups": vm.rat.stats.lookups,
            "rat_misses": vm.rat.stats.misses,
            "security_events": vm.stats.security_events}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(recorder: Recorder, module, attr: str, span: str,
                   after: Optional[Callable] = None) -> None:
    original = getattr(module, attr)
    _rebind(original, recorder.wrap(span, original, after))


def _wrap_method(recorder: Recorder, cls, attr: str, span: str,
                 after: Optional[Callable] = None) -> None:
    setattr(cls, attr, recorder.wrap(span, getattr(cls, attr), after))


def _capture_init(cls, sink: Callable[[Any], list]) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sink().append(self)

    cls.__init__ = __init__


def install(trace: bool, serve: bool = False) -> Recorder:
    """Install the capture hooks, and the spans when ``trace``."""
    from repro import obs
    from repro.faults import injection
    from repro.core import psr
    from repro.machine import interpreter
    from repro.perf import timing

    recorder = Recorder(trace)
    if not serve:
        # a daemon never releases captured objects, so it keeps none
        _capture_init(timing.TimingModel, lambda: recorder.timing_models)
        _capture_init(psr.PSRVirtualMachine, lambda: recorder.vms)

    original_run = interpreter.Interpreter.run

    @functools.wraps(original_run)
    def run(self, *args, **kwargs):
        if self.observers or self.breakpoints \
                or injection.get() is not None:
            path = "observed"
        elif obs.enabled():
            path = "profiled"
        else:
            path = "fast"
        before = self.steps_executed
        span = recorder.open(f"machine.{path}") if recorder.trace else None
        try:
            return original_run(self, *args, **kwargs)
        finally:
            if span is not None:
                recorder.close(span)
            recorder.steps[path] += self.steps_executed - before

    interpreter.Interpreter.run = run
    if trace:
        _install_spans(recorder, serve)
    return recorder


def _install_spans(recorder: Recorder, serve: bool) -> None:
    import repro.staticcheck as staticcheck
    import repro.transpile as transpile_pkg
    from repro.attacks import bruteforce, galileo, gadgets, jitrop
    from repro.compiler import fatbinary, lowering, minic
    from repro.core import psr_codegen
    from repro.migration import engine as migration_engine
    from repro.migration import stack_transform
    from repro.runtime import cache, durable, engine
    from repro.staticcheck import passes
    from repro.transpile import lifter

    count = recorder.count

    # compiler: parse -> lower -> (regalloc inside) emit
    _wrap_function(recorder, minic, "parse", "compiler.parse")
    _wrap_function(recorder, lowering, "lower_program", "compiler.lower")
    _wrap_function(recorder, fatbinary, "allocate_registers",
                   "compiler.regalloc")

    def emitted(binary, _args):
        count("compiler.programs")
        count("compiler.code_bytes",
              sum(len(binary.text(isa)) for isa in binary.isa_names))

    _wrap_function(recorder, fatbinary, "compile_program", "compiler.emit",
                   emitted)

    # dbt / core
    _wrap_method(recorder, psr_codegen.PSRTranslator, "translate",
                 "dbt.translate")

    # migration
    def migrated(_result, _args):
        count("migration.count")

    _wrap_method(recorder, migration_engine.MigrationEngine, "migrate",
                 "migration.migrate", migrated)
    _wrap_method(recorder, stack_transform.StackTransformer, "walk_frames",
                 "migration.walk")
    _wrap_method(recorder, stack_transform.StackTransformer, "transform",
                 "migration.transform")

    # attacks
    def mined(result, _args):
        count("attacks.gadgets", len(result))

    _wrap_function(recorder, galileo, "mine_binary", "attacks.mine",
                   mined)
    _wrap_function(recorder, galileo, "mine_gadgets", "attacks.mine")
    _wrap_method(recorder, gadgets.PSRGadgetAnalyzer, "analyze_all",
                 "attacks.evaluate")
    _wrap_function(recorder, bruteforce, "simulate_brute_force",
                   "attacks.evaluate")
    _wrap_function(recorder, jitrop, "jitrop_surface", "attacks.jitrop")

    # staticcheck: one span per pass
    for factory in passes.DEFAULT_PASSES:
        _wrap_method(recorder, factory, "run", f"staticcheck.{factory.name}")

    def verified(report, _args):
        count("staticcheck.findings", len(report.findings))

    original_verifier = passes.run_verifier
    wrapped_verifier = recorder.wrap("staticcheck.verify", original_verifier,
                                     verified)
    _rebind(original_verifier, wrapped_verifier)
    staticcheck.run_verifier = wrapped_verifier

    # transpile
    def lifted(binary, _args):
        count("transpile.instructions_lifted",
              binary.lift_stats.get("lifted_instructions", 0))

    original_lift = lifter.transpile_binary
    wrapped_lift = recorder.wrap("transpile.lift", original_lift, lifted)
    _rebind(original_lift, wrapped_lift)
    transpile_pkg.transpile_binary = wrapped_lift

    # runtime: engine overhead = engine.run minus its job functions
    original_engine_run = engine.ExperimentEngine.run

    def engine_run(self, jobs):
        timed = [dataclasses.replace(
            job, fn=recorder.wrap("runtime.job", job.fn)) for job in jobs]
        span = recorder.open("runtime.engine")
        try:
            return original_engine_run(self, timed)
        finally:
            recorder.close(span)

    engine.ExperimentEngine.run = engine_run

    store_kinds = {durable.REQUEST_KIND, durable.RESULT_KIND}
    original_get = cache.ArtifactCache.get

    def cache_get(self, kind, key):
        hit, value = original_get(self, kind, key)
        if kind not in store_kinds:
            count("runtime.cache.hits" if hit else "runtime.cache.misses")
        return hit, value

    cache.ArtifactCache.get = cache_get
    _wrap_method(recorder, durable.RunJournal, "append",
                 "runtime.journal.append")

    if serve:
        _install_serve_spans(recorder)


def _install_serve_spans(recorder: Recorder) -> None:
    from repro.serve import server

    core = server.ServerCore
    original_admit = core.admit
    original_execute = core.execute

    def admit(self, raw_body, deadline_header=None):
        span = recorder.open("serve.admit")
        try:
            outcome = original_admit(self, raw_body, deadline_header)
        finally:
            recorder.close(span)
        if outcome[0] == "work":
            outcome[1].perfbench_admitted = time.perf_counter()
            span[2] = outcome[1].spec.request_id
        else:
            _tag, status, body = outcome
            span[2] = body.get("request_id", "")
            if body.get("resumed"):
                recorder.count("serve.replayed")
            elif status >= 400:
                recorder.count("serve.rejected")
        return outcome

    def execute(self, work):
        recorder.set_op(work.spec.request_id)
        admitted = getattr(work, "perfbench_admitted", None)
        if admitted is not None:
            recorder.count("serve.queue_wait_s",
                           time.perf_counter() - admitted)
            recorder.count("serve.queue_waits")
        recorder.count("serve.executed")
        span = recorder.open("serve.execute")
        try:
            return original_execute(self, work)
        finally:
            recorder.close(span)
            recorder.set_op("")

    core.admit = admit
    core.execute = execute
    _wrap_method(recorder, core, "_settle_done", "serve.settle")
    _wrap_method(recorder, core, "_settle_failure", "serve.settle")


# ----------------------------------------------------------------------
# Calibration probes (traced runs only)
# ----------------------------------------------------------------------
def calibration_probes(binary, stdin: bytes = b"") -> Dict[str, float]:
    """Host microseconds per instruction on three interpreter set-ups,
    each on one fresh process of the same binary."""
    from repro.isa import ISAS
    from repro.machine.process import Process
    from repro.perf.cores import CORES
    from repro.perf.timing import TimingModel

    def timed(observer_factory) -> Tuple[float, int]:
        process = Process(binary.to_process_image(), ISAS["x86like"])
        process.os.reset(stdin=stdin)
        if observer_factory is not None:
            process.interpreter.observers.append(observer_factory())
        start = time.perf_counter()
        process.run(50_000_000)
        seconds = time.perf_counter() - start
        return seconds, process.interpreter.steps_executed

    def noop_factory():
        return lambda cpu, info: None

    def timing_factory():
        return TimingModel(CORES["x86like"]).observe

    fast_s, fast_n = timed(None)
    step_s, step_n = timed(noop_factory)
    model_s, model_n = timed(timing_factory)
    return {
        "machine.fast_us_per_inst": 1e6 * fast_s / fast_n,
        "machine.step_us_per_inst": 1e6 * step_s / step_n,
        "perf.observe_us_per_inst":
            1e6 * (model_s / model_n - step_s / step_n),
        "probe.instructions": float(fast_n),
    }


# ----------------------------------------------------------------------
# Per-layer metrics from span dumps
# ----------------------------------------------------------------------
#: (metric, unit) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("machine.fast.s", "s"), ("machine.fast.kinsn", "kinsn"),
    ("machine.observed.s", "s"), ("machine.observed.kinsn", "kinsn"),
    ("machine.profiled.s", "s"), ("machine.profiled.kinsn", "kinsn"),
    ("machine.fast_us_per_inst", "us"), ("machine.step_us_per_inst", "us"),
    ("perf.observe_us_per_inst", "us"),
    ("perf.timing_models", "count"), ("perf.icache_miss_ratio", "ratio"),
    ("perf.dcache_miss_ratio", "ratio"), ("perf.mispredict_ratio", "ratio"),
    ("dbt.translate_s", "s"), ("dbt.units_installed", "count"),
    ("dbt.capacity_misses", "count"), ("dbt.rat_lookups", "count"),
    ("dbt.rat_misses", "count"), ("dbt.security_events", "count"),
    ("migration.migrate_s", "s"), ("migration.count", "count"),
    ("migration.walk_s", "s"), ("migration.transform_s", "s"),
    ("compiler.parse_s", "s"), ("compiler.lower_s", "s"),
    ("compiler.regalloc_s", "s"), ("compiler.emit_s", "s"),
    ("compiler.programs", "count"), ("compiler.code_bytes", "bytes"),
    ("attacks.mine_s", "s"), ("attacks.gadgets", "count"),
    ("attacks.evaluate_s", "s"), ("attacks.jitrop_s", "s"),
    ("staticcheck.cfg_s", "s"), ("staticcheck.consistency_s", "s"),
    ("staticcheck.dataflow_s", "s"), ("staticcheck.symequiv_s", "s"),
    ("staticcheck.framesafety_s", "s"), ("staticcheck.gadgets_s", "s"),
    ("staticcheck.transpile_s", "s"), ("staticcheck.findings", "count"),
    ("transpile.lift_s", "s"), ("transpile.instructions_lifted", "count"),
    ("runtime.engine_overhead_s", "s"), ("runtime.cache.hits", "count"),
    ("runtime.cache.misses", "count"), ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.journal.append_ms", "ms"),
    ("serve.admit_ms", "ms"), ("serve.queue_wait_ms", "ms"),
    ("serve.execute_ms", "ms"), ("serve.settle_ms", "ms"),
    ("serve.executed", "count"), ("serve.replayed", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"), ("trace.spans", "count"),
)

#: span-name -> metric, for metrics that are a sum of span self times
_SELF_TIME = {
    "dbt.translate": "dbt.translate_s",
    "migration.walk": "migration.walk_s",
    "migration.transform": "migration.transform_s",
    "compiler.parse": "compiler.parse_s",
    "compiler.lower": "compiler.lower_s",
    "compiler.regalloc": "compiler.regalloc_s",
    "compiler.emit": "compiler.emit_s",
    "attacks.mine": "attacks.mine_s",
    "attacks.evaluate": "attacks.evaluate_s",
    "attacks.jitrop": "attacks.jitrop_s",
    "transpile.lift": "transpile.lift_s",
    "runtime.engine": "runtime.engine_overhead_s",
    "machine.fast": "machine.fast.s",
    "machine.observed": "machine.observed.s",
    "machine.profiled": "machine.profiled.s",
}
for _pass in ("cfg", "consistency", "dataflow", "symequiv", "framesafety",
              "gadgets", "transpile"):
    _SELF_TIME[f"staticcheck.{_pass}"] = f"staticcheck.{_pass}_s"


def layer_metrics(dump: Dict[str, Any],
                  probes: Dict[str, float]) -> Tuple[Dict[str, float],
                                                     List[str]]:
    """Per-layer values of one traced run's dump, plus one printable
    note per ratio or mean, naming its base."""
    values: Dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
    notes: List[str] = []
    counters = dump["counters"]
    models = dump["model_totals"]
    vms = dump["vm_totals"]
    spans = dump["spans"]
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = {}
    settle_inside_execute = 0.0
    for _span_id, parent, _op, name, start, end in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if name == "serve.settle" and by_id[parent][3] == "serve.execute":
                settle_inside_execute += end - start
    durations: Dict[str, List[float]] = {}
    for span_id, _parent, _op, name, start, end in spans:
        duration = end - start
        durations.setdefault(name, []).append(duration)
        metric = _SELF_TIME.get(name)
        if metric is not None:
            values[metric] += duration - child_time.get(span_id, 0.0)

    for path in PATHS:
        values[f"machine.{path}.kinsn"] = dump["steps"][path] / 1000.0
    values.update({key: value for key, value in probes.items()
                   if key in values})

    values["perf.timing_models"] = models["models"]
    for metric, num, den in (
            ("perf.icache_miss_ratio", "icache_misses", "icache_accesses"),
            ("perf.dcache_miss_ratio", "dcache_misses", "dcache_accesses"),
            ("perf.mispredict_ratio", "mispredictions", "predictions")):
        values[metric] = models[num] / models[den] if models[den] else 0.0
        notes.append(f"{metric} = {models[num]} / {models[den]} "
                     f"({num} / {den})")
    for key in ("units_installed", "capacity_misses", "rat_lookups",
                "rat_misses", "security_events"):
        values[f"dbt.{key}"] = vms[key]

    migrate = durations.get("migration.migrate", [])
    values["migration.migrate_s"] = sum(migrate)
    for key in ("migration.count", "compiler.programs",
                "compiler.code_bytes", "attacks.gadgets",
                "staticcheck.findings", "transpile.instructions_lifted",
                "runtime.cache.hits", "runtime.cache.misses",
                "serve.executed", "serve.replayed", "serve.rejected"):
        values[key] = counters.get(key, 0)
    lookups = values["runtime.cache.hits"] + values["runtime.cache.misses"]
    values["runtime.cache.hit_ratio"] = \
        values["runtime.cache.hits"] / lookups if lookups else 0.0
    notes.append(f"runtime.cache.hit_ratio = {values['runtime.cache.hits']:g}"
                 f" / {lookups:g} (hits / artifact-cache lookups)")

    def mean_ms(metric: str, total: float, count: float, what: str) -> None:
        values[metric] = 1000.0 * total / count if count else 0.0
        notes.append(f"{metric} = mean over {count:g} {what}")

    appends = durations.get("runtime.journal.append", [])
    mean_ms("runtime.journal.append_ms", sum(appends), len(appends),
            "journal appends")
    admits = durations.get("serve.admit", [])
    mean_ms("serve.admit_ms", sum(admits), len(admits), "admissions")
    mean_ms("serve.queue_wait_ms", counters.get("serve.queue_wait_s", 0.0),
            counters.get("serve.queue_waits", 0), "executed requests")
    executes = durations.get("serve.execute", [])
    mean_ms("serve.execute_ms", sum(executes) - settle_inside_execute,
            len(executes), "executed requests, settle excluded")
    settles = durations.get("serve.settle", [])
    mean_ms("serve.settle_ms", sum(settles), len(settles), "settlements")
    values["trace.spans"] = len(spans)
    return values, notes


def write_dump(recorder: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.dump(), handle)
