"""Tests for the performance model: caches, branch prediction, timing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf import (
    ARM_CORE,
    BranchPredictor,
    Cache,
    CacheConfig,
    TimingModel,
    X86_CORE,
)
from repro.perf.migration_cost import migration_micros, summarize
from repro.perf.timing import DBTCostModel
from repro.migration.engine import MigrationRecord
from repro.migration.stack_transform import TransformReport


class TestCache:
    def make(self, size=1024, assoc=2, line=64):
        return Cache(CacheConfig(size=size, associativity=assoc,
                                 line_size=line))

    def test_first_access_misses_then_hits(self):
        cache = self.make()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x103F)           # same 64-byte line

    def test_distinct_lines(self):
        cache = self.make()
        cache.access(0x1000)
        assert not cache.access(0x1040)

    def test_lru_eviction(self):
        # 2-way: three conflicting lines evict the least recently used
        cache = self.make(size=256, assoc=2, line=64)   # 2 sets
        sets = cache.num_sets
        a, b, c = 0, sets * 64, 2 * sets * 64           # same set
        cache.access(a)
        cache.access(b)
        cache.access(a)          # refresh a
        cache.access(c)          # evicts b
        assert cache.access(a)
        assert not cache.access(b)

    def test_access_cost(self):
        cache = self.make()
        config = cache.config
        assert cache.access_cost(0) == config.hit_latency + config.miss_penalty
        assert cache.access_cost(0) == config.hit_latency

    def test_flush(self):
        cache = self.make()
        cache.access(0x1000)
        cache.flush()
        assert not cache.access(0x1000)

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_capacity_invariant(self, addresses):
        cache = self.make(size=512, assoc=2)
        for address in addresses:
            cache.access(address)
        for ways in cache._sets:
            assert len(ways) <= 2


class _ReferenceLRU:
    """Set-associative LRU as a plain list per set, most recent last."""

    def __init__(self, num_sets, associativity, offset_bits):
        self.sets = [[] for _ in range(num_sets)]
        self.associativity = associativity
        self.offset_bits = offset_bits
        self.accesses = self.misses = 0

    def access(self, address):
        block = address >> self.offset_bits
        ways = self.sets[block % len(self.sets)]
        self.accesses += 1
        if block in ways:
            ways.remove(block)
            ways.append(block)
            return True
        self.misses += 1
        ways.append(block)
        if len(ways) > self.associativity:
            del ways[0]
        return False


@pytest.mark.parametrize("size, assoc, line", [
    (256, 1, 64), (512, 2, 64), (1024, 4, 32), (4096, 8, 64), (64, 1, 64)])
def test_cache_matches_reference_lru_on_random_traces(size, assoc, line):
    import random
    rng = random.Random(size * 31 + assoc)
    for _ in range(20):
        cache = Cache(CacheConfig(size=size, associativity=assoc,
                                  line_size=line))
        reference = _ReferenceLRU(cache.num_sets, assoc, cache.offset_bits)
        # a small footprint with runs of repeats: MRU hits, reorders and
        # evictions all occur
        footprint = [rng.randrange(0, 8 * size) for _ in range(12)]
        trace = []
        for _ in range(400):
            address = rng.choice(footprint) + rng.randrange(line)
            trace.extend([address] * rng.choice((1, 1, 2, 3)))
        outcomes = [cache.access(address) for address in trace]
        assert outcomes == [reference.access(address) for address in trace]
        assert (cache.stats.accesses, cache.stats.misses) == \
            (reference.accesses, reference.misses)
        assert cache._sets == reference.sets


class TestBranchPredictor:
    def test_learns_a_loop(self):
        predictor = BranchPredictor()
        for _ in range(10):
            predictor.predict_and_update(0x400, True)
        assert predictor.predict_and_update(0x400, True)

    def test_mispredicts_alternating(self):
        predictor = BranchPredictor()
        outcomes = [predictor.predict_and_update(0x400, taken)
                    for taken in [True, False] * 50]
        assert predictor.stats.misprediction_rate > 0.3

    def test_disabled_always_mispredicts(self):
        predictor = BranchPredictor(disabled=True)
        for _ in range(5):
            assert not predictor.predict_and_update(0x10, True)
        assert predictor.stats.mispredictions == 5


class TestCores:
    def test_table1_values(self):
        assert X86_CORE.frequency_hz == 3.3e9
        assert ARM_CORE.frequency_hz == 2.0e9
        assert X86_CORE.rob_size == 128
        assert ARM_CORE.rob_size == 20
        assert ARM_CORE.fetch_width == 2

    def test_big_core_has_higher_ilp(self):
        assert X86_CORE.ilp_factor > ARM_CORE.ilp_factor

    def test_cycle_conversion(self):
        assert X86_CORE.cycles_to_seconds(3.3e9) == pytest.approx(1.0)
        assert ARM_CORE.cycles_to_micros(2000) == pytest.approx(1.0)


class TestTimingModel:
    def test_accumulates_cycles_from_execution(self):
        from repro.compiler import compile_minic
        from repro.machine import Process
        from repro.isa import ISAS
        binary = compile_minic(
            "int main() { int i; int s; s = 0; i = 0; "
            "while (i < 50) { s = s + i; i = i + 1; } return s; }")
        process = Process(binary.to_process_image(), ISAS["x86like"])
        timing = TimingModel(X86_CORE)
        process.interpreter.observers.append(timing.observe)
        process.run(100_000)
        assert timing.instructions > 100
        assert timing.cycles > 0
        assert 0.1 < timing.cpi < 10.0

    def test_same_program_slower_on_little_core(self):
        from repro.compiler import compile_minic
        from repro.machine import Process
        from repro.isa import ISAS
        source = ("int main() { int i; int s; s = 1; i = 0; "
                  "while (i < 200) { s = s + i * 3; i = i + 1; } return s; }")
        binary = compile_minic(source)
        seconds = {}
        for isa_name, core in (("x86like", X86_CORE), ("armlike", ARM_CORE)):
            process = Process(binary.to_process_image(), ISAS[isa_name])
            timing = TimingModel(core)
            process.interpreter.observers.append(timing.observe)
            process.run(100_000)
            seconds[isa_name] = timing.seconds
        assert seconds["x86like"] < seconds["armlike"]

    def test_dbt_cost_snapshot_delta(self):
        from repro.workloads import compile_workload
        from repro.core import run_under_psr
        run = run_under_psr(compile_workload("mcf"), "x86like", seed=0,
                            max_instructions=60_000)
        model = DBTCostModel()
        full = model.overhead_cycles(run.vm)
        snapshot = model.snapshot(run.vm)
        assert model.overhead_cycles(run.vm, since=snapshot) == 0.0
        assert full > 0


class TestMigrationCost:
    def make_record(self, target="x86like", frames=5, values=20):
        return MigrationRecord(
            source_isa="armlike" if target == "x86like" else "x86like",
            target_isa=target, kind="ret", native_target=0x1000,
            report=TransformReport(frames=frames, values_moved=values,
                                   registers_rebuilt=4,
                                   bytes_touched=values * 4))

    def test_landing_on_big_core_costs_more(self):
        to_x86 = migration_micros(self.make_record("x86like"))
        to_arm = migration_micros(self.make_record("armlike"))
        assert to_x86 > to_arm

    def test_cost_scales_with_state(self):
        small = migration_micros(self.make_record(frames=1, values=2))
        large = migration_micros(self.make_record(frames=30, values=200))
        assert large > small

    def test_magnitudes_are_sub_two_milliseconds(self):
        micros = migration_micros(self.make_record(frames=10, values=60))
        assert 100 < micros < 2000

    def test_summary_by_direction(self):
        records = [self.make_record("x86like"), self.make_record("armlike"),
                   self.make_record("x86like")]
        summary = summarize(records)
        assert summary.count == 3
        assert summary.by_direction["arm_to_x86"] > 0
        assert summary.by_direction["x86_to_arm"] > 0
        assert summary.average_micros > 0


# ----------------------------------------------------------------------
# Differential oracle: timed compiled path vs the per-step reference
# ----------------------------------------------------------------------
def _perf_cells():
    from repro.analysis import perfrun
    from repro.core import PSRConfig
    common = {"budget": 60_001, "warmup": 5_003}

    def psr(level):
        return lambda b, s: perfrun.measure_psr_summary(
            b, config=PSRConfig(opt_level=level), stdin=s, **common)
    return {
        "native": lambda b, s: perfrun.measure_native(b, stdin=s, **common),
        "psr-O1": psr(1),
        "psr-O2": psr(2),
        "psr-O3": psr(3),
        "isomeron": lambda b, s: perfrun.measure_isomeron(
            b, stdin=s, **common),
        "psr+isomeron": lambda b, s: perfrun.measure_psr_isomeron(
            b, stdin=s, **common),
        "hipstr-phase": lambda b, s: perfrun.measure_hipstr_summary(
            b, migration_probability=0.0, stdin=s, budget=60_001,
            phase_interval=7_919, warmup=0),
        "hipstr-prewarm": lambda b, s: perfrun.measure_hipstr_summary(
            b, stdin=s, prewarm=True, **common),
        "hipstr-ret": lambda b, s: perfrun.measure_hipstr_summary(
            b, migration_probability=1.0, stdin=s, **common),
    }


def _model_state(model):
    diversifier = getattr(model.diversifier, "__self__", None)
    return (repr(model.cycles), model.instructions, model.icache.stats,
            model.dcache.stats, model.branch_predictor.stats,
            None if diversifier is None else diversifier.stats)


class TestTimedCompiledPathOracle:
    """Every perfrun helper charges bit-identical cycles and identical
    cache, branch and Isomeron counts whether its timing model rides the
    compiled-block path or the per-step reference (the model's
    ``observe`` attached as a generic observer)."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.workloads import WORKLOADS, compile_workload
        return compile_workload("mcf", 1), WORKLOADS["mcf"].stdin

    def measure(self, monkeypatch, cell, workload, reference):
        from repro.machine import Interpreter
        attach = Interpreter.attach_timing
        models = []

        def capture(interpreter, model):
            models.append(model)
            if reference:
                interpreter.observers.append(model.observe)
            else:
                attach(interpreter, model)
        monkeypatch.setattr(Interpreter, "attach_timing", capture)
        result = _perf_cells()[cell](*workload)
        measured = getattr(result, "measurement", result)
        return (repr(measured.cycles), measured.instructions,
                getattr(result, "migration_count", None),
                getattr(result, "capacity_misses", None),
                getattr(result, "security_events", None),
                [_model_state(model) for model in models])

    @pytest.mark.parametrize("cell", sorted(_perf_cells()))
    def test_cell_matches_reference(self, monkeypatch, workload, cell):
        timed = self.measure(monkeypatch, cell, workload, reference=False)
        assert timed == self.measure(monkeypatch, cell, workload,
                                     reference=True)
        assert timed[1] > 0
        if cell == "hipstr-phase":
            assert timed[2] > 0                  # forced migrations ran

    def test_ret_migration_rollback_requeues(self, monkeypatch, workload):
        # every other migration attempt rolls back: the ret request
        # is requeued on the source ISA mid-block on the compiled path
        from repro.errors import MigrationRollback
        from repro.migration.engine import MigrationEngine
        migrate = MigrationEngine.migrate
        attempts, rolled_back = [], []

        def flaky(engine, *args, **kwargs):
            attempts.append(args[-1])
            if len(attempts) % 2:
                rolled_back.append(args[-1])
                raise MigrationRollback("injected", cause="test",
                                        kind=args[-1])
            return migrate(engine, *args, **kwargs)
        monkeypatch.setattr(MigrationEngine, "migrate", flaky)
        timed = self.measure(monkeypatch, "hipstr-ret", workload,
                             reference=False)
        assert "ret" in rolled_back
        attempts.clear()
        assert timed == self.measure(monkeypatch, "hipstr-ret", workload,
                                     reference=True)
