"""Tests for the baseline defenses: Isomeron and ASLR models."""

import random

import pytest

from repro.defenses import (
    ASLRModel,
    IsomeronExecutionModel,
    IsomeronStats,
    chain_success_probability,
    isomeron_entropy,
)
from repro.defenses.isomeron import DIVERSIFIER_DISPATCH_CYCLES
from repro.isa import Op
from repro.perf import TimingModel, X86_CORE


def legacy_isomeron_observer(timing, probability, seed):
    """The reference Isomeron charge: a second step observer, run after
    the timing model's own per-step charge of the same instruction."""
    stats = IsomeronStats()
    rng = random.Random(f"isomeron:{seed}")

    def observe(cpu, info):
        if info.decoded.instruction.op in (Op.CALL, Op.ICALL, Op.RET):
            stats.calls_intercepted += 1
            timing.add_cycles(DIVERSIFIER_DISPATCH_CYCLES)
            stats.coin_flips += 1
            if rng.random() < probability:
                stats.variant_switches += 1
    return observe, stats


class TestIsomeronModel:
    SOURCE = """
        int f(int x) { return x + 1; }
        int main() { int i; int s; s = 0; i = 0;
            while (i < 50) { s = f(s); i = i + 1; } return s; }
    """

    def make_process(self):
        from repro.compiler import compile_minic
        from repro.isa import ISAS
        from repro.machine import Process
        binary = compile_minic(self.SOURCE)
        return Process(binary.to_process_image(), ISAS["x86like"])

    def run_workload(self, probability, seed=0):
        process = self.make_process()
        timing = TimingModel(X86_CORE, disable_branch_prediction=True)
        model = IsomeronExecutionModel(timing, probability, seed)
        process.interpreter.attach_timing(timing)
        process.run(100_000)
        return process, timing, model

    @pytest.mark.parametrize("probability", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("budget", [37, 100_000])
    def test_matches_legacy_observer_pair(self, probability, budget):
        # the diversifier charged from the compiled path (in budget
        # chunks that end mid-block) equals the reference: timing.observe
        # plus a separate Isomeron observer
        process = self.make_process()
        timing = TimingModel(X86_CORE, disable_branch_prediction=True)
        model = IsomeronExecutionModel(timing, probability, seed=4)
        process.interpreter.attach_timing(timing)
        while process.run(budget).reason == "limit":
            pass
        assert process.interpreter.compiled_block_count > 0
        reference = self.make_process()
        ref_timing = TimingModel(X86_CORE, disable_branch_prediction=True)
        observer, ref_stats = legacy_isomeron_observer(ref_timing,
                                                       probability, seed=4)
        reference.interpreter.observers.append(ref_timing.observe)
        reference.interpreter.observers.append(observer)
        reference.run(100_000)
        assert repr(timing.cycles) == repr(ref_timing.cycles)
        assert timing.instructions == ref_timing.instructions
        assert timing.icache.stats == ref_timing.icache.stats
        assert timing.dcache.stats == ref_timing.dcache.stats
        assert timing.branch_predictor.stats == \
            ref_timing.branch_predictor.stats
        assert model.stats == ref_stats

    def test_intercepts_calls_and_returns(self):
        _, _, model = self.run_workload(0.5)
        # 50 calls + 50 returns + crt0, roughly
        assert model.stats.calls_intercepted >= 100

    def test_diversifier_costs_cycles(self):
        _, with_iso, _ = self.run_workload(0.5)
        process = self.make_process()
        plain = TimingModel(X86_CORE)
        process.interpreter.attach_timing(plain)
        process.run(100_000)
        assert with_iso.cycles > plain.cycles

    def test_probability_drives_switches(self):
        _, _, never = self.run_workload(0.0)
        _, _, always = self.run_workload(1.0)
        assert never.stats.variant_switches == 0
        assert always.stats.variant_switches == always.stats.coin_flips

    def test_entropy_one_bit_per_gadget(self):
        assert isomeron_entropy(1) == 2
        assert isomeron_entropy(8) == 256

    def test_chain_success_probability(self):
        assert chain_success_probability(4, 0.0) == 1.0
        assert chain_success_probability(1, 1.0) == 0.5
        assert chain_success_probability(8, 1.0) == pytest.approx(0.5 ** 8)


class TestASLRModel:
    def test_slide_is_page_aligned(self):
        model = ASLRModel(seed=3)
        assert model.slide % 4096 == 0

    def test_leak_derandomizes(self):
        model = ASLRModel(seed=3)
        static = 0x08048123
        leaked = model.randomize_address(static)
        assert model.derandomize_with_leak(leaked, static) == model.slide

    def test_respawn_keeps_layout(self):
        model = ASLRModel(seed=3)
        assert model.respawn().slide == model.slide

    def test_expected_attempts(self):
        model = ASLRModel(entropy_bits=16)
        assert model.expected_brute_force_attempts() == 2.0 ** 15

    def test_different_seeds_differ(self):
        assert ASLRModel(seed=1).slide != ASLRModel(seed=2).slide
