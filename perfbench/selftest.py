"""Self-tests of the benchmark's own logic (no program run needed).

Run with ``python3 perfbench/selftest.py`` (or ``python3 -m pytest
perfbench/selftest.py``).
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import ops  # noqa: E402
import worker  # noqa: E402


class OpSequenceTests(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        for workload in ops.WORKLOADS:
            first = ops.op_sequence(workload, 7, 20)
            second = ops.op_sequence(workload, 7, 20)
            self.assertEqual(first, second, workload)

    def test_seed_only_reorders(self):
        def content(sequence):
            return sorted((op["id"], op.get("tenant", "")) for op in sequence)

        for workload in ops.WORKLOADS:
            one = ops.op_sequence(workload, 1, 30)
            two = ops.op_sequence(workload, 2, 30)
            self.assertNotEqual([op["id"] for op in one],
                                [op["id"] for op in two], workload)
            self.assertEqual(content(one), content(two), workload)

    def test_every_segment_has_the_same_ops(self):
        for workload in ops.WORKLOADS:
            segments = {}
            for op in ops.op_sequence(workload, 5, 30):
                segments.setdefault(op["segment"], []).append(
                    (op["id"], op.get("tenant", "")))
            contents = [sorted(content) for content in segments.values()]
            self.assertGreaterEqual(len(contents), 3, workload)
            for content in contents:
                self.assertEqual(content, contents[0], workload)

    def test_every_op_is_in_the_golden_catalog(self):
        for workload in ("perf-sim", "security-toolchain"):
            catalog = {op["id"] for op in ops.batch_catalog(workload)}
            for seed in range(20):
                for op in ops.op_sequence(workload, seed, 20):
                    self.assertIn(op["id"], catalog)
        catalog = ops.serve_catalog()
        for seed in range(20):
            for op in ops.op_sequence("serve-mixed", seed, 20):
                self.assertEqual(catalog[op["id"]], op["spec"])

    def test_serve_request_ids_are_unique_except_replays(self):
        sequence = ops.op_sequence("serve-mixed", 3, 20)
        fresh = [op["request_id"] for op in sequence
                 if op["class"] != "read"]
        self.assertEqual(len(fresh), len(set(fresh)))
        primed = {op["request_id"] for op in ops.priming_ops()}
        for op in sequence:
            if op["class"] == "read":
                self.assertIn(op["request_id"], primed)


class TailTests(unittest.TestCase):
    def test_tail_has_exactly_ten_samples_beyond(self):
        for count in range(22, 5000, 7):
            rank = ops.tail_rank(count)
            self.assertEqual(count - rank - 1, 10)
            self.assertGreater(rank, ops.nearest_rank(count, 50.0))

    def test_known_counts(self):
        self.assertEqual(ops.tail_rank(1000), 989)        # p99
        self.assertEqual(ops.tail_rank(500), 489)         # p98
        self.assertIsNone(ops.tail_rank(20))
        self.assertIsNone(ops.tail_rank(18))

    def test_segment_metrics_take_medians_over_segments(self):
        import run
        timings = [[0, 1.0, 1000]] * 4 + [[1, 2.0, 1000]] * 4 \
            + [[2, 1.0, 1000]] * 4
        metrics, note = run.segment_metrics(timings, "perf-sim")
        self.assertEqual(metrics["ops_per_s"][0], 1.0)
        self.assertEqual(metrics["sim_kinsn_per_s"][0], 1.0)
        self.assertEqual(metrics["latency_p50_ms"][0], 1000.0)
        self.assertIn("medians over 3 segments", note)

    def test_closed_loop_host_time_divides_by_clients(self):
        import run
        timings = [[0, 0.5, 0]] * 100 + [[1, 0.5, 0]] * 100
        metrics, _note = run.segment_metrics(timings, "serve-mixed")
        self.assertAlmostEqual(metrics["ops_per_s"][0], 4.0)

    def test_serve_tail_has_ten_samples_beyond(self):
        import run
        timings = [[0, float(v), 0] for v in range(100)]
        metrics, note = run.segment_metrics(timings, "serve-mixed")
        self.assertEqual(metrics["latency_p50_ms"][0], 49000.0)
        self.assertIn("latency_tail p90 (N=100 per segment, 10 beyond): "
                      "median 89000.0 ms", note)

    def test_batch_latency_selects_no_single_op(self):
        import run
        timings = [[0, float(v), 0] for v in (1, 2, 3, 4, 5, 6, 7, 20)]
        metrics, note = run.segment_metrics(timings, "security-toolchain")
        self.assertEqual(metrics["latency_p50_ms"][0], 6000.0)
        self.assertNotIn("latency_tail", note)


class DigestTests(unittest.TestCase):
    RECORD = {"cycles": 12345.5, "instructions": 1000,
              "timing_models": [{"icache_misses": 3}],
              "passes": [{"name": "cfg", "seconds": 0.25}]}

    def test_tampered_record_fails_the_check(self):
        golden = {"op": worker.digest(self.RECORD)}
        self.assertIsNone(worker.check("op", self.RECORD, golden))
        tampered = copy.deepcopy(self.RECORD)
        tampered["timing_models"][0]["icache_misses"] += 1
        self.assertIsNotNone(worker.check("op", tampered, golden))
        self.assertIsNotNone(worker.check("other", self.RECORD, golden))

    def test_host_time_fields_do_not_change_the_digest(self):
        slower = copy.deepcopy(self.RECORD)
        slower["passes"][0]["seconds"] = 9.0
        self.assertEqual(worker.digest(slower), worker.digest(self.RECORD))


class ServeMixTests(unittest.TestCase):
    def test_percentile_ranks_stay_off_class_boundaries(self):
        # percentiles are taken per segment, so the segment is the count
        count = ops.SERVE_SEGMENT
        for rank in (ops.nearest_rank(count, 50.0), ops.tail_rank(count)):
            margin = ops.boundary_margin(count, rank)
            self.assertGreaterEqual(
                margin, 0.05,
                f"rank {rank} of {count} ops is {margin:.3f} from a class "
                f"boundary")


class LayerMetricTests(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        dump = {
            "spans": [
                [1, 0, "op", "attacks.jitrop", 0.0, 10.0],
                [2, 1, "op", "machine.fast", 1.0, 4.0],
                [3, 1, "op", "attacks.mine", 5.0, 6.0],
                [4, 0, "op", "runtime.engine", 20.0, 25.0],
                [5, 4, "op", "runtime.job", 20.5, 24.0],
            ],
            "steps": {"fast": 3000, "observed": 0, "profiled": 0},
            "counters": {"runtime.cache.hits": 3,
                         "runtime.cache.misses": 1},
            "model_totals": layers._zero_model_totals(),
            "vm_totals": layers._zero_vm_totals(),
        }
        values, notes = layers.layer_metrics(dump, {})
        self.assertAlmostEqual(values["attacks.jitrop_s"], 6.0)
        self.assertAlmostEqual(values["machine.fast.s"], 3.0)
        self.assertAlmostEqual(values["machine.fast.kinsn"], 3.0)
        self.assertAlmostEqual(values["attacks.mine_s"], 1.0)
        self.assertAlmostEqual(values["runtime.engine_overhead_s"], 1.5)
        self.assertAlmostEqual(values["runtime.cache.hit_ratio"], 0.75)
        self.assertTrue(any("hit_ratio = 3 / 4" in note for note in notes))
        names = {name for name, _unit in layers.LAYER_METRICS}
        self.assertEqual(set(values), names)


if __name__ == "__main__":
    unittest.main()
