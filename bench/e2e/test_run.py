"""Unit tests of the study benchmark's own arithmetic.

    python3 -m unittest discover -s bench/e2e
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(run.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile([3.0], 99), 3.0)
        self.assertEqual(run.percentile([], 99), 0.0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile([1.0] * 5))
        # 20 samples: any percentile above the median leaves < 10 beyond.
        self.assertIsNone(run.tail_percentile(list(range(20))))
        # 21 samples: p52 has ceil(10.92) = 11 at or below, 10 beyond.
        self.assertEqual(run.tail_percentile(list(range(21))), (52, 10))
        self.assertEqual(run.tail_percentile(list(range(100))), (90, 89))
        self.assertEqual(run.tail_percentile(list(range(1000))), (99, 989))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            {"id": 0, "parent": None, "layer": "bench", "dur": 100.0},
            {"id": 1, "parent": 0, "layer": "ace", "dur": 30.0},
            {"id": 2, "parent": 0, "layer": "orch", "dur": 50.0},
            {"id": 3, "parent": 2, "layer": "inject", "dur": 20.0},
            {"id": 4, "parent": 2, "layer": "inject", "dur": 10.0},
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["bench"], 20e-6)
        self.assertAlmostEqual(selfs["ace"], 30e-6)
        self.assertAlmostEqual(selfs["orch"], 20e-6)
        self.assertAlmostEqual(selfs["inject"], 30e-6)
        self.assertAlmostEqual(sum(selfs.values()), 100e-6)

    def test_separate_roots_add_up(self):
        spans = [
            {"id": 0, "parent": None, "layer": "bench", "dur": 10.0},
            {"id": 1, "parent": None, "layer": "export", "dur": 5.0},
        ]
        self.assertAlmostEqual(sum(run.self_times(spans).values()), 15e-6)


class Digests(unittest.TestCase):
    def test_identical_digests_pass(self):
        self.assertEqual(run.digest_problems(["ab", "ab", "ab"]), [])
        self.assertEqual(run.digest_problems(["ab"], expected="ab"), [])

    def test_a_differing_run_fails(self):
        self.assertEqual(len(run.digest_problems(["ab", "ab", "cd"])), 1)

    def test_pinned_digest_is_compared(self):
        problems = run.digest_problems(["ab", "ab"], expected="cd")
        self.assertEqual(len(problems), 1)
        self.assertIn("pinned", problems[0])


class ResultLine(unittest.TestCase):
    def test_a_failed_process_is_incorrect(self):
        doc = {"returncode": -1, "errors": ["boom"],
               "studies_attempted": 1, "studies_failed": 1}
        line = run.result_line(doc, "rf-grid", 7, trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (1, 1))

    def test_timing_metrics_are_medians(self):
        doc = {"returncode": 0, "errors": [], "digest": "ab",
               "studies_attempted": 3, "studies_failed": 0,
               "study_s": [3.0, 1.0, 2.0], "setup_s": [0.5, 0.4, 0.9],
               "peak_rss_kib": 2048, "injections": 10}
        line = run.result_line(doc, "rf-grid", 7, trace=False)
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]), set(run.E2E_UNITS))
        self.assertEqual(line["metrics"]["study_s"]["value"], 2.0)
        self.assertEqual(line["metrics"]["setup_s"]["value"], 0.5)

    def test_ledger_reports_every_layer_metric(self):
        counters = {k: 1 for k in (
            "ace.golden_runs", "sim.golden_cycles", "sim.golden_warp_insts",
            "pack.count", "pack.peak_kib", "pack.full_kib",
            "inject.prefilter_s", "inject.restore_s",
            "inject.replay_s", "inject.hash_s", "inject.dead_window_hits",
            "inject.residency_hits", "inject.hash_converge_hits",
            "orch.shards", "store.bytes", "verify.legacy_checked",
            "verify.legacy_mismatch", "verify.shard_mismatch")}
        spans = [
            {"id": 0, "parent": None, "layer": "bench", "name": "study",
             "dur": 1000.0, "structure": None},
            {"id": 1, "parent": 0, "layer": "ace", "name": "runAceAnalysis",
             "dur": 400.0, "structure": None},
            {"id": 2, "parent": 0, "layer": "inject",
             "name": "FaultInjector::inject", "dur": 500.0,
             "structure": "rf"},
        ]
        doc = {"spans": spans, "counters": counters,
               "shortcuts": {s: 1 for s in run.STRUCTURES},
               "ref_injections": 10, "ref_study_s": 2.0, "worker_s": 1.0,
               "ace_wall_s": 1.0, "jobs": 2, "shard_s": [0.5, 0.5],
               "traced_study_s": 1.1e-3, "untraced_jobs1_s": 1e-3,
               "peak_rss_kib": 2048}
        m = run.ledger(doc)
        self.assertEqual(set(m), set(run.LAYER_UNITS))
        self.assertEqual(m["peak_rss_mib"], 2.0)
        self.assertAlmostEqual(m["trace.wall_s"], 1e-3)
        self.assertAlmostEqual(m["self.bench_s"], 1e-4)
        self.assertAlmostEqual(m["trace.attributed_frac"], 0.9)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(m["inject.rf.s"], 5e-4)
        self.assertEqual(m["inject.rf.n"], 1)
        self.assertEqual(m["inject.rf.shortcut_frac"], 1.0)
        self.assertEqual(m["inject.lds.n"], 0)
        self.assertAlmostEqual(m["inject.shortcut_frac"], 0.3)
        self.assertAlmostEqual(m["orch.busy_frac"], 0.5)
        self.assertEqual(m["inj_per_s"], 5.0)


if __name__ == "__main__":
    unittest.main()
