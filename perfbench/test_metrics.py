"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True
import metrics  # noqa: E402


def span(layer, start, end, parent=-1):
    return {"name": layer, "layer": layer, "start_s": start, "end_s": end,
            "parent": parent}


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(100), 90.0)   # 10 beyond p90
        self.assertEqual(metrics.tail_percentile(99), 80.0)    # 9.9 beyond p90
        self.assertEqual(metrics.tail_percentile(40), 75.0)
        self.assertEqual(metrics.tail_percentile(480), 95.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_too_few_samples_has_no_tail(self):
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile([7.0], 99.9), 7.0)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_worst_tenant_tail_takes_the_slowest_tenant(self):
        tenants = [1] * 20 + [2] * 20
        iter_vs = list(range(20)) + [v + 100 for v in range(20)]
        self.assertEqual(metrics.worst_tenant_tail(tenants, iter_vs, 50), 109)


class SelfTimeTest(unittest.TestCase):
    def test_duration_minus_child_coverage(self):
        spans = [span("bench", 0.0, 10.0),
                 span("runtime", 1.0, 4.0, parent=0),
                 span("runtime", 5.0, 9.0, parent=0),
                 span("io", 2.0, 3.0, parent=1)]
        self.assertEqual(metrics.self_times(spans),
                         {"bench": 3.0, "runtime": 6.0, "io": 1.0})

    def test_overlapping_children_are_subtracted_once(self):
        spans = [span("bench", 0.0, 10.0),
                 span("io", 2.0, 6.0, parent=0),
                 span("io", 4.0, 8.0, parent=0)]
        self.assertAlmostEqual(metrics.self_times(spans)["bench"], 4.0)

    def test_child_clipped_to_parent(self):
        spans = [span("bench", 0.0, 5.0), span("util", 4.0, 7.0, parent=0)]
        self.assertEqual(metrics.self_times(spans), {"bench": 4.0, "util": 3.0})

    def test_no_spans(self):
        self.assertEqual(metrics.self_times([]), {})


class FailedShareTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(metrics.run_outcome(42, []), (42, 0))
        self.assertEqual(metrics.failed_share(42, 0), 0.0)

    def test_any_error_fails_every_attempted_iteration(self):
        attempted, failed = metrics.run_outcome(42, ["checksum mismatch"])
        self.assertEqual((attempted, failed), (42, 42))
        self.assertEqual(metrics.failed_share(attempted, failed), 1.0)

    def test_a_run_that_died_early_still_counts_one_attempt(self):
        self.assertEqual(metrics.run_outcome(0, ["exception"]), (1, 1))

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            metrics.failed_share(0, 0)
        with self.assertRaises(ValueError):
            metrics.failed_share(3, 4)


class ThroughputTest(unittest.TestCase):
    def test_round_lasts_as_long_as_its_busiest_tenant(self):
        # Round 0: tenant 1 busy 4 vs, tenant 2 busy 2 vs, 4 iterations.
        tenants = [1, 1, 2, 2]
        rounds = [0, 0, 0, 0]
        iter_vs = [2.0, 2.0, 1.0, 1.0]
        self.assertEqual(metrics.rounds_throughput(tenants, rounds, iter_vs),
                         1000.0)

    def test_median_over_rounds(self):
        tenants = [0, 0, 0]
        rounds = [0, 1, 2]
        iter_vs = [1.0, 2.0, 4.0]
        self.assertEqual(metrics.rounds_throughput(tenants, rounds, iter_vs),
                         500.0)


if __name__ == "__main__":
    unittest.main()
