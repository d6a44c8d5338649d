#!/usr/bin/env python3
"""Self-test of the benchmark's statistics on fixed synthetic inputs:

    python3 qmcbench/selftest.py
"""

import math
import os
import random
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_ten_beyond(self):
        p, value, beyond = stats.tail_percentile(list(range(1, 101)))
        self.assertEqual((p, value, beyond), (90, 90, 10))

    def test_order_does_not_matter(self):
        xs = list(range(1, 101))
        random.Random(3).shuffle(xs)
        self.assertEqual(stats.tail_percentile(xs), (90, 90, 10))

    def test_twenty_samples_give_the_median(self):
        p, value, beyond = stats.tail_percentile(list(range(1, 21)))
        self.assertEqual((p, value, beyond), (50, 10, 10))

    def test_too_few_samples(self):
        p, value, _ = stats.tail_percentile(list(range(1, 20)))
        self.assertIsNone(p)
        self.assertEqual(value, 10)

    def test_every_reported_percentile_leaves_ten(self):
        for n in range(20, 400):
            p, _, beyond = stats.tail_percentile(list(range(n)))
            self.assertGreaterEqual(beyond, stats.TAIL_BEYOND)
            if p < 99:  # the next percentile up would leave fewer
                self.assertLess(n - math.ceil((p + 1) * n / 100), stats.TAIL_BEYOND)


class Quartiles(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9]), (2.5, 5, 7.5))

    def test_matches_statistics_quantiles(self):
        xs = [random.Random(7).gauss(0, 1) for _ in range(10)]
        self.assertEqual(list(stats.quartiles(xs)), statistics.quantiles(xs, n=4))

    def test_spread(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 1.0)


class Reblocking(unittest.TestCase):
    def test_white_noise_matches_naive_error(self):
        rng = random.Random(11)
        xs = [rng.gauss(0, 1) for _ in range(1024)]
        naive = statistics.stdev(xs) / math.sqrt(len(xs))
        sigma = stats.reblocked_sigma(xs)
        self.assertGreaterEqual(sigma, naive)
        self.assertLess(sigma, 1.6 * naive)

    def test_correlated_series_widens_the_error(self):
        # Runs of 16 equal values: only 1/16 of the samples are independent.
        rng = random.Random(5)
        xs = [v for _ in range(64) for v in [rng.gauss(0, 1)] * 16]
        naive = statistics.stdev(xs) / math.sqrt(len(xs))
        self.assertGreater(stats.reblocked_sigma(xs), 3.0 * naive)

    def test_constant_series(self):
        self.assertEqual(stats.reblocked_sigma([2.0] * 32), 0.0)


class SelfTimes(unittest.TestCase):
    # (name, t0, t1, parent, gen)
    SPANS = [
        ("gen", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("b.inner", 4.0, 5.5, 2, 0),
        ("c", 7.0, 9.5, 0, 0),
        ("other", 11.0, 12.0, -1, -1),
    ]

    def test_self_times(self):
        st = stats.self_times(self.SPANS)
        for got, want in zip(st, [2.5, 2.0, 1.5, 1.5, 2.5, 1.0]):
            self.assertAlmostEqual(got, want)

    EXPECTED = {"a": 1, "b": 1, "b.inner": 1, "c": 1}

    def test_named_plus_residual_is_wall(self):
        wall, named, residual, problems = stats.sum_check(self.SPANS, 0, self.EXPECTED)
        self.assertEqual(problems, [])
        self.assertAlmostEqual(wall, 10.0)
        self.assertAlmostEqual(residual, 2.5)
        self.assertAlmostEqual(named + residual, wall)

    def test_subtree_stops_at_the_root(self):
        self.assertEqual(stats.subtree(self.SPANS, 0), [0, 1, 2, 3, 4])

    def test_overlapping_siblings_fail(self):
        spans = [("gen", 0.0, 10.0, -1, 0), ("a", 1.0, 5.0, 0, 0), ("b", 4.0, 6.0, 0, 0)]
        self.assertEqual(len(stats.sum_check(spans, 0, {"a": 1, "b": 1})[3]), 1)

    def test_missing_span_fails(self):
        spans = [s for s in self.SPANS if s[0] != "c"]
        self.assertEqual(stats.sum_check(spans, 0, self.EXPECTED)[3], ["0 c spans, expected 1"])

    def test_repeated_span_fails(self):
        expected = dict(self.EXPECTED, a=2)
        self.assertEqual(stats.sum_check(self.SPANS, 0, expected)[3], ["1 a spans, expected 2"])

    def test_unexpected_span_fails(self):
        expected = {k: v for k, v in self.EXPECTED.items() if k != "b.inner"}
        self.assertEqual(stats.sum_check(self.SPANS, 0, expected)[3],
                         ["1 b.inner spans, expected 0"])


class Verdicts(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.5, 99.5, 100.0]

    def test_improved(self):
        change = [1.2 * v for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1), ("improved", 1.0))

    def test_improved_when_lower_is_better(self):
        change = [0.8 * v for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "lower", 0.1)[0], "improved")

    def test_regressed(self):
        change = [0.8 * v for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1), ("regressed", 0.0))

    def test_within_bound(self):
        change = [0.97 * v for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1)[0], "within bound")

    def test_small_consistent_gain_is_not_a_claim(self):
        # Wins every pair, but by less than the parent's own quartile spread.
        change = [v + 0.5 for v in self.PARENT]
        self.assertEqual(stats.verdict(self.PARENT, change, "higher", 0.1),
                         ("within bound", 1.0))

    def test_wide_spread_is_unresolved(self):
        parent = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = list(reversed(parent))
        self.assertEqual(stats.verdict(parent, change, "higher", 0.1)[0], "unresolved")

    def test_wide_spread_all_worse_is_regressed(self):
        parent = [200.0, 300.0, 260.0, 240.0, 220.0, 280.0, 250.0, 230.0, 270.0, 290.0]
        change = [v / 3.0 for v in parent]
        self.assertEqual(stats.verdict(parent, change, "higher", 0.1)[0], "regressed")

    def test_ties_count_for_neither(self):
        _, win = stats.verdict(self.PARENT, list(self.PARENT), "lower", 0.1)
        self.assertEqual(win, 0.0)

    def test_unpaired_input_is_rejected(self):
        with self.assertRaises(ValueError):
            stats.verdict([1.0, 2.0], [1.0], "lower", 0.1)


if __name__ == "__main__":
    unittest.main()
