"""Tests for perfbench/stats.py. Run: python3 -m unittest discover perfbench"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class FitExponentTest(unittest.TestCase):
    SIZES = [100e3, 141e3, 200e3, 283e3, 400e3]

    def test_linear_timings_give_one(self):
        times = [0.003 * s for s in self.SIZES]
        self.assertAlmostEqual(stats.fit_exponent(self.SIZES, times), 1.0,
                               places=9)

    def test_quadratic_timings_give_two(self):
        times = [2e-9 * s * s for s in self.SIZES]
        self.assertAlmostEqual(stats.fit_exponent(self.SIZES, times), 2.0,
                               places=9)

    def test_fixed_cost_lowers_the_exponent(self):
        times = [50.0 + 0.001 * s for s in self.SIZES]
        self.assertLess(stats.fit_exponent(self.SIZES, times), 1.0)

    def test_noise_keeps_the_exponent_close(self):
        rng = random.Random(7)
        times = [1e-6 * s ** 2 * rng.uniform(0.97, 1.03) for s in self.SIZES]
        self.assertAlmostEqual(stats.fit_exponent(self.SIZES, times), 2.0,
                               delta=0.05)

    def test_rejects_degenerate_input(self):
        with self.assertRaises(ValueError):
            stats.fit_exponent([1.0], [1.0])
        with self.assertRaises(ValueError):
            stats.fit_exponent([5.0, 5.0], [1.0, 2.0])


class OrderStatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)


class ReferenceTimeTest(unittest.TestCase):
    def test_a_slow_host_cancels(self):
        # The host at half speed doubles the operation and its kernel.
        ref = stats.KERNEL_REFERENCE_MS
        quiet = stats.reference_ms([100.0], [ref])
        slow = stats.reference_ms([200.0], [2 * ref])
        self.assertAlmostEqual(quiet[0], 100.0)
        self.assertAlmostEqual(slow[0], 100.0)

    def test_a_slower_program_shows(self):
        ref = stats.KERNEL_REFERENCE_MS
        self.assertAlmostEqual(
            stats.reference_ms([130.0], [ref])[0] /
            stats.reference_ms([100.0], [ref])[0], 1.3)

    def test_needs_a_kernel_time_per_time(self):
        with self.assertRaises(ValueError):
            stats.reference_ms([1.0, 2.0], [6.0])


if __name__ == "__main__":
    unittest.main()
