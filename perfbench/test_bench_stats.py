"""Tests of the benchmark's own statistics.

Run from the repository root: python3 -m unittest perfbench/test_bench_stats.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_stats as bs  # noqa: E402


class TailSelection(unittest.TestCase):
    def test_highest_level_with_ten_beyond(self):
        self.assertIsNone(bs.tail_level(19))
        self.assertEqual(bs.tail_level(20), 50.0)
        self.assertEqual(bs.tail_level(99), 50.0)
        self.assertEqual(bs.tail_level(100), 90.0)
        self.assertEqual(bs.tail_level(199), 90.0)
        self.assertEqual(bs.tail_level(200), 95.0)
        self.assertEqual(bs.tail_level(204), 95.0)
        self.assertEqual(bs.tail_level(999), 95.0)
        self.assertEqual(bs.tail_level(1000), 99.0)
        # the ladder stops at p99, however many samples there are
        self.assertEqual(bs.tail_level(10**6), 99.0)

    def test_tail_value(self):
        values = list(range(1, 201))  # 200 samples: p95 has 10 above it
        level, v = bs.tail(values)
        self.assertEqual(level, 95.0)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_too_few(self):
        with self.assertRaises(ValueError):
            bs.tail([1.0] * 5)

    def test_percentile_interpolates(self):
        self.assertEqual(bs.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(bs.percentile([5], 99), 5)
        self.assertEqual(bs.percentile([3, 1, 2], 0), 1)
        self.assertEqual(bs.percentile([3, 1, 2], 100), 3)


class SelfTime(unittest.TestCase):
    def test_nested(self):
        # pass(1) [0,10] holds doc spans 2 [1,4] and 3 [5,9];
        # span 3 holds 4 [6,7]
        spans = [(1, 0, 0.0, 10.0), (2, 1, 1.0, 4.0), (3, 1, 5.0, 9.0),
                 (4, 3, 6.0, 7.0)]
        st = bs.self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(st[2], 3.0)
        self.assertAlmostEqual(st[3], 4.0 - 1.0)
        self.assertAlmostEqual(st[4], 1.0)
        # self times of a tree add up to the root's duration
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_children_count_once(self):
        # children on two lanes overlap in [2,3]
        spans = [(1, 0, 0.0, 5.0), (2, 1, 1.0, 3.0), (3, 1, 2.0, 4.0)]
        self.assertAlmostEqual(bs.self_times(spans)[1], 5.0 - 3.0)

    def test_child_clipped_to_parent(self):
        spans = [(1, 0, 0.0, 2.0), (2, 1, 1.0, 3.0)]
        self.assertAlmostEqual(bs.self_times(spans)[1], 1.0)


class ReferenceSeconds(unittest.TestCase):
    def test_host_slowdown_cancels(self):
        # the program takes 3x the kernel; the host runs at full speed,
        # then half speed, then a third of it
        passes = [(0.6, 0.2), (0.6, 0.2), (1.2, 0.4), (1.2, 0.4), (1.8, 0.6)]
        self.assertAlmostEqual(bs.reference_seconds(passes, 0.2), 0.6)
        self.assertAlmostEqual(bs.reference_seconds(passes, 0.1), 0.3)

    def test_median_ratio(self):
        # one pass disturbed on its own: the median ignores it
        passes = [(0.6, 0.2), (0.6, 0.2), (5.0, 0.2)]
        self.assertAlmostEqual(bs.reference_seconds(passes, 0.2), 0.6)
        # an even count takes the middle two
        passes = [(0.2, 0.2), (0.4, 0.2), (0.6, 0.2), (0.8, 0.2)]
        self.assertAlmostEqual(bs.reference_seconds(passes, 0.2), 0.5)

    def test_empty(self):
        with self.assertRaises(ValueError):
            bs.reference_seconds([], 0.2)


if __name__ == "__main__":
    unittest.main()
