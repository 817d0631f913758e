"""Self-test of the benchmark's statistics code.

    python3 perfbench/test_stats.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        # 100 samples: rank 90, ten samples above it.
        self.assertEqual(stats.percentile(range(1, 101), 90), 90)
        # 99 samples: rank 90 (ceil of 89.1), nine above it: omitted.
        self.assertIsNone(stats.percentile(range(1, 100), 90))

    def test_median_rank(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50, min_beyond=1), 3)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50, min_beyond=1), 2)

    def test_empty_and_invalid(self):
        self.assertIsNone(stats.percentile([], 50))
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 100)

    def test_unsorted_input(self):
        xs = list(range(200, 0, -1))
        self.assertEqual(stats.percentile(xs, 90), 180)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [7.0, 1.0, 3.0, 9.0, 4.0, 6.0, 2.0, 8.0, 5.0, 10.0]
        q = statistics.quantiles(xs, n=4)
        self.assertEqual(stats.quartiles(xs), (q[0], q[2]))
        self.assertEqual(stats.quartiles(xs), (2.75, 8.25))

    def test_constant_values(self):
        self.assertEqual(stats.quartiles([3.0] * 10), (3.0, 3.0))


class ThroughputTest(unittest.TestCase):
    ROUNDS = [(0, 2, 1.0), (0, 2, 0.5), (0, 1, 0.4), (1, 1, 1.0), (1, 1, 0.25)]

    def test_median_round_rate_per_lane_summed(self):
        # Lane 0 rates 2, 4, 2.5 (one failure); lane 1 rates 1 and 4.
        self.assertAlmostEqual(stats.throughput(self.ROUNDS), 2.5 + 2.5)


class ProcParseTest(unittest.TestCase):
    STATUS = (
        "Name:\tspllift-cli\nUmask:\t0022\nVmPeak:\t  412340 kB\n"
        "VmHWM:\t  208776 kB\nVmRSS:\t  201112 kB\nThreads:\t3\n"
    )

    def test_status_peak_rss(self):
        self.assertEqual(stats.parse_status_kb(self.STATUS, "VmHWM"), 208776)
        self.assertEqual(stats.parse_status_kb(self.STATUS, "VmRSS"), 201112)
        with self.assertRaises(ValueError):
            stats.parse_status_kb(self.STATUS, "VmSwap")

    def test_stat_cpu_with_odd_command_name(self):
        # The command name holds a space and a ')'; utime=250, stime=50.
        fields = ["S", "1", "2", "3", "0", "-1", "4194560", "100", "0", "0", "0", "250", "50"]
        text = "4242 (spllift) cli) " + " ".join(fields + ["0"] * 30) + "\n"
        self.assertAlmostEqual(stats.parse_stat_cpu_s(text, 100), 3.0)

    def test_stat_of_this_process(self):
        with open("/proc/self/stat") as f:
            cpu = stats.parse_stat_cpu_s(f.read(), os.sysconf("SC_CLK_TCK"))
        self.assertGreaterEqual(cpu, 0.0)
        with open("/proc/self/status") as f:
            self.assertGreater(stats.parse_status_kb(f.read(), "VmHWM"), 0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 0, "name": "op", "start_ns": 0, "end_ns": 10_000_000, "parent": None},
            {"id": 1, "name": "solve", "start_ns": 1_000_000, "end_ns": 4_000_000, "parent": 0},
            {"id": 2, "name": "render", "start_ns": 5_000_000, "end_ns": 9_000_000, "parent": 0},
            {"id": 3, "name": "solve", "start_ns": 20_000_000, "end_ns": 21_000_000, "parent": None},
        ]
        self.assertEqual(stats.self_times(spans), {"op": 3.0, "solve": 4.0, "render": 4.0})


if __name__ == "__main__":
    unittest.main()
