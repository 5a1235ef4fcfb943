"""Unit tests of the benchmark's helpers:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import benchlib as bl  # noqa: E402

COMMITTEE = [(fid, person) for fid in range(1, 200) for person in bl.PEOPLE[:2]]


def stats_line(counters, timers):
    return json.dumps({"ok": True, "stats": {
        "counters": counters,
        "timers": {k: {"ms": ms, "calls": n} for k, (ms, n) in timers.items()}}})


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        for workload in bl.WORKLOADS:
            first = bl.generate(workload, 7, 2, COMMITTEE)
            self.assertEqual(first, bl.generate(workload, 7, 2, COMMITTEE))
            self.assertNotEqual(first, bl.generate(workload, 8, 2, COMMITTEE))

    def test_connections_draw_their_own_keys(self):
        reqs = [r for r in bl.generate("landing", 1, 2) if r.phase == "c"]
        conn0 = [r.texts for r in reqs if r.conn == 0]
        conn1 = [r.texts for r in reqs if r.conn == 1]
        same = sum(a == b for a, b in zip(conn0, conn1))
        self.assertLess(same, len(conn0) // 5)

    def test_curate_deltas_commute(self):
        # fresh families only, and each deleted row at most once
        reqs = bl.generate("curate", 3, 2, COMMITTEE)
        changes = [c for r in reqs if r.kind == "commit" for c in r.texts[0].split(";")]
        self.assertEqual(len(changes), len(set(changes)))
        self.assertTrue(all(c[0] == "+" or c.startswith("-Committee(") for c in changes))

    def test_version_selectors(self):
        self.assertEqual(bl.resolve_version("r3", 10), 7)
        self.assertEqual(bl.resolve_version("r5", 2), 0)
        self.assertEqual(bl.resolve_version("o0.000000", 20), 0)
        self.assertEqual(bl.resolve_version("o0.999999", 20), 12)
        self.assertEqual(bl.resolve_version("o0.500000", 3), 0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        self.assertEqual(bl.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(bl.percentile(list(range(20)), 50), 9)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(bl.TooFewSamples):
            bl.percentile(list(range(1, 1000)), 99)
        with self.assertRaises(bl.TooFewSamples):
            bl.percentile(list(range(19)), 50)
        with self.assertRaises(bl.TooFewSamples):
            bl.percentile([], 50)


class StatsDiffTest(unittest.TestCase):
    def test_names_first_seen_mid_run(self):
        before = bl.parse_stats(stats_line({"server_requests": 5},
                                           {"server_cite": (2.0, 4)}))
        after = bl.parse_stats(stats_line({"server_requests": 9, "wal_fsyncs": 3},
                                          {"server_cite": (5.0, 6), "wal_fsync": (0.9, 3)}))
        counters, timers = bl.stats_diff(before, after)
        self.assertEqual(counters, {"server_requests": 4, "wal_fsyncs": 3})
        self.assertEqual(timers, {"server_cite": (3.0, 2), "wal_fsync": (0.9, 3)})


if __name__ == "__main__":
    unittest.main()
