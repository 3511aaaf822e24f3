"""Tests of the A/B helpers in run.py (python3 -m unittest discover -s perfbench/tests)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class PairAccounting(unittest.TestCase):
    def test_wins_ignore_ties_and_favour_lower(self):
        a = [10.0, 10.0, 10.0, 10.0]
        b = [9.0, 10.0, 11.0, 8.0]
        self.assertEqual(run.pair_wins(a, b), 0.5)

    def test_summary_uses_exclusive_quartiles(self):
        self.assertEqual(run.summary([float(x) for x in range(1, 11)]), (5.5, 2.75, 8.25))
        self.assertEqual(run.summary([3.0]), (3.0, 3.0, 3.0))


if __name__ == "__main__":
    unittest.main()
